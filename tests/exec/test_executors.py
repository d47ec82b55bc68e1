"""The Executor protocol: one call surface over three backends."""

import weakref

import pytest

from repro.exec import (FleetExecutor, InterpreterExecutor, VMExecutor,
                        normalize_stimuli, run_scenario)
from repro.semantics.trace import observable_equal
from repro.uml import Event


class TestNormalizeStimuli:
    def test_strings_events_and_pairs(self):
        out = normalize_stimuli(["go", Event("stop"), ("reset", 3)])
        assert out == [("go", 0), ("stop", 0), ("reset", 3)]

    def test_object_with_events_attribute(self):
        class Stim:
            events = (("a", 1), ("b", 2))
        assert normalize_stimuli(Stim()) == [("a", 1), ("b", 2)]


class TestCanonicalRunScenario:
    """One ``run_scenario(executor, machine, stimuli)`` signature for
    every backend — the API the redesign converges on."""

    def test_all_backends_agree_observably(self, flat_machine):
        events = ["e1", "e3", "e1", "e4"]
        reference = run_scenario(InterpreterExecutor(), flat_machine,
                                 events)
        for executor in (VMExecutor(), FleetExecutor()):
            instance = run_scenario(executor, flat_machine, events)
            assert observable_equal(reference.trace, instance.trace), \
                executor.name
            assert instance.in_final == reference.in_final

    def test_hierarchical_machine_agrees(self, hierarchical_machine):
        events = ["e1", "e2"]
        reference = run_scenario(InterpreterExecutor(),
                                 hierarchical_machine, events)
        for executor in (VMExecutor(), FleetExecutor()):
            instance = run_scenario(executor, hierarchical_machine, events)
            assert observable_equal(reference.trace, instance.trace), \
                executor.name

    def test_externals_flow_through_load(self, flat_machine):
        seen = []
        executor = InterpreterExecutor()
        instance = executor.load(
            flat_machine,
            externals={"s1_entry": lambda: seen.append("s1")})
        instance.start()
        assert seen == ["s1"]


class TestAdapters:
    def test_vm_executor_memoizes_compile(self, flat_machine):
        executor = VMExecutor()
        assert executor.program_for(flat_machine) is \
            executor.program_for(flat_machine)

    def test_interpreter_executor_memoizes_plan(self, flat_machine,
                                                hierarchical_machine):
        executor = InterpreterExecutor()
        plan = executor.plan_for(flat_machine)
        assert executor.plan_for(flat_machine) is plan
        assert executor.load(flat_machine).inner.plan is plan
        assert executor.plan_for(hierarchical_machine) is not plan
        assert isinstance(executor._plans, weakref.WeakKeyDictionary)

    def test_fleet_executor_memoizes_table(self, flat_machine):
        executor = FleetExecutor()
        assert executor.table_for(flat_machine) is \
            executor.table_for(flat_machine)

    def test_vm_instance_guards_lifecycle(self, flat_machine):
        instance = VMExecutor().load(flat_machine)
        with pytest.raises(RuntimeError):
            instance.dispatch("e1")
        instance.start()
        with pytest.raises(RuntimeError):
            instance.start()
