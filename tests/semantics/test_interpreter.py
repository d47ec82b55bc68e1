"""Interpreter tests: run-to-completion, hierarchy, completion priority."""

import pytest

from repro.exec import InterpreterExecutor, observe, run_scenario
from repro.optim.equivalence import make_scenarios
from repro.uml import (AnyEvent, Assign, Element, PseudostateKind, Region,
                       State, StateMachineBuilder, Vertex, calls, parse_expr)
from repro.semantics import (ConflictPolicy, EventPoolPolicy, ExecutionError,
                             MachineInstance, MachinePlan, SemanticsConfig,
                             UnconsumedPolicy)


def interpret(machine, events, config=SemanticsConfig(), externals=None):
    """The interpreter after *events*, run through the Executor
    protocol."""
    return run_scenario(InterpreterExecutor(config), machine, events,
                        externals=externals).inner


def choice_machine(v=5):
    b = StateMachineBuilder("Choice")
    b.attribute("v", v)
    b.state("A")
    b.state("Low")
    b.state("High")
    ch = b.choice()
    b.initial_to("A")
    b.transition("A", ch, on="go")
    b.transition(ch, "Low", guard="v < 3")
    b.transition(ch, "High", guard="v >= 3")
    return b.build()


def history_machine():
    b = StateMachineBuilder("Hist")
    sub = b.composite("C")
    sub.state("C1")
    sub.state("C2")
    hist = sub.pseudostate(PseudostateKind.SHALLOW_HISTORY, "H")
    sub.initial_to("C1")
    sub.transition("C1", "C2", on="adv")
    b.state("Out")
    b.initial_to("C")
    b.transition("C", "Out", on="pause")
    b.transition("Out", hist, on="resume")
    return b.build()


def terminate_machine():
    b = StateMachineBuilder("Term")
    b.state("A")
    term = b.pseudostate(PseudostateKind.TERMINATE, "T")
    b.initial_to("A")
    b.transition("A", term, on="die")
    return b.build()


def internal_machine():
    b = StateMachineBuilder("Int")
    b.state("A", entry=calls("enter_a"), exit=calls("exit_a"))
    b.initial_to("A")
    b.internal("A", on="tick", effect=calls("tock"))
    b.transition("A", "final", on="stop")
    return b.build()


def toggle_machine():
    b = StateMachineBuilder("Toggle")
    b.state("Off", entry=calls("off_entered"))
    b.state("On", entry=calls("on_entered"))
    b.initial_to("Off")
    b.transition("Off", "On", on="flip")
    b.transition("On", "Off", on="flip")
    b.transition("Off", "final", on="kill")
    return b.build()


class TestBasics:
    def test_start_enters_initial_target(self):
        inst = MachineInstance(toggle_machine()).start()
        assert inst.current_state == "Off"

    def test_dispatch_moves_between_states(self):
        inst = interpret(toggle_machine(), ["flip", "flip", "flip"])
        assert inst.current_state == "On"

    def test_unknown_event_discarded_by_default(self):
        inst = interpret(toggle_machine(), ["nonsense"])
        assert inst.current_state == "Off"
        assert any(r.kind.value == "dropped" for r in inst.trace)

    def test_final_state_completes_machine(self):
        inst = interpret(toggle_machine(), ["kill"])
        assert inst.in_final
        assert inst.current_state is None

    def test_dispatch_before_start_raises(self):
        inst = MachineInstance(toggle_machine())
        with pytest.raises(ExecutionError):
            inst.dispatch("flip")

    def test_double_start_raises(self):
        inst = MachineInstance(toggle_machine()).start()
        with pytest.raises(ExecutionError):
            inst.start()

    def test_entry_behaviors_traced_as_calls(self):
        inst = interpret(toggle_machine(), ["flip"])
        assert ("off_entered", ()) in inst.trace.calls()
        assert ("on_entered", ()) in inst.trace.calls()


class TestGuardsAndEffects:
    def make_counter(self):
        b = StateMachineBuilder("Counter")
        b.attribute("n", 0)
        b.state("Count")
        b.initial_to("Count")
        b.transition("Count", "Count", on="inc",
                     effect=[Assign("n", parse_expr("n + 1"))])
        b.transition("Count", "final", on="check", guard="n >= 3")
        return b.build()

    def test_guard_blocks_until_true(self):
        m = self.make_counter()
        inst = interpret(m, ["check", "inc", "check", "inc", "inc", "check"])
        assert inst.in_final
        assert inst.attributes["n"] == 3

    def test_externals_invoked(self):
        seen = []
        b = StateMachineBuilder("Caller")
        b.state("A", entry=calls("hello"))
        b.initial_to("A")
        b.transition("A", "final", on="x")
        m = b.build()
        interpret(m, [], externals={"hello": lambda: seen.append(1)})
        assert seen == [1]


class TestCompletionSemantics:
    """The UML rule at the heart of the paper: an unguarded completion
    transition fires before any pooled event can be consumed."""

    def machine_with_shadowed_exit(self):
        b = StateMachineBuilder("Shadow")
        b.state("S1")
        b.state("S2")
        b.state("S3")
        b.initial_to("S1")
        b.transition("S1", "S2", on="e1")
        b.transition("S2", "S3", on="e2")   # shadowed by completion below
        b.completion("S2", "final")
        return b.build()

    def test_completion_fires_immediately_on_entry(self):
        inst = interpret(self.machine_with_shadowed_exit(), ["e1"])
        assert inst.in_final  # S2 completed straight to final

    def test_event_transition_from_shadowed_state_never_fires(self):
        inst = interpret(self.machine_with_shadowed_exit(), ["e1", "e2"])
        assert "S3" not in inst.trace.entered_states()

    def test_guarded_completion_does_not_shadow(self):
        b = StateMachineBuilder("Guarded")
        b.attribute("ok", 0)
        b.state("S1")
        b.state("S2")
        b.state("S3")
        b.initial_to("S1")
        b.transition("S1", "S2", on="e1")
        b.transition("S2", "S3", on="e2")
        b.completion("S2", "final", guard="ok == 1")
        m = b.build()
        inst = interpret(m, ["e1", "e2"])
        assert inst.current_state == "S3"

    def test_nested_state_named_like_its_parent_completes_itself(self):
        # Validation only makes sibling names unique: the inner A's
        # completion fires A -> B, not the outer A's completion to final.
        b = StateMachineBuilder("SameName")
        outer = b.composite("A")
        outer.state("A")
        outer.state("B")
        outer.initial_to("A")
        outer.completion("A", "B")
        b.initial_to("A")
        b.completion("A", "final")
        inst = interpret(b.build(), [])
        assert inst.active_states == ["A", "B"]
        assert not inst.in_final


class TestHierarchy:
    def composite_machine(self):
        b = StateMachineBuilder("H")
        b.state("S1", entry=calls("s1_in"))
        sub = b.composite("S3", entry=calls("s3_in"))
        sub.state("S31", entry=calls("s31_in"))
        sub.state("S32")
        sub.initial_to("S31")
        sub.transition("S31", "S32", on="step")
        sub.transition("S32", "final", on="finish_inner")
        b.initial_to("S1")
        b.transition("S1", "S3", on="enter_c")
        b.transition("S3", "final", on="leave_c")
        b.completion("S3", "S1")
        return b.build()

    def test_default_entry_reaches_nested_initial(self):
        inst = interpret(self.composite_machine(), ["enter_c"])
        assert inst.active_states == ["S3", "S31"]

    def test_entry_order_outer_then_inner(self):
        inst = interpret(self.composite_machine(), ["enter_c"])
        names = [c[0] for c in inst.trace.calls()]
        assert names.index("s3_in") < names.index("s31_in")

    def test_event_bubbles_to_composite(self):
        # 'leave_c' is handled by the composite while an inner state is active
        inst = interpret(self.composite_machine(), ["enter_c", "leave_c"])
        assert inst.in_final

    def test_inner_transition_preferred_innermost_first(self):
        inst = interpret(self.composite_machine(), ["enter_c", "step"])
        assert inst.active_states == ["S3", "S32"]

    def test_region_completion_triggers_composite_completion(self):
        inst = interpret(self.composite_machine(),
                            ["enter_c", "step", "finish_inner"])
        # completion transition S3 -> S1 fires
        assert inst.current_state == "S1"

    def test_outermost_first_policy_changes_winner(self):
        b = StateMachineBuilder("Conflict")
        sub = b.composite("C")
        sub.state("C1")
        sub.initial_to("C1")
        sub.transition("C1", "final", on="e")
        b.initial_to("C")
        b.state("Out")
        b.transition("C", "Out", on="e")
        m = b.build()
        inner_first = interpret(m, ["e"])
        assert inner_first.active_states == ["C"]  # inner consumed the event
        outer_first = interpret(
            m, ["e"], config=SemanticsConfig(
                conflict_resolution=ConflictPolicy.OUTERMOST_FIRST))
        assert outer_first.current_state == "Out"


class TestTriggers:
    def wildcard_machine(self, wildcard_first):
        b = StateMachineBuilder("Wild")
        b.state("A")
        b.state("Any")
        b.state("Go")
        b.initial_to("A")
        arcs = [("Any", AnyEvent()), ("Go", "go")]
        for target, on in (arcs if wildcard_first else arcs[::-1]):
            b.transition("A", target, on=on)
        return b.build()

    @pytest.mark.parametrize("wildcard_first, on_go",
                             [(True, "Any"), (False, "Go")])
    def test_wildcard_and_named_triggers_keep_outgoing_order(
            self, wildcard_first, on_go):
        machine = self.wildcard_machine(wildcard_first)
        assert interpret(machine, ["go"]).current_state == on_go
        assert interpret(machine, ["other"]).current_state == "Any"


class TestExternalCalls:
    """Calls inside guard and assign expressions go through the same
    traced wrappers as call statements."""

    def guarded(self, guard, validate=True, effect=None):
        b = StateMachineBuilder("Guarded")
        b.attribute("n", 0)
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="go", guard=guard, effect=effect)
        return b.build(validate=validate)

    def test_declared_unmapped_call_in_a_guard_returns_zero(self):
        machine = self.guarded("f(7) == 0")
        assert "f" in machine.context.operations   # declared by validation
        inst = interpret(machine, ["go"])
        assert inst.current_state == "B"
        assert inst.trace.calls() == [("f", (7,))]

    def test_mapped_undeclared_external_in_a_guard_and_an_assign(self):
        machine = self.guarded("probe(2) > 10", validate=False,
                               effect=[Assign("n", parse_expr("probe(3)"))])
        assert "probe" not in machine.context.operations
        inst = interpret(machine, ["go"],
                         externals={"probe": lambda x: 10 * x})
        assert inst.current_state == "B"
        assert inst.attributes["n"] == 30
        assert inst.trace.calls() == [("probe", (2,)), ("probe", (3,))]

    def test_short_circuit_traces_only_the_calls_made(self):
        machine = self.guarded("f() || g()")
        inst = interpret(machine, ["go"],
                         externals={"f": lambda: 1, "g": lambda: 0})
        assert inst.current_state == "B"
        assert inst.trace.calls() == [("f", ())]

    def test_undeclared_unmapped_call_in_a_guard_raises(self):
        machine = self.guarded("ghost() == 0", validate=False)
        with pytest.raises(ExecutionError, match="ghost"):
            interpret(machine, ["go"])


class TestVariationPoints:
    def queue_machine(self):
        b = StateMachineBuilder("Q")
        b.state("A")
        b.state("B")
        b.state("C")
        b.initial_to("A")
        b.transition("A", "B", on="x")
        b.transition("B", "C", on="y")
        b.transition("B", "final", on="z")
        return b.build()

    def test_defer_policy_recalls_event(self):
        # 'y' arrives while in A (not consumable), then 'x' moves to B and
        # the deferred 'y' is recalled -> C.
        m = self.queue_machine()
        inst = MachineInstance(m, config=SemanticsConfig(
            unconsumed_events=UnconsumedPolicy.DEFER)).start()
        inst.dispatch("y")
        inst.dispatch("x")
        assert inst.current_state == "C"

    def test_lifo_pool_policy(self):
        m = self.queue_machine()
        inst = MachineInstance(m, config=SemanticsConfig(
            event_pool=EventPoolPolicy.LIFO)).start()
        # Queue both before processing by stuffing the pool directly.
        inst._pool.append(("x", 0))
        inst._pool.append(("z", 0))
        inst._run_to_completion()
        # LIFO: 'z' dispatched first (dropped in A), then 'x' -> B
        assert inst.current_state == "B"

    def test_priority_pool_policy(self):
        m = self.queue_machine()
        inst = MachineInstance(m, config=SemanticsConfig(
            event_pool=EventPoolPolicy.PRIORITY)).start()
        # FIFO would drop 'z' (not consumable in A) then take 'x' -> B.
        # PRIORITY takes 'x' (5) first -> B, then 'z' (1) fires B -> final.
        inst._pool.append(("z", 1))
        inst._pool.append(("x", 5))
        inst._run_to_completion()
        assert inst.in_final

    def test_completion_cycle_hits_step_budget(self):
        b = StateMachineBuilder("Loop")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.completion("A", "B")
        b.completion("B", "A")
        m = b.build()
        inst = MachineInstance(m, config=SemanticsConfig(
            max_run_to_completion_steps=50))
        with pytest.raises(ExecutionError):
            inst.start()


class TestPseudostates:
    def test_choice_selects_guarded_branch(self):
        inst = interpret(choice_machine(), ["go"])
        assert inst.current_state == "High"

    def test_choice_else_branch(self):
        b = StateMachineBuilder("ChoiceElse")
        b.attribute("v", 0)
        b.state("A")
        b.state("Low")
        b.state("Other")
        ch = b.choice()
        b.initial_to("A")
        b.transition("A", ch, on="go")
        b.transition(ch, "Low", guard="v > 100")
        b.transition(ch, "Other")  # acts as [else]
        m = b.build()
        inst = interpret(m, ["go"])
        assert inst.current_state == "Other"

    def test_stuck_choice_raises(self):
        b = StateMachineBuilder("Stuck")
        b.attribute("v", 0)
        b.state("A")
        b.state("B")
        ch = b.choice()
        b.initial_to("A")
        b.transition("A", ch, on="go")
        b.transition(ch, "B", guard="v > 100")
        m = b.build()
        with pytest.raises(ExecutionError):
            interpret(m, ["go"])

    def test_terminate_pseudostate(self):
        inst = interpret(terminate_machine(), ["die"])
        assert inst.is_terminated

    def test_shallow_history_restores_substate(self):
        inst = interpret(history_machine(), ["adv", "pause", "resume"])
        assert inst.active_states == ["C", "C2"]


class TestInternalTransitions:
    def test_internal_does_not_exit_or_enter(self):
        inst = interpret(internal_machine(), ["tick", "tick"])
        names = [c[0] for c in inst.trace.calls()]
        assert names == ["enter_a", "tock", "tock"]


class TestMachinePlan:
    def test_replay_never_walks_the_model(self, flat_machine,
                                          hierarchical_machine, monkeypatch):
        machines = [flat_machine, hierarchical_machine, choice_machine(),
                    choice_machine(v=0), history_machine(),
                    terminate_machine(), internal_machine()]
        executor = InterpreterExecutor()
        runs = []
        for machine in machines:
            stimuli = make_scenarios(machine)
            runs.append((machine, stimuli,
                         observe(InterpreterExecutor(), machine, stimuli)))
            executor.load(machine)

        def walk(*args, **kwargs):
            raise AssertionError("replay walked the model")
        for owner, name in ((Region, "all_transitions"), (Vertex, "outgoing"),
                            (State, "ancestors"), (Element, "owner_chain")):
            monkeypatch.setattr(owner, name, walk)
        for machine, stimuli, expected in runs:
            assert observe(executor, machine, stimuli) == expected

    def test_a_plan_serves_only_its_machine(self, flat_machine,
                                            hierarchical_machine):
        plan = MachinePlan(flat_machine)
        assert MachineInstance(flat_machine, plan=plan).plan is plan
        with pytest.raises(ValueError):
            MachineInstance(hierarchical_machine, plan=plan)
