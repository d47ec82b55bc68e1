"""Tests for the three code generators: structure + differential behavior."""

import itertools
import random

import pytest

from repro.codegen import (ALL_GENERATORS, ALL_PATTERNS, CodegenError,
                           NestedSwitchGenerator, StatePatternGenerator,
                           StateTableGenerator, generator_by_name)
from repro.codegen.harness import (GeneratedMachine,
                                   observable_calls_of_model)
from repro.compiler import OptLevel, compile_unit
from repro.cpp import print_unit
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.optim import make_scenarios, optimize
from repro.uml import Assign, StateMachineBuilder, calls, parse_expr

GEN_IDS = [g.name for g in ALL_GENERATORS]


def scenarios_for(machine, depth=2, n_random=8, length=8, seed=3):
    alphabet = sorted(e.name for e in machine.events.values())
    out = [list(t) for t in itertools.product(alphabet, repeat=depth)]
    rng = random.Random(seed)
    out += [[rng.choice(alphabet) for _ in range(length)]
            for _ in range(n_random)]
    return out


def assert_differential(machine, gen_cls, level=None):
    for events in scenarios_for(machine):
        gm = GeneratedMachine(machine, gen_cls(), level=level)
        gm.send_all(events)
        ref = observable_calls_of_model(machine, events)
        assert gm.calls == ref, (
            f"{gen_cls.name} diverges on {events}:\n"
            f"  generated: {gm.calls}\n  model:     {ref}")


class TestRegistry:
    def test_generator_by_name(self):
        for gen_cls in ALL_GENERATORS:
            assert isinstance(generator_by_name(gen_cls.name), gen_cls)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            generator_by_name("banana")


@pytest.mark.parametrize("gen_cls", ALL_GENERATORS, ids=GEN_IDS)
class TestDifferentialBehavior:
    """Generated + compiled code must behave exactly like the model."""

    def test_flat_model(self, gen_cls):
        assert_differential(flat_machine_with_unreachable_state(), gen_cls)

    def test_hierarchical_model(self, gen_cls):
        assert_differential(
            hierarchical_machine_with_shadowed_composite(), gen_cls)

    def test_optimized_pipeline_matches(self, gen_cls):
        # With the full -Os middle end between generator and execution.
        assert_differential(flat_machine_with_unreachable_state(), gen_cls,
                            level=OptLevel.OS)

    def test_guarded_counter_model(self, gen_cls):
        b = StateMachineBuilder("Counter")
        b.attribute("n", 0)
        b.state("Idle", entry=calls("idle_in"))
        b.state("Busy", entry=calls("busy_in"), exit=calls("busy_out"))
        b.initial_to("Idle")
        b.transition("Idle", "Busy", on="start",
                     effect=[Assign("n", parse_expr("n + 1"))])
        b.transition("Busy", "Idle", on="stop", guard="n < 3")
        b.transition("Busy", "final", on="stop", guard="n >= 3")
        machine = b.build()
        assert_differential(machine, gen_cls)

    def test_internal_transition_model(self, gen_cls):
        b = StateMachineBuilder("Int")
        b.state("A", entry=calls("a_in"), exit=calls("a_out"))
        b.initial_to("A")
        b.internal("A", on="tick", effect=calls("tock"))
        b.transition("A", "final", on="stop")
        assert_differential(b.build(), gen_cls)

    def test_completion_chain_model(self, gen_cls):
        # A -> B -> C through completion transitions at start-up.
        b = StateMachineBuilder("Chain")
        b.state("A", entry=calls("a_in"))
        b.state("B", entry=calls("b_in"))
        b.state("C", entry=calls("c_in"))
        b.initial_to("A")
        b.completion("A", "B")
        b.completion("B", "C")
        b.transition("C", "final", on="stop")
        assert_differential(b.build(), gen_cls)

    def test_is_final_observer(self, gen_cls):
        m = flat_machine_with_unreachable_state()
        gm = GeneratedMachine(m, gen_cls())
        assert not gm.is_final()
        gm.send_all(["e1", "e4"])  # S1 -e1-> S3 -e4-> final
        assert gm.is_final()

    def test_attribute_readback(self, gen_cls):
        b = StateMachineBuilder("Acc")
        b.attribute("total", 5)
        b.state("S")
        b.initial_to("S")
        b.transition("S", "S", on="add",
                     effect=[Assign("total", parse_expr("total + 2"))])
        machine = b.build()
        gm = GeneratedMachine(machine, gen_cls())
        gm.send_all(["add", "add"])
        assert gm.read_attribute("total") == 9


@pytest.mark.parametrize("level", [OptLevel.O0, OptLevel.OS],
                         ids=lambda level: level.value)
@pytest.mark.parametrize("gen_cls", ALL_PATTERNS,
                         ids=[g.name for g in ALL_PATTERNS])
@pytest.mark.parametrize("make_machine", [
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite], ids=["flat", "hier"])
def test_optimized_clone_replays_the_original_scenarios(make_machine,
                                                        gen_cls, level):
    """Model optimization drops events nothing consumes (``e2`` of Fig. 1
    flat); generated code for the optimized clone discards them, as the
    model does, so it replays the original machine's scenarios."""
    original = make_machine()
    optimized = optimize(original).optimized
    assert len(optimized.events) < len(original.events)
    for events in make_scenarios(original):
        gm = GeneratedMachine(optimized, gen_cls(), level=level)
        gm.send_all(events)
        assert gm.calls == observable_calls_of_model(original, events), \
            events


class TestPatternStructure:
    def test_nested_switch_has_submachine_class(self):
        m = hierarchical_machine_with_shadowed_composite()
        unit = NestedSwitchGenerator().generate(m)
        names = [c.name for c in unit.classes]
        assert "Fig1Hier_S3" in names  # the composite's submachine class

    def test_state_pattern_one_class_per_state(self):
        m = flat_machine_with_unreachable_state()
        unit = StatePatternGenerator().generate(m)
        names = {c.name for c in unit.classes}
        for state in ("S1", "S2", "S3"):
            assert f"Fig1Flat_{state}" in names
        assert "Fig1Flat_State" in names  # abstract base

    def test_state_pattern_uses_virtual_dispatch(self):
        m = flat_machine_with_unreachable_state()
        unit = StatePatternGenerator().generate(m)
        result = compile_unit(unit, OptLevel.OS)
        assert any(obj.name.startswith("vtbl.")
                   for obj in result.module.data_objects)

    def test_state_table_rows_are_rodata(self):
        m = flat_machine_with_unreachable_state()
        unit = StateTableGenerator().generate(m)
        result = compile_unit(unit, OptLevel.OS)
        rows = next(obj for obj in result.module.data_objects
                    if obj.name == "Fig1Flat_rows")
        assert rows.section == "rodata"
        assert rows.size >= 24 * 4  # >= four 6-word rows

    def test_state_table_row_count_matches_flattening(self):
        from repro.codegen import flatten_machine
        m = hierarchical_machine_with_shadowed_composite()
        flat = flatten_machine(m)
        unit = StateTableGenerator().generate(m)
        result = compile_unit(unit, OptLevel.OS)
        rows = next(obj for obj in result.module.data_objects
                    if obj.name == "Fig1Hier_rows")
        assert rows.size == 24 * len(flat.transitions)

    def test_printed_unit_is_plausible_cpp(self):
        m = flat_machine_with_unreachable_state()
        for gen_cls in ALL_GENERATORS:
            text = print_unit(gen_cls().generate(m))
            assert "enum Event" in text
            assert 'extern "C"' in text
            assert "class " in text

    def test_cross_region_transition_rejected_by_ns_and_sp(self):
        b = StateMachineBuilder("Cross")
        sub = b.composite("C")
        sub.state("Inner")
        sub.initial_to("Inner")
        b.state("Out")
        b.initial_to("C")
        b.transition("Inner", "Out", on="escape")  # crosses the boundary
        m = b.build()
        for gen_cls in (NestedSwitchGenerator, StatePatternGenerator):
            with pytest.raises(CodegenError):
                gen_cls().generate(m)

    def test_state_table_supports_cross_region_transitions(self):
        b = StateMachineBuilder("Cross")
        sub = b.composite("C", entry=calls("c_in"), exit=calls("c_out"))
        sub.state("Inner", entry=calls("inner_in"), exit=calls("inner_out"))
        sub.initial_to("Inner")
        b.state("Out", entry=calls("out_in"))
        b.initial_to("C")
        b.transition("Inner", "Out", on="escape")
        m = b.build()
        assert_differential(m, StateTableGenerator)

    def test_choice_pseudostate_rejected_everywhere(self):
        b = StateMachineBuilder("Ch")
        b.attribute("v", 0)
        b.state("A")
        b.state("B")
        ch = b.choice()
        b.initial_to("A")
        b.transition("A", ch, on="go")
        b.transition(ch, "B", guard="v > 0")
        b.transition(ch, "A")
        m = b.build()
        for gen_cls in ALL_GENERATORS:
            with pytest.raises(CodegenError):
                gen_cls().generate(m)
