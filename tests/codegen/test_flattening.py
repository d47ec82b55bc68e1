"""Tests for the region-flattening analysis."""

import pytest

from repro.codegen import CodegenError, flatten_machine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.uml import StateMachineBuilder, calls


class TestFlatMachines:
    def test_flat_machine_leaves(self):
        flat = flatten_machine(flat_machine_with_unreachable_state())
        names = {leaf.name for leaf in flat.leaves}
        assert names == {"S1", "S2", "S3", "final"}

    def test_top_final_identified(self):
        flat = flatten_machine(flat_machine_with_unreachable_state())
        assert flat.top_final_leaf is not None
        assert flat.leaves[flat.top_final_leaf].vertex_kind == "top-final"

    def test_initial_leaf_and_actions(self):
        flat = flatten_machine(flat_machine_with_unreachable_state())
        assert flat.leaves[flat.initial_leaf].name == "S1"
        # Initial entry runs S1's entry behavior.
        assert any("s1_enter_action" in str(b.statements)
                   for b in flat.initial_actions)

    def test_row_per_event_transition(self):
        flat = flatten_machine(flat_machine_with_unreachable_state())
        triggers = [(flat.leaves[t.source].name, t.trigger)
                    for t in flat.transitions]
        assert ("S1", "e1") in triggers
        assert ("S2", "e2") in triggers
        assert ("S3", "e3") in triggers and ("S3", "e4") in triggers


class TestHierarchicalFlattening:
    def test_leaf_configurations(self):
        flat = flatten_machine(
            hierarchical_machine_with_shadowed_composite())
        names = {leaf.name for leaf in flat.leaves}
        assert "S3.S31" in names and "S3.final" in names
        assert "S1" in names and "S2" in names

    def test_active_chain_recorded(self):
        flat = flatten_machine(
            hierarchical_machine_with_shadowed_composite())
        leaf = flat.leaf_by_name("S3.S31")
        assert leaf.active_states == ("S3", "S31")

    def test_bubbled_transition_duplicated_per_leaf(self):
        # S3 -e3-> S1 must be available from every S3-interior leaf.
        flat = flatten_machine(
            hierarchical_machine_with_shadowed_composite())
        e3_sources = {flat.leaves[t.source].name
                      for t in flat.transitions if t.trigger == "e3"}
        assert {"S3.S31", "S3.S32", "S3.S33", "S3.final"} <= e3_sources

    def test_exit_cascade_in_actions(self):
        # Leaving from S3.S31 via e3 must run S31.exit then S3.exit.
        flat = flatten_machine(
            hierarchical_machine_with_shadowed_composite())
        row = next(t for t in flat.transitions
                   if t.trigger == "e3"
                   and flat.leaves[t.source].name == "S3.S31")
        text = [str(b.statements) for b in row.actions]
        s31_exit = next(i for i, t in enumerate(text)
                        if "s31_exit_action" in t)
        s3_exit = next(i for i, t in enumerate(text)
                       if "s3_exit_action" in t)
        assert s31_exit < s3_exit

    def test_entry_cascade_in_actions(self):
        # Entering S3 (boundary) runs S3.entry, initial effect, S31.entry.
        flat = flatten_machine(
            hierarchical_machine_with_shadowed_composite())
        row = next(t for t in flat.transitions if t.trigger == "e2")
        text = [str(b.statements) for b in row.actions]
        s3_in = next(i for i, t in enumerate(text)
                     if "s3_enter_action" in t)
        s31_in = next(i for i, t in enumerate(text)
                      if "s31_enter_action" in t)
        assert s3_in < s31_in
        assert flat.leaves[row.target].name == "S3.S31"

    def test_completion_row_from_nested_final(self):
        # S3.final completes the composite; S3's completion transition
        # would be a row... the paper's model has none from S3, but S2
        # (simple) has one: a completion row with trigger None.
        flat = flatten_machine(
            hierarchical_machine_with_shadowed_composite())
        completion_rows = [t for t in flat.transitions if t.trigger is None]
        sources = {flat.leaves[t.source].name for t in completion_rows}
        assert "S2" in sources

    def test_internal_transition_row(self):
        b = StateMachineBuilder("I")
        b.state("A")
        b.initial_to("A")
        b.internal("A", on="tick", effect=calls("t"))
        b.transition("A", "final", on="stop")
        flat = flatten_machine(b.build())
        row = next(t for t in flat.transitions if t.trigger == "tick")
        assert row.internal
        assert row.source == row.target


class TestSteps:
    """Each row carries its source transition and its steps in the
    interpreter's order; ``actions`` are the behaviors they run."""

    def test_exit_cascade_steps_and_source_transition(self):
        flat = flatten_machine(
            hierarchical_machine_with_shadowed_composite())
        row = next(t for t in flat.transitions
                   if t.trigger == "e3"
                   and flat.leaves[t.source].name == "S3.S31")
        assert row.transition.describe() in row.description
        assert row.guard is row.transition.guard
        kinds = [(kind, getattr(element, "name", None))
                 for kind, element in row.steps
                 if kind in ("exit", "enter")]
        assert kinds == [("exit", "S31"), ("exit", "S3"), ("enter", "S1")]

    def test_initial_transition_and_steps(self):
        machine = flat_machine_with_unreachable_state()
        flat = flatten_machine(machine)
        assert flat.initial_transition is \
            machine.regions[0].initial.outgoing()[0]
        assert [(k, e.name) for k, e in flat.initial_steps
                if k == "enter"] == [("enter", "S1")]

    def test_entering_a_nested_final_completes_its_region(self):
        b = StateMachineBuilder("F")
        b.state("A")
        b.initial_to("A")
        c = b.composite("C", entry=calls("enterC"))
        c.region.owner.do_activity = calls("doC")
        c.state("X")
        c.initial_to("X")
        b.transition("A", c.final, on="jump")
        flat = flatten_machine(b.build())
        row = next(t for t in flat.transitions if t.trigger == "jump")
        assert [k for k, _ in row.steps] == ["exit", "enter", "complete"]
        assert row.steps[-1].element is c.region
        assert flat.leaves[row.target].name == "C.final"
        # The do-activity runs right after the entry behavior.
        assert [str(b.statements) for b in row.actions] == [
            str(calls("enterC").statements), str(calls("doC").statements)]

    def test_composite_without_initial_never_completes(self):
        b = StateMachineBuilder("N")
        c = b.composite("C")
        c.state("X")
        b.state("D")
        b.initial_to("C")
        b.completion("C", "D")
        flat = flatten_machine(b.build())
        assert flat.leaves[flat.initial_leaf].name == "C"
        assert not [t for t in flat.transitions if t.trigger is None]


class TestUnsupported:
    def test_choice_pseudostate_rejected(self):
        b = StateMachineBuilder("Ch")
        b.state("A")
        b.state("B")
        ch = b.choice()
        b.initial_to("A")
        b.transition("A", ch, on="go")
        b.transition(ch, "B")
        with pytest.raises(CodegenError):
            flatten_machine(b.build())

    def test_orthogonal_regions_rejected(self):
        from repro.uml import Region, State
        b = StateMachineBuilder("O")
        s = b.state("S")
        s.add_region(Region("r1"))
        s.add_region(Region("r2"))
        b.initial_to("S")
        with pytest.raises(CodegenError):
            flatten_machine(b.machine)
