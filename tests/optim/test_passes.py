"""Tests for individual optimization passes and the pass manager."""

import pytest

from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.optim import (DEFAULT_PIPELINE, FlattenTrivialComposites,
                         MergeFinalStates, PassManager,
                         RemoveDeadComposites, RemoveShadowedTransitions,
                         RemoveUnreachableStates, RemoveUnusedEvents,
                         SimplifyGuards, check_equivalence, optimize)
from repro.semantics import SemanticsConfig
from repro.uml import StateMachineBuilder, calls


class TestRemoveUnreachableStates:
    def test_removes_s2_from_flat_model(self):
        m = flat_machine_with_unreachable_state()
        result = RemoveUnreachableStates().run(m)
        assert result.changed
        assert any("S2" in s for s in result.removed_states)
        assert "S2" not in {s.name for s in m.all_states()}

    def test_noop_on_clean_machine(self):
        b = StateMachineBuilder("C")
        b.state("A")
        b.initial_to("A")
        b.transition("A", "final", on="x")
        result = RemoveUnreachableStates().run(b.build())
        assert not result.changed

    def test_removes_chain_iteratively(self):
        b = StateMachineBuilder("Chain")
        b.state("A")
        b.state("D1")
        b.state("D2")
        b.initial_to("A")
        b.transition("A", "final", on="ok")
        b.transition("D1", "D2", on="x")
        m = b.build()
        result = RemoveUnreachableStates().run(m)
        assert len(result.removed_states) == 2


class TestRemoveShadowedTransitions:
    def test_removes_e2_arc(self):
        m = hierarchical_machine_with_shadowed_composite()
        result = RemoveShadowedTransitions().run(m)
        assert result.removed_transitions == ["S2 -e2-> S3"]

    def test_requires_completion_priority(self):
        pass_ = RemoveShadowedTransitions()
        assert not pass_.applicable(
            SemanticsConfig(completion_priority=False))

    def test_skipped_under_non_uml_semantics(self):
        m = hierarchical_machine_with_shadowed_composite()
        mgr = PassManager(
            semantics=SemanticsConfig(completion_priority=False))
        report = mgr.run(m)
        assert "remove-shadowed-transitions" in report.skipped_passes
        # The composite stays: without completion priority e2 can fire.
        assert "S3" in {s.name for s in report.optimized.all_states()}


class TestRemoveDeadComposites:
    def test_removes_composite_and_children_only(self):
        m = hierarchical_machine_with_shadowed_composite()
        result = RemoveDeadComposites().run(m)
        names = {s.name for s in m.all_states()}
        assert "S3" not in names and "S31" not in names
        # The pass leaves the shadowed arc's bookkeeping to other passes,
        # but the arc dies with the composite (its target is gone).
        assert len([s for s in result.removed_states]) == 4


class TestSimplifyGuards:
    def test_true_guard_dropped(self):
        b = StateMachineBuilder("T")
        b.state("A")
        b.initial_to("A")
        tr = b.transition("A", "final", on="x", guard="1 < 2")
        m = b.build()
        result = SimplifyGuards().run(m)
        assert result.simplified_guards == 1
        assert tr.guard is None

    def test_false_guard_transition_removed(self):
        b = StateMachineBuilder("F")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="x", guard="2 < 1")
        b.transition("A", "final", on="y")
        m = b.build()
        result = SimplifyGuards().run(m)
        assert result.removed_transitions
        assert all(t.guard is None for t in m.all_transitions())

    def test_partial_fold(self):
        b = StateMachineBuilder("P")
        b.attribute("n", 0)
        b.state("A")
        b.initial_to("A")
        tr = b.transition("A", "final", on="x", guard="n > 1 + 2")
        m = b.build()
        SimplifyGuards().run(m)
        from repro.uml import parse_expr
        assert tr.guard == parse_expr("n > 3")


class TestMergeFinalStates:
    def test_merges_duplicates(self):
        from repro.uml import FinalState, Transition
        b = StateMachineBuilder("MF")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "final", on="x")
        extra_final = b.region.add_vertex(FinalState("final2"))
        b.transition("B", extra_final, on="y")
        b.transition("A", "B", on="go")
        m = b.build()
        result = MergeFinalStates().run(m)
        assert result.changed
        assert len(m.top.final_states()) == 1


class TestFlattenTrivialComposites:
    def make_trivial(self):
        b = StateMachineBuilder("FT")
        sub = b.composite("C", entry=calls("c_in"), exit=calls("c_out"))
        inner = sub.state("Inner", entry=calls("i_in"), exit=calls("i_out"))
        sub.initial_to("Inner")
        b.initial_to("C")
        b.transition("Inner", "final", on="leave")
        return b.build()

    def test_flattens(self):
        m = self.make_trivial()
        result = FlattenTrivialComposites().run(m)
        assert result.changed
        c = m.find_state("C")
        assert c.is_simple
        assert "Inner" not in {s.name for s in m.all_states()}

    def test_flattening_preserves_behavior(self):
        original = self.make_trivial()
        optimized = self.make_trivial()
        FlattenTrivialComposites().run(optimized)
        report = check_equivalence(original, optimized)
        assert report.equivalent, report.summary()

    def test_does_not_flatten_with_history(self):
        from repro.uml import PseudostateKind
        b = StateMachineBuilder("H")
        sub = b.composite("C")
        sub.state("Inner")
        sub.initial_to("Inner")
        sub.pseudostate(PseudostateKind.SHALLOW_HISTORY, "H")
        b.initial_to("C")
        b.transition("C", "final", on="x")
        m = b.build()
        assert not FlattenTrivialComposites().run(m).changed

    def test_does_not_flatten_a_composite_with_a_do_activity(self):
        # The composite's do-activity runs before the substate's entry;
        # inlining the substate would run it after.
        original = self.make_trivial()
        original.find_state("C").do_activity = calls("c_do")
        optimized = self.make_trivial()
        optimized.find_state("C").do_activity = calls("c_do")
        assert not FlattenTrivialComposites().run(optimized).changed
        assert check_equivalence(original, optimized).equivalent

    def test_does_not_flatten_composite_with_completion(self):
        b = StateMachineBuilder("CC")
        sub = b.composite("C")
        sub.state("Inner")
        sub.initial_to("Inner")
        b.initial_to("C")
        b.completion("C", "final")
        m = b.build()
        assert not FlattenTrivialComposites().run(m).changed


class TestRemoveUnusedEvents:
    def test_removes_untriggering_event(self):
        b = StateMachineBuilder("U")
        b.state("A")
        b.initial_to("A")
        b.transition("A", "final", on="used")
        b.event("orphan")
        m = b.build()
        result = RemoveUnusedEvents().run(m)
        assert result.removed_events == ["orphan"]

    def test_keeps_emitted_events(self):
        from repro.uml import Behavior, EmitStmt
        b = StateMachineBuilder("E")
        b.state("A", entry=Behavior(statements=(EmitStmt("ping"),)))
        b.initial_to("A")
        b.transition("A", "final", on="ping")
        m = b.build()
        result = RemoveUnusedEvents().run(m)
        assert result.removed_events == []


class TestPassManagerAndPipeline:
    def test_default_pipeline_on_flat(self):
        m = flat_machine_with_unreachable_state()
        report = optimize(m)
        assert {s.name for s in report.optimized.all_states()} == {"S1", "S3"}
        # Original untouched.
        assert "S2" in {s.name for s in m.all_states()}

    def test_default_pipeline_on_hierarchical(self):
        m = hierarchical_machine_with_shadowed_composite()
        report = optimize(m)
        assert {s.name for s in report.optimized.all_states()} == {"S1", "S2"}

    def test_selection_restricts_passes(self):
        m = hierarchical_machine_with_shadowed_composite()
        report = optimize(m, selection=["simplify-guards"])
        # Without the structural passes the composite survives.
        assert "S3" in {s.name for s in report.optimized.all_states()}

    def test_unknown_selection_raises(self):
        with pytest.raises(KeyError):
            optimize(flat_machine_with_unreachable_state(),
                     selection=["no-such-pass"])

    def test_report_summary_mentions_passes(self):
        report = optimize(flat_machine_with_unreachable_state())
        assert "remove-unreachable-states" in report.summary()

    def test_catalog_descriptions(self):
        mgr = PassManager()
        text = mgr.describe_catalog()
        for name in DEFAULT_PIPELINE:
            assert name in text

    def test_pipeline_is_behavior_preserving_on_paper_models(self):
        for factory in (flat_machine_with_unreachable_state,
                        hierarchical_machine_with_shadowed_composite):
            m = factory()
            report = optimize(m)
            eq = check_equivalence(m, report.optimized)
            assert eq.equivalent, f"{m.name}: {eq.summary()}"

    def test_fixpoint_cascade(self):
        # Shadowed arc removal must strand the composite, which the
        # unreachable pass then removes in the same run.
        m = hierarchical_machine_with_shadowed_composite()
        report = optimize(m)
        assert report.iterations >= 2
        assert any("S3" in s for s in report.removed_states)
