"""Tests for reachability, completion shadowing and the dead-code report."""

import pytest

from repro.analysis import (DeadReason, analyze_completion,
                            analyze_reachability, find_dead_code,
                            is_always_completing, measure_model)
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.uml import StateMachineBuilder, calls


class TestReachabilityFlat:
    def test_s2_unreachable(self):
        info = analyze_reachability(flat_machine_with_unreachable_state())
        assert info.unreachable_states == ("S2",)

    def test_reachable_states_are_live(self):
        m = flat_machine_with_unreachable_state()
        info = analyze_reachability(m)
        assert info.is_reachable(m.find_state("S1"))
        assert info.is_reachable(m.find_state("S3"))

    def test_dead_transition_from_unreachable_source(self):
        m = flat_machine_with_unreachable_state()
        info = analyze_reachability(m)
        dead = {t.describe() for t in info.dead_transitions}
        assert "S2 -e2-> S3" in dead

    def test_clean_machine_has_no_dead_elements(self):
        b = StateMachineBuilder("Clean")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="x")
        b.transition("B", "final", on="y")
        report = find_dead_code(b.build())
        assert report.is_clean

    def test_chain_of_dead_states(self):
        # D1 -> D2 -> D3: none reachable; all reported.
        b = StateMachineBuilder("Chain")
        b.state("A")
        b.state("D1")
        b.state("D2")
        b.state("D3")
        b.initial_to("A")
        b.transition("A", "final", on="ok")
        b.transition("D1", "D2", on="x")
        b.transition("D2", "D3", on="y")
        info = analyze_reachability(b.build())
        assert set(info.unreachable_states) == {"D1", "D2", "D3"}


class TestCompletionShadowing:
    def test_hierarchical_composite_shadowed(self):
        m = hierarchical_machine_with_shadowed_composite()
        info = analyze_completion(m)
        assert "S2" in info.always_completing
        shadows = {t.describe() for t in info.shadowed_transitions}
        assert "S2 -e2-> S3" in shadows

    def test_composite_s3_unreachable_only_with_shadowing(self):
        m = hierarchical_machine_with_shadowed_composite()
        with_shadow = analyze_reachability(m, respect_completion_shadowing=True)
        without = analyze_reachability(m, respect_completion_shadowing=False)
        assert "S3" in with_shadow.unreachable_states
        assert "S3" not in without.unreachable_states

    def test_guarded_completion_does_not_shadow(self):
        b = StateMachineBuilder("G")
        b.attribute("ok", 0)
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.completion("A", "final", guard="ok == 1")
        b.transition("A", "B", on="x")
        m = b.build()
        assert not is_always_completing(m.find_state("A"))
        assert analyze_completion(m).shadowed_transitions == ()

    def test_constant_true_guard_shadows(self):
        b = StateMachineBuilder("CT")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.completion("A", "final", guard="1 < 2")
        b.transition("A", "B", on="x")
        m = b.build()
        assert is_always_completing(m.find_state("A"))

    def test_complementary_guard_pair_shadows(self):
        b = StateMachineBuilder("Pair")
        b.attribute("v", 0)
        b.state("A")
        b.state("B")
        b.state("C")
        b.state("D")
        b.initial_to("A")
        b.completion("A", "B", guard="v > 0")
        b.completion("A", "C", guard="!(v > 0)")
        b.transition("A", "D", on="x")
        m = b.build()
        assert is_always_completing(m.find_state("A"))

    def test_running_composite_not_always_completing(self):
        # A composite with a live region completes only when the region
        # finishes; its event transitions stay live.
        b = StateMachineBuilder("RC")
        sub = b.composite("C")
        sub.state("C1")
        sub.initial_to("C1")
        sub.transition("C1", "final", on="fin")
        b.state("Out")
        b.initial_to("C")
        b.completion("C", "final")
        b.transition("C", "Out", on="leave")
        m = b.build()
        assert not is_always_completing(m.find_state("C"))

    def test_composite_without_initial_never_completes(self):
        # The interpreter never enters a region without an initial
        # pseudostate, so its composite never completes: the event
        # transition stays live and optimizing must keep it.
        from repro.optim import check_equivalence, optimize
        b = StateMachineBuilder("NI")
        sub = b.composite("C", entry=calls("enter_c"))
        sub.state("C1")
        b.state("D", entry=calls("enter_d"))
        b.state("Out", entry=calls("enter_out"))
        b.initial_to("C")
        b.completion("C", "D")
        b.transition("C", "Out", on="leave")
        m = b.build()
        assert not is_always_completing(m.find_state("C"))
        assert analyze_completion(m).shadowed_transitions == ()
        report = check_equivalence(m, optimize(m).optimized)
        assert report.equivalent, report.summary()

    def test_false_guard_transition_is_dead(self):
        b = StateMachineBuilder("FG")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="x", guard="1 > 2")
        b.transition("A", "final", on="y")
        info = analyze_reachability(b.build())
        assert "B" in info.unreachable_states


class TestDeadCodeReport:
    def test_flat_report_reason_no_incoming(self):
        report = find_dead_code(flat_machine_with_unreachable_state())
        (dead,) = report.dead_states
        assert dead.name == "S2"
        assert dead.reason is DeadReason.NO_INCOMING

    def test_hierarchical_report_counts_nested(self):
        report = find_dead_code(hierarchical_machine_with_shadowed_composite())
        composite = next(d for d in report.dead_states if d.name == "S3")
        assert composite.is_composite
        assert composite.nested_state_count == 3
        assert composite.reason is DeadReason.SHADOWED_BY_COMPLETION

    def test_unused_events_detected(self):
        report = find_dead_code(flat_machine_with_unreachable_state())
        assert report.unused_events == ("e2",)

    def test_summary_text(self):
        report = find_dead_code(flat_machine_with_unreachable_state())
        text = report.summary()
        assert "S2" in text and "no incoming" in text

    def test_clean_summary_text(self):
        b = StateMachineBuilder("C")
        b.state("A")
        b.initial_to("A")
        b.transition("A", "final", on="x")
        assert "clean" in find_dead_code(b.build()).summary()


class TestMetrics:
    def test_flat_metrics_match_paper_description(self):
        # "3 states, 2 pseudo states (initial and final states) and 5
        # transitions"
        m = measure_model(flat_machine_with_unreachable_state())
        assert m.total_states == 3
        assert m.pseudostates + m.final_states == 2
        assert m.transitions == 5

    def test_hierarchical_metrics(self):
        m = measure_model(hierarchical_machine_with_shadowed_composite())
        assert m.composite_states == 1
        assert m.simple_states == 5  # S1, S2, S31, S32, S33
        assert m.max_depth == 2
        assert m.completion_transitions >= 1

    def test_as_dict_round_trip_keys(self):
        m = measure_model(flat_machine_with_unreachable_state())
        d = m.as_dict()
        assert d["states"] == 3
        assert d["transitions"] == 5
