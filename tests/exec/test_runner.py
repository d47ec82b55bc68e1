"""The differential runner: one rule, typed errors, per-executor extras."""

import pytest

from repro.exec import (FleetExecutor, InterpreterExecutor, Observation,
                        VMExecutor, diff, observe)
from repro.uml import Region, StateMachineBuilder
from repro.vm import VmMetrics

REFERENCE = Observation(payloads=(("call", ("s1_entry", ())),), final=True)


@pytest.mark.parametrize("observed", [
    Observation(payloads=(("call", ("s3_entry", ())),), final=True),
    Observation(payloads=REFERENCE.payloads, final=False),
    Observation(payloads=REFERENCE.payloads, final=True, terminated=True),
], ids=["payloads", "final", "terminated"])
def test_each_field_alone_is_a_mismatch(observed):
    assert diff([REFERENCE], [REFERENCE]) == []
    assert [index for index, _ in diff([REFERENCE], [observed])] == [0]


def test_a_raise_on_either_side_is_a_mismatch():
    failed = Observation(error="VMError: boom")
    assert diff([REFERENCE], [failed]) == [
        (0, "executor raised: VMError: boom")]
    assert diff([failed], [REFERENCE]) == [
        (0, "reference raised: VMError: boom")]


def test_extras_ride_along_uncompared(flat_machine, hierarchical_machine):
    stimuli = [["e1", "e4"], ["e1", "e3"], []]
    reference = observe(InterpreterExecutor(), flat_machine, stimuli)
    compiled = observe(VMExecutor(), flat_machine, stimuli)
    assert diff(reference, compiled) == []
    assert [obs.extra for obs in reference] == [1, 1, 0]   # pool depth
    assert all(isinstance(obs.extra, VmMetrics) for obs in compiled)
    assert compiled[0].extra.events_dispatched == 2
    [wide] = observe(FleetExecutor(n_lanes=8), hierarchical_machine,
                     [["e1", "e2"]])
    assert wide.extra.disagreement is None
    assert wide.extra.fast_lane_events + wide.extra.scalar_lane_events \
        == 8 * 2


def test_run_error_is_observed_not_raised():
    b = StateMachineBuilder("Cycle")
    b.state("A")
    b.state("B")
    b.initial_to("A")
    b.completion("A", "B")
    b.completion("B", "A")
    [obs] = observe(InterpreterExecutor(), b.build(), [[]])
    assert obs.error.startswith("ExecutionError:")


def test_shape_rejection_is_unsupported_on_every_stimulus():
    # Cross-region transition: nested-switch documents it as unsupported.
    b = StateMachineBuilder("Cross")
    b.state("A")
    comp = b.composite("C")
    comp.state("X")
    comp.initial_to("X")
    b.initial_to("A")
    b.transition("A", "X", on="deep")
    b.transition("C", "A", on="out")
    observations = observe(VMExecutor("nested-switch"), b.build(),
                           [["deep"], ["out"]])
    assert len(observations) == 2
    assert all(obs.unsupported for obs in observations)


def two_top_regions():
    b = StateMachineBuilder("TwoTops")
    b.state("A")
    b.initial_to("A")
    b.transition("A", "final", on="e")
    machine = b.build()
    machine.add_region(Region("second"))
    return machine


def orthogonal_regions():
    b = StateMachineBuilder("Orthogonal")
    comp = b.composite("C")
    comp.state("X")
    comp.initial_to("X")
    b.initial_to("C")
    b.transition("C", "final", on="e")
    machine = b.build()
    machine.find_state("C").add_region(Region("second"))
    return machine


@pytest.mark.parametrize("build, reason", [
    (two_top_regions, "exactly one top region"),
    (orthogonal_regions, "orthogonal regions not supported"),
], ids=["two-top-regions", "orthogonal"])
def test_interpreter_shape_rejection_fails_every_load(build, reason):
    observations = observe(InterpreterExecutor(), build(), [["e"], []])
    assert len(observations) == 2
    for obs in observations:
        assert obs.error.startswith("load failed: ExecutionError: ")
        assert reason in obs.error
