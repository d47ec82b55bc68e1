"""The differential runner: one rule, typed errors, per-executor extras,
and the prefix-trie walk that replays the interpreter."""

import pytest

from fuzz.test_semantics_soundness import CONFIGS, _config_id as config_id
from repro.exec import (FleetExecutor, InterpreterExecutor, Observation,
                        VMExecutor, diff, observe)
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.fuzz import DEFAULT_PROFILES, generate_case
from repro.optim.equivalence import make_scenarios
from repro.semantics import (EventPoolPolicy, MachineInstance,
                             SemanticsConfig, UnconsumedPolicy)
from repro.uml import Region, StateMachineBuilder, calls
from repro.vm import VmMetrics
from repro.vm.harness import CompiledProgram
from semantics.test_interpreter import (choice_machine, history_machine,
                                        internal_machine, terminate_machine)

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


# ---------------------------------------------------------------------------
# the prefix-trie walk
# ---------------------------------------------------------------------------

def replay_each(executor, machine, stimuli):
    """The per-stimulus reference: every stimulus on a fresh instance,
    with the runner's error handling."""
    out = []
    for stimulus in stimuli:
        instance = executor.load(machine)
        try:
            instance.run_scenario(stimulus)
        except executor.run_errors as exc:
            out.append(Observation.of(
                instance, error=f"{type(exc).__name__}: {exc}"))
        else:
            out.append(Observation.of(instance))
    return tuple(out)


def assert_walk_is_exact(executor, machine, stimuli):
    walked = observe(executor, machine, stimuli)
    reference = replay_each(executor, machine, stimuli)
    # Field by field: kinds and extra too, which diff() never compares.
    assert [vars(obs) for obs in walked] == [vars(obs) for obs in reference]
    return walked


@pytest.mark.parametrize("build", [
    choice_machine, lambda: choice_machine(v=0), history_machine,
    terminate_machine, internal_machine,
], ids=["choice-high", "choice-low", "history", "terminate", "internal"])
def test_walk_equals_per_stimulus_replay(build):
    machine = build()
    assert_walk_is_exact(InterpreterExecutor(), machine,
                         make_scenarios(machine))


def test_walk_equals_per_stimulus_replay_on_fig1():
    for machine in (flat_machine_with_unreachable_state(),
                    hierarchical_machine_with_shadowed_composite()):
        for semantics in CONFIGS:
            assert_walk_is_exact(InterpreterExecutor(semantics), machine,
                                 make_scenarios(machine))


@pytest.fixture(scope="module")
def generated_cases():
    return [generate_case(seed, profile)
            for profile in DEFAULT_PROFILES for seed in range(10)]


@pytest.mark.parametrize("semantics", CONFIGS, ids=config_id)
def test_walk_equals_per_stimulus_replay_on_generated_cases(
        semantics, generated_cases):
    executor = InterpreterExecutor(semantics)
    for case in generated_cases:
        assert_walk_is_exact(executor, case.machine, case.plain_stimuli())
        assert_walk_is_exact(executor, case.machine, make_scenarios(
            case.machine, exhaustive_depth=2, n_random=4, random_length=8))


@pytest.mark.parametrize("budget", [2, 3, 4])
def test_walk_equals_per_stimulus_replay_when_runs_raise(budget,
                                                         generated_cases):
    executor = InterpreterExecutor(SemanticsConfig(
        max_run_to_completion_steps=budget))
    errors = 0
    for case in generated_cases:
        walked = assert_walk_is_exact(executor, case.machine, make_scenarios(
            case.machine, exhaustive_depth=2, n_random=4, random_length=8))
        errors += sum(not obs.ok for obs in walked)
    assert errors


def cycle_below_go():
    """``go`` enters an unguarded completion cycle; ``tick`` is safe."""
    b = StateMachineBuilder("CycleBelowGo")
    b.state("A", entry="a_entry")
    b.state("B", entry="b_entry")
    b.state("C")
    b.initial_to("A")
    b.internal("A", on="tick", effect=calls("ticked"))
    b.transition("A", "B", on="go")
    b.completion("B", "C")
    b.completion("C", "B")
    return b.build()


def test_every_stimulus_below_a_raising_edge_observes_its_error():
    stimuli = [["go"], ["go", "tick"], ["go", "go", "tick"], ["tick", "go"],
               [], ["tick"], ["tick", "tick"]]
    executor = InterpreterExecutor(SemanticsConfig(
        max_run_to_completion_steps=50))
    walked = assert_walk_is_exact(executor, cycle_below_go(), stimuli)
    below_go = [obs for stimulus, obs in zip(stimuli, walked)
                if "go" in stimulus]
    assert all(obs.error.startswith("ExecutionError: run-to-completion "
                                    "step budget exceeded")
               for obs in below_go)
    assert below_go[0] == below_go[1] == below_go[2]
    assert below_go[0].payloads[0] == ("call", ("a_entry", ()))
    siblings = [obs for stimulus, obs in zip(stimuli, walked)
                if "go" not in stimulus]
    assert all(obs.ok for obs in siblings)
    assert [len(obs.payloads) for obs in siblings] == [1, 2, 3]


def count_calls(monkeypatch, owner, *names):
    """Count the calls to *owner*'s methods *names* from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(owner, name)

        def counted(self, *args, _name=name, _method=method, **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    return counts


def test_every_stimulus_below_a_terminating_edge_observes_the_end(
        monkeypatch):
    counts = count_calls(monkeypatch, MachineInstance, "dispatch")
    stimuli = [["die", "die", "die"], ["die"], [], ["die", "die"]]
    walked = assert_walk_is_exact(InterpreterExecutor(),
                                  terminate_machine(), stimuli)
    assert walked[0] == walked[1] == walked[3]
    assert walked[0].terminated and not walked[2].terminated
    # The walk dispatched ``die`` once; the reference once per stimulus.
    assert counts["dispatch"] == 1 + 3


def test_duplicate_stimuli_share_one_run(monkeypatch, flat_machine):
    counts = count_calls(monkeypatch, MachineInstance, "dispatch", "start")
    walked = observe(InterpreterExecutor(), flat_machine,
                     [["e1", "e4"], [], ["e1", "e4"], []])
    assert walked[0] == walked[2] and walked[1] == walked[3]
    assert counts == {"dispatch": 2, "start": 1}


def priority_machine():
    """Under the priority pool with deferral, the payloads of the two
    deferred events decide which one ``x`` recalls first."""
    b = StateMachineBuilder("Prio")
    b.state("A")
    b.state("B")
    b.initial_to("A")
    b.transition("A", "B", on="x")
    b.internal("B", on="e", effect=calls("saw_e"))
    b.internal("B", on="g", effect=calls("saw_g"))
    return b.build()


def test_one_name_with_two_payloads_is_two_edges():
    executor = InterpreterExecutor(SemanticsConfig(
        event_pool=EventPoolPolicy.PRIORITY,
        unconsumed_events=UnconsumedPolicy.DEFER))
    stimuli = [[("e", 0), ("g", 1), ("x", 0)],
               [("e", 1), ("g", 1), ("x", 0)]]
    low, high = assert_walk_is_exact(executor, priority_machine(), stimuli)
    assert [name for _, (name, _) in low.payloads] == ["saw_g", "saw_e"]
    assert [name for _, (name, _) in high.payloads] == ["saw_e", "saw_g"]


def test_no_stimuli_observe_nothing(flat_machine):
    assert observe(InterpreterExecutor(), flat_machine, []) == ()
    assert observe(InterpreterExecutor(), two_top_regions(), []) == ()


def test_walk_dispatches_each_trie_edge_once(monkeypatch):
    machine = hierarchical_machine_with_shadowed_composite()
    stimuli = make_scenarios(machine)
    assert (len(stimuli), sum(map(len, stimuli))) == (284, 1026)
    counts = count_calls(monkeypatch, MachineInstance, "dispatch", "start")
    observe(InterpreterExecutor(), machine, stimuli)
    assert counts == {"dispatch": 481, "start": 1}


def test_vm_replays_every_stimulus_on_a_fresh_instance(monkeypatch):
    machine = hierarchical_machine_with_shadowed_composite()
    stimuli = make_scenarios(machine)
    counts = count_calls(monkeypatch, CompiledProgram, "boot")
    observed = observe(VMExecutor(), machine, stimuli)
    assert counts == {"boot": 284}
    assert sum(obs.extra.events_dispatched for obs in observed) == 1026
