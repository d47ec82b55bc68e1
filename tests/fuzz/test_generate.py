"""Generator properties: validity, determinism, feature coverage."""

import random

import pytest

from repro.exec import InterpreterExecutor, run_scenario
from repro.fuzz import (DEFAULT_PROFILES, FuzzProfile, generate_case,
                        random_machine, random_stimulus)
from repro.fuzz.generate import _int_expr
from repro.semantics.runtime import ExecutionError
from repro.uml import called_functions, check_machine
from repro.uml.actions import CallExpr


def _profile(name):
    for profile in DEFAULT_PROFILES:
        if profile.name == name:
            return profile
    raise KeyError(name)


class TestRandomMachine:
    @pytest.mark.parametrize("profile", DEFAULT_PROFILES,
                             ids=lambda p: p.name)
    def test_always_validates(self, profile):
        for seed in range(40):
            case = generate_case(seed, profile)
            assert check_machine(case.machine) == []

    def test_deterministic_per_seed(self):
        profile = _profile("hierarchical")
        a = generate_case(1234, profile)
        b = generate_case(1234, profile)
        assert a.case_id == b.case_id
        assert a.stimuli == b.stimuli
        c = generate_case(1235, profile)
        assert c.case_id != a.case_id

    def test_feature_mix_is_reached(self):
        """Across a modest seed range, the fleet exercises the features
        the ISSUE names: composites, guards with calls, duplicates,
        dead structure, degenerate shapes, deep chords."""
        seen = set()
        for profile in DEFAULT_PROFILES:
            for seed in range(60):
                seen.update(generate_case(seed, profile).features)
        for wanted in ("composite", "guard", "guard-call",
                       "duplicate-transition", "dead-state",
                       "dead-region", "chord", "cross-region", "shadow",
                       "self-loop", "to-final", "internal",
                       "event-reuse"):
            assert wanted in seen, f"feature {wanted!r} never generated"
        assert any(f.startswith("degenerate:") for f in seen)

    def test_machines_mostly_executable(self):
        """The reference must be able to run the large majority of
        cases (rejections are allowed, silence is not)."""
        runnable = total = 0
        for profile in DEFAULT_PROFILES:
            for seed in range(25):
                case = generate_case(seed, profile)
                for stimulus in case.stimuli:
                    total += 1
                    try:
                        run_scenario(InterpreterExecutor(), case.machine,
                                     stimulus.names)
                        runnable += 1
                    except ExecutionError:
                        pass
        assert runnable / total > 0.9

    def test_expressions_avoid_division(self):
        rng = random.Random(7)
        for _ in range(200):
            expr = _int_expr(rng, ("ax", "bx"), allow_call=True, depth=3)
            for node in expr.walk():
                op = getattr(node, "op", None)
                assert op not in ("/", "%")

    def test_guard_calls_only_known_operations(self):
        profile = _profile("guard-heavy")
        for seed in range(30):
            case = generate_case(seed, profile)
            ops = set(case.machine.context.operations)
            for tr in case.machine.all_transitions():
                if tr.guard is not None:
                    assert called_functions(tr.guard) <= ops


class TestRandomStimulus:
    def test_payloads_and_unknown_events(self):
        rng = random.Random(3)
        profile = FuzzProfile("t", p_unknown_event=0.5)
        alphabet = ("ev1", "ev2")
        names, payloads = set(), set()
        for _ in range(50):
            stimulus = random_stimulus(rng, alphabet, profile)
            names.update(stimulus.names)
            payloads.update(p for _, p in stimulus.events)
        assert any(n.startswith("zz") for n in names)
        assert names & set(alphabet)
        assert len(payloads) > 1

    def test_empty_alphabet_yields_unknown_only(self):
        rng = random.Random(4)
        profile = FuzzProfile("t")
        stimulus = random_stimulus(rng, (), profile, max_length=12)
        assert all(n.startswith("zz") for n in stimulus.names)
