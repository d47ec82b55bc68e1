"""Model optimization is sound under every semantic variation point.

The paper fixes one execution semantics before optimizing, and the
optimizer's passes take that choice as a parameter, so each of the 24
combinations of :class:`~repro.semantics.SemanticsConfig` variation
points is its own soundness claim.  The oracle compares the reference
interpreter with the model optimizer's output on generated cases of
every profile; the VM and fleet cells stay off because the generated
runtimes implement the UML defaults only.
"""

import itertools

import pytest

from repro.fuzz import (DEFAULT_PROFILES, DifferentialOracle, OracleConfig,
                        generate_case)
from repro.semantics import (ConflictPolicy, EventPoolPolicy,
                             SemanticsConfig, UnconsumedPolicy)

CONFIGS = [SemanticsConfig(event_pool=pool, unconsumed_events=unconsumed,
                           conflict_resolution=conflict,
                           completion_priority=priority)
           for pool, unconsumed, conflict, priority in itertools.product(
               EventPoolPolicy, UnconsumedPolicy, ConflictPolicy,
               (True, False))]


def _config_id(semantics: SemanticsConfig) -> str:
    return (f"{semantics.event_pool.value}-"
            f"{semantics.unconsumed_events.value}-"
            f"{semantics.conflict_resolution.value}-"
            f"priority={semantics.completion_priority}")


@pytest.fixture(scope="module")
def cases():
    return [generate_case(seed, profile)
            for profile in DEFAULT_PROFILES for seed in range(10)]


@pytest.mark.fuzz
@pytest.mark.parametrize("semantics", CONFIGS, ids=_config_id)
def test_model_optimization_is_sound(semantics, cases, memory_engine):
    oracle = DifferentialOracle(
        engine=memory_engine,
        config=OracleConfig(patterns=(), check_fleet=False),
        semantics=semantics)
    diverged = [result.summary() for result in map(oracle.run_case, cases)
                if result.diverged]
    assert not diverged, diverged[0]
