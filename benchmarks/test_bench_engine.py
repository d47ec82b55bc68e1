"""Engine benchmarks: cold compile, warm cache hit, a repeated grid.

These pin the engine's two performance claims so regressions are caught
by ``scripts/check_bench.py``:

* a warm cache hit must stay orders of magnitude cheaper than a cold
  compile (it is a fingerprint + dict lookup);
* a grid compiled with repeated jobs must cost about one unique-set,
  not one per job: the cache makes each repeat a hit.
"""

import pytest

from repro.codegen import ALL_PATTERNS
from repro.engine import ExperimentEngine
from repro.experiments.models import \
    hierarchical_machine_with_shadowed_composite


@pytest.fixture(scope="module")
def machine():
    return hierarchical_machine_with_shadowed_composite()


def test_bench_engine_cold_compile(benchmark, machine):
    result = benchmark(
        lambda: ExperimentEngine().compile_machine(machine))
    assert result.total_size > 0


def test_bench_engine_warm_hit(benchmark, machine):
    # 100 hits per round: a single hit is microseconds, too close to
    # timer resolution for the regression guard to compare reliably.
    engine = ExperimentEngine()
    engine.compile_machine(machine)

    def hundred_hits():
        for _ in range(100):
            result = engine.compile_machine(machine)
        return result

    result = benchmark(hundred_hits)
    assert result.total_size > 0
    assert engine.stats.hits >= 100


def test_bench_engine_batch_dedup(benchmark, machine):
    # Every pattern twice: the cache must compile each pattern once.
    patterns = [gen_cls.name for gen_cls in ALL_PATTERNS] * 2

    def run():
        engine = ExperimentEngine()
        results = [engine.compile_machine(machine, pattern)
                   for pattern in patterns]
        assert engine.stats.misses == len(ALL_PATTERNS)
        return results

    results = benchmark.pedantic(run, rounds=5, iterations=1)
    assert len(results) == len(patterns)


def test_warm_hit_is_much_cheaper_than_cold(machine):
    """Shape check (not a timing benchmark): a hit does no compilation."""
    engine = ExperimentEngine()
    cold = engine.compile_machine(machine)
    warm = engine.compile_machine(machine)
    assert warm is cold
    assert engine.stats.misses == 1 and engine.stats.hits == 1
