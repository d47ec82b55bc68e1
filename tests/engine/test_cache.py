"""CompileCache correctness: miss -> hit, stats, concurrency dedup."""

import threading

import pytest

from repro.codegen import generator_by_name
from repro.compiler import OptLevel, compile_unit
from repro.engine import CompileCache, ExperimentEngine
from repro.experiments.models import \
    hierarchical_machine_with_shadowed_composite
from repro.semantics import SemanticsConfig


class TestCompileCache:
    def test_miss_then_hit(self):
        cache = CompileCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_compute("k", lambda: calls.append(1) or 99) == 41
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.snapshot()["hit_rate"] == 0.5

    def test_clear_forgets_values_keeps_stats(self):
        cache = CompileCache()
        cache.get_or_compute("k", lambda: 1)
        cache.clear()
        assert cache.get_or_compute("k", lambda: 2) == 2
        assert cache.stats.misses == 2

    def test_failed_compute_is_not_cached(self):
        cache = CompileCache()

        def boom():
            raise ValueError("transient")

        with pytest.raises(ValueError):
            cache.get_or_compute("k", boom)
        assert cache.get_or_compute("k", lambda: "ok") == "ok"

    def test_concurrent_callers_compute_once(self):
        cache = CompileCache()
        gate = threading.Event()
        calls = []

        def slow():
            gate.wait(5)
            calls.append(1)
            return "value"

        results = []
        threads = [threading.Thread(
            target=lambda: results.append(
                cache.get_or_compute("k", slow))) for _ in range(4)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert results == ["value"] * 4
        assert len(calls) == 1
        assert cache.stats.misses == 1 and cache.stats.hits == 3


class TestEngineCacheKeys:
    """Engine-level: a hit needs *every* key component to match."""

    @pytest.fixture(scope="class")
    def machine(self):
        return hierarchical_machine_with_shadowed_composite()

    def test_identical_job_hits(self, machine):
        eng = ExperimentEngine()
        first = eng.compile_machine(machine, "nested-switch")
        again = eng.compile_machine(machine, "nested-switch")
        assert again is first  # same cached object, not a recompute
        assert eng.stats.hits == 1 and eng.stats.misses == 1

    def test_each_component_misses(self, machine):
        eng = ExperimentEngine()
        eng.compile_machine(machine, "nested-switch", OptLevel.OS,
                            target="rt32")
        variants = [
            dict(pattern="state-table"),
            dict(level=OptLevel.O0),
            dict(target="rt16"),
            dict(semantics=SemanticsConfig(completion_priority=False)),
        ]
        for overrides in variants:
            kwargs = dict(pattern="nested-switch", level=OptLevel.OS,
                          target="rt32")
            kwargs.update(overrides)
            eng.compile_machine(machine, **kwargs)
        assert eng.stats.misses == 1 + len(variants)
        assert eng.stats.hits == 0

    def test_cached_result_matches_direct_pipeline(self, machine):
        eng = ExperimentEngine()
        cached = eng.compile_machine(machine, "state-table")
        direct = compile_unit(
            generator_by_name("state-table").generate(machine),
            OptLevel.OS)
        assert cached.total_size == direct.total_size
        assert cached.module.listing() == direct.module.listing()

    def test_one_engine_serves_every_caller(self, machine):
        """Callers share work by sharing the engine: an equal machine
        rebuilt by another caller, through another entry point, hits."""
        eng = ExperimentEngine()
        eng.compile_machine(machine)
        eng.run_pipeline(hierarchical_machine_with_shadowed_composite(),
                         optimize_model=False)
        assert eng.stats.hits == 1 and eng.stats.misses == 1


class TestStatsSnapshot:
    def test_snapshot_shape(self):
        cache = CompileCache(name="unit-test")
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 2)
        snap = cache.stats.snapshot()
        assert snap == {"hits": 1, "misses": 1, "disk_hits": 0,
                        "lookups": 2, "hit_rate": 0.5}

    def test_snapshot_is_torn_read_free(self):
        """hits + misses must always equal lookups inside one snapshot,
        even while other threads are recording — the whole point of
        taking every counter under a single lock acquisition."""
        cache = CompileCache()
        stop = threading.Event()

        def pound():
            key = 0
            while not stop.is_set():
                cache.get_or_compute(key % 4, lambda: key)
                key += 1

        writers = [threading.Thread(target=pound) for _ in range(3)]
        for w in writers:
            w.start()
        try:
            for _ in range(2000):
                snap = cache.stats.snapshot()
                assert snap["hits"] + snap["misses"] == snap["lookups"]
                expected = snap["hits"] / snap["lookups"] \
                    if snap["lookups"] else 0.0
                assert snap["hit_rate"] == expected
        finally:
            stop.set()
            for w in writers:
                w.join()

    def test_named_cache_publishes_into_the_registry(self):
        from repro.obs.metrics import REGISTRY
        hits = REGISTRY.counter("engine_cache_hits_total")
        misses = REGISTRY.counter("engine_cache_misses_total")
        base_h = hits.value(cache="reg-probe", origin="memory")
        base_m = misses.value(cache="reg-probe")
        cache = CompileCache(name="reg-probe")
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 2)
        assert misses.value(cache="reg-probe") == base_m + 1
        assert hits.value(cache="reg-probe", origin="memory") == base_h + 1
