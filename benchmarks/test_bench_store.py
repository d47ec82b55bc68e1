"""Store benchmarks: artifact round-trips and warm-from-disk compiles.

These pin the persistence layer's performance claims for
``scripts/check_bench.py``:

* a store round-trip (encode + atomic publish + verified read) must
  stay cheap relative to a compile;
* a *warm-from-disk* compile — fresh process in real life, modeled
  here as a fresh cache over a populated store — must stay far cheaper
  than the cold compile it replaces (that gap is the whole point of
  ``--cache-dir``).
"""

import pytest

from repro.engine import DiskBackend, ExperimentEngine
from repro.experiments.models import \
    hierarchical_machine_with_shadowed_composite
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def machine():
    return hierarchical_machine_with_shadowed_composite()


@pytest.fixture(scope="module")
def compiled(machine):
    return ExperimentEngine().compile_machine(machine)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "bench-store")


def test_bench_store_roundtrip(benchmark, store, compiled):
    # One full artifact cycle: pickle + hash + O_EXCL publish, then a
    # verified (re-hashed) read of a real CompileResult.
    def roundtrip():
        store.put("bench-key", compiled)
        return store.load("bench-key")

    result = benchmark(roundtrip)
    assert result.total_size == compiled.total_size


def test_bench_store_verified_reads(benchmark, store, compiled):
    # 10 reads per round: loads dominate the warm path, so their
    # verification cost (hash over the payload) is what to watch.
    store.put("bench-key", compiled)

    def ten_reads():
        for _ in range(10):
            value = store.load("bench-key")
        return value

    result = benchmark(ten_reads)
    assert result.total_size == compiled.total_size


def test_bench_warm_from_disk_compile(benchmark, tmp_path, machine):
    # A fresh engine per round models a new process arriving at a
    # populated --cache-dir: fingerprint + disk read, no compilation.
    store = ArtifactStore(tmp_path / "warm-store")
    seed_engine = ExperimentEngine(backend=DiskBackend(store))
    seed_engine.compile_machine(machine)
    # The store holds the whole-module artifact plus one artifact per
    # compilation unit (the delta tier shares the module cache's
    # backend); the warm path below reads only the module entry.
    assert len(store) == 1 + seed_engine.unit_stats.misses

    def warm_process_compile():
        engine = ExperimentEngine(backend=DiskBackend(store))
        result = engine.compile_machine(machine)
        assert engine.stats.disk_hits == 1
        return result

    result = benchmark(warm_process_compile)
    assert result.total_size > 0
