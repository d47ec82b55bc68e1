"""Cache backends: memory/disk/tiered semantics, stats attribution,
schema stamping of fingerprints, thread-safe statistics."""

import itertools
import pickle
import threading

import pytest

import repro.schema
from repro.engine import (CompileCache, DiskBackend, ExperimentEngine,
                          MemoryBackend, TieredBackend, backend_from_spec,
                          compile_fingerprint)
from repro.engine.cache import CacheStats
from repro.compiler import OptLevel
from repro.experiments.models import flat_machine_with_unreachable_state
from repro.store import ArtifactStore


@pytest.fixture(scope="module")
def machine():
    return flat_machine_with_unreachable_state()


class TestMemoryBackend:
    def test_load_store(self):
        backend = MemoryBackend()
        backend.store("k", 1)
        assert backend.load("k") == (1, "memory")
        assert "k" in backend and len(backend) == 1
        backend.clear()
        with pytest.raises(KeyError):
            backend.load("k")


class TestDiskBackend:
    def test_load_store_persists(self, tmp_path):
        backend = DiskBackend(str(tmp_path / "store"))
        backend.store("k", {"v": 9})
        value, origin = backend.load("k")
        assert value == {"v": 9} and origin == "disk"
        again = DiskBackend(str(tmp_path / "store"))
        assert again.load("k")[0] == {"v": 9}

    def test_accepts_store_instance(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        backend = DiskBackend(store)
        backend.store("k", 5)
        assert store.load("k") == 5

    def test_unpicklable_value_degrades_to_uncached(self, tmp_path):
        backend = DiskBackend(str(tmp_path / "store"))
        backend.store("k", threading.Lock())      # unpicklable
        with pytest.raises(KeyError):
            backend.load("k")


class TestTieredBackend:
    def test_promotes_disk_hits_to_memory(self, tmp_path):
        disk = DiskBackend(str(tmp_path / "store"))
        disk.store("k", "value")
        tiered = TieredBackend(disk)
        value, origin = tiered.load("k")
        assert (value, origin) == ("value", "disk")
        value, origin = tiered.load("k")
        assert (value, origin) == ("value", "memory")

    def test_store_writes_both_tiers(self, tmp_path):
        tiered = TieredBackend(str(tmp_path / "store"))
        tiered.store("k", 7)
        assert tiered.memory.load("k")[0] == 7
        assert tiered.disk.load("k")[0] == 7
        assert len(tiered) == 1

    def test_clear_clears_both(self, tmp_path):
        tiered = TieredBackend(str(tmp_path / "store"))
        tiered.store("k", 7)
        tiered.clear()
        assert "k" not in tiered and len(tiered) == 0


class TestBackendFromSpec:
    def test_defaults(self, tmp_path):
        assert isinstance(backend_from_spec(), MemoryBackend)
        assert isinstance(backend_from_spec(cache_dir=str(tmp_path)),
                          TieredBackend)

    def test_explicit_specs(self, tmp_path):
        assert isinstance(backend_from_spec("memory"), MemoryBackend)
        assert isinstance(
            backend_from_spec("disk", cache_dir=str(tmp_path)),
            DiskBackend)
        assert isinstance(
            backend_from_spec("tiered", cache_dir=str(tmp_path)),
            TieredBackend)

    def test_disk_specs_need_a_directory(self):
        with pytest.raises(ValueError):
            backend_from_spec("disk")
        with pytest.raises(ValueError):
            backend_from_spec("nonsense")


class TestCacheOverBackends:
    def test_disk_cache_warm_across_cache_instances(self, tmp_path):
        calls = []

        def compute():
            calls.append(1)
            return "artifact"

        cold = CompileCache(DiskBackend(str(tmp_path / "store")))
        assert cold.get_or_compute("k", compute) == "artifact"
        warm = CompileCache(DiskBackend(str(tmp_path / "store")))
        assert warm.get_or_compute("k", compute) == "artifact"
        assert len(calls) == 1
        assert warm.stats.hits == 1 and warm.stats.disk_hits == 1

    def test_memory_hits_are_not_disk_hits(self):
        cache = CompileCache()
        cache.get_or_compute("k", lambda: 1)
        cache.get_or_compute("k", lambda: 1)
        assert cache.stats.hits == 1 and cache.stats.disk_hits == 0

    def test_engine_cache_dir_roundtrip(self, machine, tmp_path):
        cold = ExperimentEngine(cache_dir=str(tmp_path / "cache"))
        reference = cold.compile_machine(machine)
        warm = ExperimentEngine(cache_dir=str(tmp_path / "cache"))
        restored = warm.compile_machine(machine)
        assert restored.module.listing() == reference.module.listing()
        assert restored.total_size == reference.total_size
        assert warm.stats.disk_hits == 1 and warm.stats.misses == 0

    def test_compile_results_pickle_without_itertools(self, machine):
        """Python 3.12 deprecates pickling itertools objects (and tier-1
        turns the warning into an error), so nothing the disk tier
        stores may hold one."""
        result = ExperimentEngine().compile_machine(machine)
        assert b"itertools" not in pickle.dumps(result)
        for fn in result.program.functions.values():
            assert not any(isinstance(value, itertools.count)
                           for value in vars(fn).values())

    def test_engine_tiers_share_the_engine_backend(self, tmp_path):
        backend = MemoryBackend()
        engine = ExperimentEngine(backend=backend)
        assert engine.cache.backend is backend
        assert engine.units.backend is backend
        persistent = ExperimentEngine(cache_dir=str(tmp_path))
        assert isinstance(persistent.cache.backend, TieredBackend)
        assert persistent.units.backend is persistent.cache.backend

    @pytest.mark.parametrize("option", [{"cache_dir": "cache"},
                                        {"shards": 4},
                                        {"max_bytes": 1}],
                             ids=["cache_dir", "shards", "max_bytes"])
    def test_live_backend_rejects_spec_options(self, option):
        """These options configure a spec string; a live backend would
        silently drop them."""
        with pytest.raises(ValueError):
            ExperimentEngine(backend=MemoryBackend(), **option)

    def test_describe_names_the_backend(self, tmp_path):
        engine = ExperimentEngine(cache_dir=str(tmp_path))
        assert "backend=tiered" in engine.describe()
        assert "disk" in engine.stats.summary()


class TestSchemaStampedFingerprints:
    def test_fingerprint_changes_with_schema_version(self, machine,
                                                     monkeypatch):
        """The satellite fix: bumping the schema generation must change
        every key, so stale on-disk artifacts become misses."""
        before = compile_fingerprint(machine, "nested-switch", OptLevel.OS,
                                     None)
        monkeypatch.setattr(repro.schema, "SCHEMA_VERSION", 999)
        after = compile_fingerprint(machine, "nested-switch", OptLevel.OS,
                                    None)
        assert before != after

    def test_stale_schema_entries_miss_on_disk(self, machine, tmp_path,
                                               monkeypatch):
        cache_dir = str(tmp_path / "cache")
        old = ExperimentEngine(cache_dir=cache_dir)
        old.compile_machine(machine)
        monkeypatch.setattr(repro.schema, "SCHEMA_VERSION", 999)
        new = ExperimentEngine(cache_dir=cache_dir)
        new.compile_machine(machine)
        assert new.stats.misses == 1 and new.stats.disk_hits == 0


class TestThreadSafeStats:
    def test_concurrent_updates_are_not_lost(self):
        """The satellite fix: counters bumped from many worker threads
        must not under-count."""
        stats = CacheStats()
        n_threads, n_each = 8, 2500

        def bump():
            for i in range(n_each):
                if i % 2:
                    stats.record_hit("disk" if i % 4 == 1 else "memory")
                else:
                    stats.record_miss()

        threads = [threading.Thread(target=bump) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert stats.misses == n_threads * n_each // 2
        assert stats.hits == n_threads * n_each // 2
        assert stats.disk_hits == n_threads * n_each // 4
        assert stats.snapshot()["lookups"] == n_threads * n_each


class TestStoreFailureResilience:
    def test_backend_store_error_never_hangs_waiters(self):
        """A backend write blowing up mid-publish must still resolve
        the in-flight future and retire the key (review regression:
        waiters hung forever and the key was poisoned)."""

        class ExplodingBackend(MemoryBackend):
            def store(self, key, value):
                raise RuntimeError("disk on fire")

        cache = CompileCache(ExplodingBackend())
        barrier = threading.Event()
        waiter_result = []

        def compute():
            barrier.wait(5)
            return "computed"

        def waiter():
            waiter_result.append(cache.get_or_compute("k", lambda: "x"))

        owner = threading.Thread(
            target=lambda: pytest.raises(RuntimeError,
                                         cache.get_or_compute, "k",
                                         compute))
        owner.start()
        thread = threading.Thread(target=waiter)
        thread.start()
        barrier.set()
        owner.join(timeout=5)
        thread.join(timeout=5)
        assert not thread.is_alive(), "waiter hung on the future"
        assert waiter_result == ["computed"]
        # the key is not poisoned: a later lookup just recomputes
        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", lambda: "again")
