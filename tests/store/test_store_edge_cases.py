"""Store/backend edge cases the fuzzer's corpus and cache rely on:
deterministic LRU tie-breaking, recovery from torn writes, and
degraded-but-correct behavior on an unwritable cache directory."""

import os
import time

import pytest

from repro.engine import ExperimentEngine
from repro.engine.backends import DiskBackend, TieredBackend
from repro.obs.metrics import REGISTRY
from repro.store import ArtifactStore
from repro.store.artifact import ArtifactStore as _Store


class TestGcMtimeTieBreak:
    def test_equal_mtimes_drop_in_path_name_order(self, tmp_store):
        keys = [f"k{i}" for i in range(6)]
        for key in keys:
            tmp_store.put(key, "x" * 50)
        # Force one identical mtime everywhere: LRU has no signal left,
        # so eviction must fall back to a deterministic order (file
        # name), not dict/iteration luck.
        stamp = time.time() - 100
        paths = {key: tmp_store.path_for(key) for key in keys}
        for path in paths.values():
            os.utime(path, (stamp, stamp))
        survivor_budget = sum(
            paths[key].stat().st_size for key in keys) // 2
        report = tmp_store.gc(survivor_budget)
        assert report.dropped > 0
        survivors = {key for key in keys if key in tmp_store}
        # The dropped set must be exactly the name-order prefix.
        by_name = sorted(keys, key=lambda k: paths[k].name)
        expected_dropped = set(by_name[:report.dropped])
        assert survivors == set(keys) - expected_dropped

    def test_tie_break_is_stable_across_stores(self, tmp_path):
        """Two directories with the same keys and one shared mtime gc
        down to the same survivor set."""
        survivor_sets = []
        for sub in ("a", "b"):
            store = ArtifactStore(tmp_path / sub)
            for i in range(5):
                store.put(f"key-{i}", list(range(20)))
            stamp = time.time() - 50
            for i in range(5):
                path = store.path_for(f"key-{i}")
                os.utime(path, (stamp, stamp))
            store.gc(store.total_bytes() // 2)
            survivor_sets.append(
                {f"key-{i}" for i in range(5)
                 if f"key-{i}" in store})
        assert survivor_sets[0] == survivor_sets[1]


class TestFsckAfterTornWrite:
    def test_truncated_payload_is_dropped_and_recoverable(self,
                                                          tmp_store):
        tmp_store.put("good", {"v": 1})
        tmp_store.put("torn", {"v": 2})
        path = tmp_store.path_for("torn")
        data = path.read_bytes()
        # Simulate a torn write: header intact, payload cut mid-way.
        path.write_bytes(data[:len(data) - 7])
        report = tmp_store.fsck()
        assert report.dropped == 1
        assert str(path) in report.dropped_paths
        assert report.checked == 1
        assert not report.clean
        # The store keeps working: miss on the torn key, hit on the
        # good one, and a re-put heals it.
        assert tmp_store.get("torn") is None
        assert tmp_store.load("good") == {"v": 1}
        tmp_store.put("torn", {"v": 3})
        assert tmp_store.load("torn") == {"v": 3}
        assert tmp_store.fsck().clean

    def test_truncated_header_line_is_dropped(self, tmp_store):
        tmp_store.put("k", "value")
        path = tmp_store.path_for("k")
        path.write_bytes(path.read_bytes()[:5])   # no newline survives
        report = tmp_store.fsck()
        assert report.dropped == 1
        assert len(tmp_store) == 0

    def test_load_drops_torn_entry_on_sight(self, tmp_store):
        tmp_store.put("k", [1, 2, 3])
        path = tmp_store.path_for("k")
        path.write_bytes(path.read_bytes()[:-1])
        before = REGISTRY.get("store_corrupt_dropped_total").value()
        with pytest.raises(KeyError):
            tmp_store.load("k")
        assert REGISTRY.get("store_corrupt_dropped_total").value() == \
            before + 1
        assert not path.exists()


class _ReadOnlyStore(_Store):
    """An ArtifactStore whose directory went read-only after creation
    (fault injection: chmod is unreliable under root, so ``put`` raises
    the same ``OSError`` the filesystem would)."""

    def put(self, key, value):
        raise OSError(30, "Read-only file system")


class TestReadOnlyCacheDir:
    def _read_only_backend(self, tmp_path):
        store = _ReadOnlyStore(tmp_path / "ro")
        return DiskBackend(store)

    def test_disk_backend_degrades_to_miss_not_crash(self, tmp_path):
        backend = self._read_only_backend(tmp_path)
        backend.store("k", "v")          # swallowed, not raised
        assert "k" not in backend
        with pytest.raises(KeyError):
            backend.load("k")

    def test_engine_still_compiles_on_read_only_store(self, tmp_path,
                                                      flat_machine):
        backend = TieredBackend(self._read_only_backend(tmp_path))
        engine = ExperimentEngine(backend=backend)
        result = engine.compile_machine(flat_machine,
                                        pattern="flat-switch")
        assert result.total_size > 0
        # Second call: served from the memory tier (the disk write
        # failed silently, the memory tier still holds the value).
        again = engine.compile_machine(flat_machine,
                                       pattern="flat-switch")
        assert again is result
        assert engine.stats.hits == 1

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root ignores directory permissions")
    def test_real_chmod_read_only_directory(self, tmp_path,
                                            flat_machine):
        root = tmp_path / "ro-real"
        store = ArtifactStore(root)
        for sub in (root, root / "objects", root / "tmp"):
            os.chmod(sub, 0o555)
        try:
            backend = TieredBackend(DiskBackend(store))
            engine = ExperimentEngine(backend=backend)
            result = engine.compile_machine(flat_machine,
                                            pattern="flat-switch")
            assert result.total_size > 0
        finally:
            for sub in (root, root / "objects", root / "tmp"):
                os.chmod(sub, 0o755)
