"""ArtifactStore: persistence, recovery, eviction, atomicity."""

import os

import pytest

from repro.obs.metrics import REGISTRY
from repro.store import ArtifactStore


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def counted(name):
    """The process-wide total of store counter *name*."""
    return REGISTRY.get(name).value()


class TestBasics:
    def test_put_get_roundtrip(self, store):
        store.put("k", {"v": [1, 2, 3]})
        assert store.load("k") == {"v": [1, 2, 3]}
        assert "k" in store and len(store) == 1

    def test_missing_key_raises(self, store):
        with pytest.raises(KeyError):
            store.load("absent")
        assert store.get("absent", "fallback") == "fallback"

    def test_overwrite_last_writer_wins(self, store):
        store.put("k", "old")
        store.put("k", "new")
        assert store.load("k") == "new"
        assert len(store) == 1

    def test_persists_across_handles(self, store):
        store.put("k", 42)
        reopened = ArtifactStore(store.root)
        assert reopened.load("k") == 42

    def test_keys_and_total_bytes(self, store):
        for i in range(5):
            store.put(f"key-{i}", i)
        assert store.keys() == [f"key-{i}" for i in range(5)]
        assert store.total_bytes() > 0

    def test_sharded_layout(self, store):
        """Entries live two levels deep: objects/<2 hex>/<62 hex>."""
        store.put("k", 1)
        path = store.path_for("k")
        assert path.exists()
        assert path.parent.parent.name == "objects"
        assert len(path.parent.name) == 2 and len(path.name) == 62

    def test_hostile_keys_stay_inside_objects(self, store):
        key = "../../../etc/passwd\x00weird key"
        store.put(key, "safe")
        assert store.load(key) == "safe"
        assert store.path_for(key).resolve().is_relative_to(
            store.root.resolve())

    def test_clear(self, store):
        store.put("a", 1)
        store.put("b", 2)
        store.clear()
        assert len(store) == 0
        assert store.get("a") is None


class TestRecovery:
    def test_corrupted_entry_is_dropped_and_missed(self, store):
        store.put("k", list(range(100)))
        path = store.path_for("k")
        data = path.read_bytes()
        path.write_bytes(data[:-5] + b"XXXXX")
        before = counted("store_corrupt_dropped_total")
        with pytest.raises(KeyError):
            store.load("k")
        assert not path.exists(), "corrupt entry must be deleted"
        assert counted("store_corrupt_dropped_total") == before + 1
        # the key is reusable afterwards
        store.put("k", "fresh")
        assert store.load("k") == "fresh"

    def test_truncated_entry_recovered(self, store):
        store.put("k", list(range(100)))
        path = store.path_for("k")
        path.write_bytes(path.read_bytes()[:20])
        assert store.get("k") is None
        assert not path.exists()

    def test_foreign_file_recovered(self, store):
        store.put("k", 1)
        path = store.path_for("k")
        path.write_bytes(b"not an entry at all")
        assert store.get("k") is None
        assert not path.exists()

    def test_fsck_drops_only_the_bad(self, store):
        for i in range(4):
            store.put(f"k{i}", i)
        bad = store.path_for("k2")
        bad.write_bytes(bad.read_bytes()[:-1])
        report = store.fsck()
        assert report.checked == 3 and report.dropped == 1
        assert not report.clean
        assert store.get("k2") is None
        assert store.load("k1") == 1
        assert store.fsck().clean


class TestEviction:
    def _sized_store(self, tmp_path, n=8):
        store = ArtifactStore(tmp_path / "gc-store")
        for i in range(n):
            store.put(f"k{i}", list(range(50)))
        return store

    def test_gc_respects_budget(self, tmp_path):
        store = self._sized_store(tmp_path)
        before = store.total_bytes()
        evicted = counted("store_evicted_total")
        report = store.gc(max_bytes=before // 2)
        assert store.total_bytes() <= before // 2
        assert report.dropped > 0 and report.bytes_after <= before // 2
        assert counted("store_evicted_total") == evicted + report.dropped

    def test_gc_is_lru(self, tmp_path):
        store = self._sized_store(tmp_path)
        # Touch k0/k1 (a verified read refreshes the LRU position).
        old = [store.path_for(f"k{i}") for i in range(2, 8)]
        for path in old:
            os.utime(path, (1, 1))          # force "long ago"
        store.load("k0")
        store.load("k1")
        entry_bytes = store.total_bytes() // 8
        store.gc(max_bytes=2 * entry_bytes)
        assert "k0" in store and "k1" in store
        assert all(store.get(f"k{i}") is None for i in range(2, 8))

    def test_gc_to_zero_empties(self, tmp_path):
        store = self._sized_store(tmp_path)
        store.gc(max_bytes=0)
        assert len(store) == 0

    def test_unbounded_gc_is_a_noop(self, tmp_path):
        store = self._sized_store(tmp_path)
        report = store.gc()                  # no budget configured
        assert report.dropped == 0 and len(store) == 8

    def test_put_triggers_auto_gc(self, tmp_path):
        store = ArtifactStore(tmp_path / "auto", max_bytes=600)
        for i in range(20):
            store.put(f"k{i}", list(range(50)))
        assert store.total_bytes() <= 600
        assert len(store) < 20


class TestAtomicity:
    def test_no_partial_files_after_put(self, store):
        store.put("k", list(range(1000)))
        tmp_dir = store.root / "tmp"
        assert list(tmp_dir.iterdir()) == [], "temp files must not leak"

    def test_failed_write_leaves_store_consistent(self, store, monkeypatch):
        store.put("k", "original")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            store.put("k", "replacement")
        monkeypatch.undo()
        assert store.load("k") == "original"
        assert list((store.root / "tmp").iterdir()) == []


class TestReviewRegressions:
    def test_fsck_keeps_long_key_entries(self, store):
        """Keys are arbitrary strings: a header line longer than any
        fixed read cap must still verify, enumerate and fsck clean."""
        long_key = "k" * 100_000
        store.put(long_key, "value")
        assert store.load(long_key) == "value"
        assert long_key in store.keys()
        report = store.fsck()
        assert report.clean and report.checked == 1
        assert store.load(long_key) == "value"

    def test_overwrites_do_not_inflate_the_byte_estimate(self, tmp_path):
        """Rewriting one key must not creep the running size estimate
        past the budget (which would cost a full-store gc per put)."""
        store = ArtifactStore(tmp_path / "rewrite", max_bytes=100_000)
        evicted = counted("store_evicted_total")
        for _ in range(300):
            store.put("same-key", list(range(100)))
        assert len(store) == 1
        assert counted("store_evicted_total") == evicted
        assert store._approx_bytes == store.total_bytes()
