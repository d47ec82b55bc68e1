"""Cache backends: where a :class:`~repro.engine.cache.CompileCache`
keeps its completed values.

The cache's job — in-flight deduplication, statistics, the
``get_or_compute`` contract — is backend-independent; a
:class:`CacheBackend` only answers "do you hold *key*, and where from?"
Three implementations:

* :class:`MemoryBackend` — a plain dict; the seed behavior.  Fast,
  private to the process, gone at exit.
* :class:`DiskBackend` — a :class:`repro.store.ArtifactStore`; values
  survive the process and are shared by everything pointed at the same
  directory.  Store-level failures (a read-only disk, an unpicklable
  value) degrade to misses/skipped writes rather than failing the
  compile.
* :class:`TieredBackend` — memory over disk: reads probe memory first
  and *promote* disk hits, writes go to both.  This is what
  ``--cache-dir`` uses: hot keys at dict speed, cold starts served from
  disk.
* :class:`ShardedBackend` — consistent-hash routing over N child
  backends (one :class:`~repro.store.ArtifactStore` shard each in
  normal use).  Every key is owned by exactly one shard via a
  :class:`~repro.store.HashRing`, so adding or removing a shard moves
  only ~1/N of the key space and a warm multi-shard store farm stays
  warm across resizes.  The compile cluster's workers all build this
  backend from one :class:`~repro.engine.EngineSpec`, which is what
  makes their on-disk caches one coherent sharded store.

``load`` returns ``(value, origin)`` — ``origin`` is the tier that
served the hit (``"memory"`` or ``"disk"``), which is how
:class:`~repro.engine.cache.CacheStats` attributes disk hits.

Thread-safety contract: the owning cache's in-flight futures guarantee
at most one ``load``/``store`` *per key* at a time, but calls for
**distinct keys run concurrently** (backend I/O happens outside the
cache lock).  Both implementations satisfy that: dict get/set are
atomic in CPython, and :class:`~repro.store.ArtifactStore` is lockless
multi-process-concurrent by design.  A custom backend with non-atomic
internal bookkeeping must bring its own lock.
"""

from __future__ import annotations

import os
import pickle
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..store import ArtifactStore, HashRing

__all__ = ["CacheBackend", "MemoryBackend", "DiskBackend",
           "TieredBackend", "ShardedBackend", "backend_from_spec"]

ORIGIN_MEMORY = "memory"
ORIGIN_DISK = "disk"


class CacheBackend:
    """Value storage protocol behind :class:`CompileCache`."""

    name = "abstract"

    def load(self, key: str) -> Tuple[Any, str]:
        """Return ``(value, origin)``; raise :class:`KeyError` on miss."""
        raise KeyError(key)

    def store(self, key: str, value: Any) -> None:
        raise NotImplementedError

    def __contains__(self, key: str) -> bool:
        try:
            self.load(key)
        except KeyError:
            return False
        return True

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError


class MemoryBackend(CacheBackend):
    """In-process dict of values (the default)."""

    name = ORIGIN_MEMORY

    def __init__(self) -> None:
        self._values: Dict[str, Any] = {}

    def load(self, key: str) -> Tuple[Any, str]:
        return self._values[key], ORIGIN_MEMORY

    def store(self, key: str, value: Any) -> None:
        self._values[key] = value

    def store_if_absent(self, key: str, value: Any) -> bool:
        """Atomically publish *value* unless *key* is already present;
        True when this call did the publishing (``dict.setdefault`` is
        atomic in CPython, so concurrent promoters agree on a single
        winner)."""
        return self._values.setdefault(key, value) is value

    def keys(self) -> Tuple[str, ...]:
        """Snapshot of the held keys (safe against concurrent stores)."""
        return tuple(self._values)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()


class DiskBackend(CacheBackend):
    """Values in a persistent :class:`~repro.store.ArtifactStore`.

    Accepts a store or a directory path.  I/O and serialization
    problems never propagate into the compile path: a failed read is a
    miss, and a failed write leaves the key uncached.
    """

    name = ORIGIN_DISK

    def __init__(self, store: "Union[ArtifactStore, str]",
                 max_bytes: Optional[int] = None) -> None:
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store, max_bytes=max_bytes)
        self.store_dir = store

    def load(self, key: str) -> Tuple[Any, str]:
        return self.store_dir.load(key), ORIGIN_DISK

    def store(self, key: str, value: Any) -> None:
        try:
            self.store_dir.put(key, value)
        except (OSError, pickle.PickleError, TypeError, AttributeError):
            pass                     # cache write failure != compile failure

    def __contains__(self, key: str) -> bool:
        return key in self.store_dir

    def __len__(self) -> int:
        return len(self.store_dir)

    def clear(self) -> None:
        self.store_dir.clear()


class TieredBackend(CacheBackend):
    """Memory over disk: probe fast tier first, promote disk hits.

    The slow tier is any :class:`CacheBackend` (a plain
    :class:`DiskBackend`, or a :class:`ShardedBackend` spanning several
    store shards); paths and stores are wrapped in a
    :class:`DiskBackend` for convenience.
    """

    name = "tiered"

    def __init__(self, disk: "Union[CacheBackend, ArtifactStore, str]"
                 ) -> None:
        if not isinstance(disk, CacheBackend):
            disk = DiskBackend(disk)
        self.memory = MemoryBackend()
        self.disk = disk

    def load(self, key: str) -> Tuple[Any, str]:
        try:
            return self.memory.load(key)
        except KeyError:
            pass
        value, _ = self.disk.load(key)
        # Promote for repeat lookups.  Exactly one concurrent promoter
        # of a key wins, and only the winner reports a disk-origin hit,
        # so disk-hit counts stay deterministic when threads share it;
        # losers serve the promoted object like any later lookup.
        if self.memory.store_if_absent(key, value):
            return value, ORIGIN_DISK
        return self.memory.load(key)

    def store(self, key: str, value: Any) -> None:
        self.memory.store(key, value)
        self.disk.store(key, value)

    def __contains__(self, key: str) -> bool:
        return key in self.memory or key in self.disk

    def __len__(self) -> int:
        """Distinct keys across both tiers (memory is a disk subset in
        normal use, but the tiers may be seeded independently)."""
        extra = sum(1 for key in self.memory.keys()
                    if key not in self.disk)
        return len(self.disk) + extra

    def clear(self) -> None:
        self.memory.clear()
        self.disk.clear()


class ShardedBackend(CacheBackend):
    """Consistent-hash routing over N child backends.

    Every key is owned by exactly one shard
    (:meth:`~repro.store.HashRing.lookup` of its fingerprint), so
    concurrent cluster workers that build equal shard sets agree on
    placement without coordination, and resizing the shard set moves
    only ~1/N of the keys.  Reads and writes delegate to the owning
    shard; the reported hit origin is the child's, so disk-hit
    accounting is unchanged.
    """

    name = "sharded"

    def __init__(self, shards: "Sequence[Tuple[str, CacheBackend]]",
                 replicas: int = 64) -> None:
        self.shards: Dict[str, CacheBackend] = dict(shards)
        if len(self.shards) != len(shards):
            raise ValueError("shard names must be unique")
        self.ring = HashRing(self.shards, replicas=replicas)

    @classmethod
    def over_directory(cls, root: str, n_shards: int,
                       max_bytes: Optional[int] = None,
                       replicas: int = 64) -> "ShardedBackend":
        """N :class:`DiskBackend` shards under ``root/shard-XX``.

        A byte budget is split evenly across shards — consistent
        hashing balances key placement, so per-shard budgets
        approximate a whole-store budget without cross-shard GC
        coordination.
        """
        if n_shards < 1:
            raise ValueError("need at least one shard")
        per_shard = None if max_bytes is None else \
            max(1, max_bytes // n_shards)
        shards = [
            (f"shard-{i:02d}",
             DiskBackend(os.path.join(root, f"shard-{i:02d}"),
                         max_bytes=per_shard))
            for i in range(n_shards)
        ]
        return cls(shards, replicas=replicas)

    def shard_for(self, key: str) -> str:
        """Name of the shard owning *key*."""
        return self.ring.lookup(key)

    def load(self, key: str) -> Tuple[Any, str]:
        return self.shards[self.ring.lookup(key)].load(key)

    def store(self, key: str, value: Any) -> None:
        self.shards[self.ring.lookup(key)].store(key, value)

    def __contains__(self, key: str) -> bool:
        return key in self.shards[self.ring.lookup(key)]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards.values())

    def clear(self) -> None:
        for shard in self.shards.values():
            shard.clear()

    def shard_sizes(self) -> Dict[str, int]:
        """``{shard name: entry count}`` — the metrics endpoint's view
        of placement balance."""
        return {name: len(shard)
                for name, shard in sorted(self.shards.items())}


def backend_from_spec(spec: Optional[str] = None,
                      cache_dir: Optional[str] = None,
                      max_bytes: Optional[int] = None,
                      shards: int = 1) -> CacheBackend:
    """Build a backend from CLI-ish knobs.

    *spec* is ``"memory"`` | ``"disk"`` | ``"tiered"`` (default:
    ``"tiered"`` when *cache_dir* is given, else ``"memory"``).  The
    disk-backed specs require *cache_dir*.  ``shards > 1`` splits the
    disk tier into that many consistent-hash-routed
    :class:`~repro.store.ArtifactStore` shards under *cache_dir*.
    """
    if spec is None:
        spec = "tiered" if cache_dir else "memory"
    shards = int(shards)
    if spec == "memory":
        if shards > 1:
            raise ValueError("sharding needs a disk-backed backend "
                             "(memory caches are per-process)")
        return MemoryBackend()
    if spec in ("disk", "tiered"):
        if not cache_dir:
            raise ValueError(f"backend {spec!r} needs a cache directory")
        if shards > 1:
            disk: CacheBackend = ShardedBackend.over_directory(
                cache_dir, shards, max_bytes=max_bytes)
        else:
            disk = DiskBackend(cache_dir, max_bytes=max_bytes)
        if spec == "disk":
            return disk
        return TieredBackend(disk)
    raise ValueError(f"unknown cache backend {spec!r} "
                     "(expected memory, disk or tiered)")
