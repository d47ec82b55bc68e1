"""Persistent, content-addressed artifact store.

The experiment engine's cache keys (:mod:`repro.engine.fingerprint`)
are stable across processes, so the results they address can outlive a
process: this package stores them on disk, content-addressed by
fingerprint, so every CLI invocation, CI job and service worker that
shares a ``--cache-dir`` shares one warm cache.

* :mod:`~repro.store.entry` — the on-disk entry codec: a JSON header
  (schema stamp, key, payload digest) followed by the pickled payload;
  any mismatch — truncation, bit rot, a stale schema generation —
  raises and the entry is treated as a miss;
* :mod:`~repro.store.artifact` — :class:`ArtifactStore`: two-level
  sharded object directories, atomic write-rename publication
  (``O_EXCL`` temp files, lockless reads), LRU metadata via entry
  mtimes, a ``gc(max_bytes)`` sweep, and corrupted-entry recovery;
* :mod:`~repro.store.sharding` — :class:`HashRing`, the consistent-hash
  assignment of fingerprints to store shards the compile cluster's
  :class:`~repro.engine.backends.ShardedBackend` routes through.

Safe for concurrent use from multiple processes: writers never publish
partial files, readers never block writers, and duplicate writers of
one key converge on equivalent content.
"""

from .artifact import ArtifactStore, GcReport
from .entry import (ENTRY_MAGIC, CorruptEntryError, EntryError,
                    SchemaMismatchError, decode_entry, encode_entry)
from .sharding import HashRing

__all__ = [
    "ArtifactStore", "GcReport", "HashRing",
    "ENTRY_MAGIC", "EntryError", "CorruptEntryError",
    "SchemaMismatchError", "encode_entry", "decode_entry",
]
