""":class:`ArtifactStore` — the on-disk half of the compile cache.

Layout (all under one *root* directory, safe to share between
processes)::

    root/
      objects/ab/cdef0123...   one entry file per key (two-level shard
                               by the first byte of the key address)
      tmp/                     O_EXCL scratch files, renamed into place

Concurrency model — the classic content-addressed-store discipline:

* **writers** serialize into a fresh ``O_EXCL`` temp file and publish
  with ``os.replace`` — atomic on POSIX, so readers observe either the
  old entry, the new entry, or no entry, never a partial file;
* **readers** take no locks: they read whole files and verify the
  embedded digest (:mod:`repro.store.entry`), so a reader that loses a
  race with a writer still gets a consistent artifact;
* duplicate writers of one key are harmless: both hold equivalent
  content (keys are content fingerprints) and the last rename wins.

Eviction is LRU over entry **mtimes**: every verified read touches the
entry, ``gc(max_bytes)`` drops the least-recently-used entries until
the store fits the budget.  Any entry that fails verification — stale
schema generation, truncation, bit rot — is deleted on sight and
reported as a miss (corrupted-entry recovery).

The process :data:`~repro.obs.metrics.REGISTRY` counts what the stores
drop: ``store_corrupt_dropped_total`` (entries that failed
verification on read) and ``store_evicted_total`` (entries ``gc``
evicted).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

from ..obs.metrics import REGISTRY
from ..obs.trace import span as _span
from .entry import EntryError, decode_entry, encode_entry

__all__ = ["ArtifactStore", "GcReport", "FsckReport"]

#: Stray temp files older than this are reaped by ``gc``/``fsck`` —
#: generous enough that no live writer is ever this old.
_TMP_MAX_AGE_SECONDS = 3600.0

_CORRUPT_DROPPED = REGISTRY.counter(
    "store_corrupt_dropped_total",
    "store entries dropped because they failed verification on read")
_EVICTED = REGISTRY.counter("store_evicted_total",
                            "store entries evicted by gc")


@dataclass
class GcReport:
    """Outcome of one ``gc`` sweep."""

    scanned: int = 0
    dropped: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    def summary(self) -> str:
        return (f"gc: {self.dropped}/{self.scanned} entries dropped "
                f"({self.bytes_before} -> {self.bytes_after} bytes)")


@dataclass
class FsckReport:
    """Outcome of one full-store verification pass."""

    checked: int = 0
    dropped: int = 0
    dropped_paths: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.dropped == 0


class ArtifactStore:
    """Content-addressed artifact files under *root*.

    *max_bytes*, when given, bounds the store: every :meth:`put` that
    pushes the total past the budget triggers an LRU :meth:`gc` sweep.
    Keys are arbitrary strings (the engine passes fingerprint digests);
    the file address is the SHA-256 of the key, so hostile or oversized
    keys cannot escape the object directory.
    """

    def __init__(self, root: "os.PathLike[str] | str",
                 max_bytes: Optional[int] = None) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)
        #: Running estimate of entry bytes, so a bounded put is O(1)
        #: instead of rescanning the tree; None until first needed.
        #: Drifts when other processes write — gc() rescans and resyncs.
        self._approx_bytes: Optional[int] = None

    # -- addressing ---------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Entry file of *key* (whether or not it exists)."""
        address = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self._objects / address[:2] / address[2:]

    # -- primitives ---------------------------------------------------------

    def load(self, key: str) -> Any:
        """Verified value of *key*; :class:`KeyError` on miss.

        A present-but-invalid entry (stale schema, corruption) is
        deleted and reported as a miss.  A verified read refreshes the
        entry's LRU position.
        """
        sp = _span("store.read")
        with sp:
            path = self.path_for(key)
            try:
                data = path.read_bytes()
            except OSError:
                if sp.recording:
                    sp.set(outcome="miss")
                raise KeyError(key) from None
            try:
                value = decode_entry(key, data)
            except EntryError:
                self._drop(path)
                _CORRUPT_DROPPED.inc()
                if sp.recording:
                    sp.set(outcome="corrupt")
                raise KeyError(key) from None
            try:
                os.utime(path)          # LRU touch; entry may be racing gc
            except OSError:
                pass
            if sp.recording:
                sp.set(outcome="hit", bytes=len(data))
            return value

    def get(self, key: str, default: Any = None) -> Any:
        try:
            return self.load(key)
        except KeyError:
            return default

    def put(self, key: str, value: Any) -> None:
        """Publish *value* under *key* (atomic, last writer wins)."""
        sp = _span("store.write")
        with sp:
            data = encode_entry(key, value)
            if sp.recording:
                sp.set(bytes=len(data))
            path = self.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            replaced = 0
            if self.max_bytes is not None:
                try:
                    replaced = path.stat().st_size   # overwrite, not growth
                except OSError:
                    pass
            fd, tmp_name = tempfile.mkstemp(dir=self._tmp, prefix="put-")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            if self.max_bytes is not None:
                if self._approx_bytes is None:
                    self._approx_bytes = self.total_bytes()
                else:
                    self._approx_bytes += len(data) - replaced
                if self._approx_bytes > self.max_bytes:
                    self.gc()

    def __contains__(self, key: str) -> bool:
        """Fast presence probe (no integrity verification)."""
        return self.path_for(key).exists()

    # -- enumeration --------------------------------------------------------

    def _entry_paths(self) -> Iterator[Path]:
        for shard in sorted(self._objects.iterdir()):
            if shard.is_dir():
                yield from sorted(p for p in shard.iterdir() if p.is_file())

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def total_bytes(self) -> int:
        """Bytes currently held by entry files."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def keys(self) -> List[str]:
        """Keys of every decodable entry header (unverified payloads)."""
        found = []
        for path in self._entry_paths():
            key = self._header_key(path)
            if key is not None:
                found.append(key)
        return sorted(found)

    @staticmethod
    def _key_of_header_line(line: bytes) -> Optional[str]:
        try:
            _, _, header = line.partition(b" ")
            key = json.loads(header).get("key")
        except (ValueError, AttributeError):
            return None
        return key if isinstance(key, str) else None

    @classmethod
    def _header_key(cls, path: Path) -> Optional[str]:
        # readline() is unbounded: the header line ends at the first
        # newline, and keys are arbitrary strings, so a fixed cap would
        # misread (and fsck would then wrongly condemn) long-key entries.
        try:
            with open(path, "rb") as fh:
                line = fh.readline()
        except OSError:
            return None
        return cls._key_of_header_line(line)

    # -- maintenance --------------------------------------------------------

    def _drop(self, path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _reap_stale_tmp(self) -> None:
        cutoff = time.time() - _TMP_MAX_AGE_SECONDS
        try:
            stray = list(self._tmp.iterdir())
        except OSError:
            return
        for path in stray:
            try:
                if path.stat().st_mtime < cutoff:
                    os.unlink(path)
            except OSError:
                pass

    def gc(self, max_bytes: Optional[int] = None) -> GcReport:
        """LRU sweep: drop oldest-read entries until under *max_bytes*
        (default: the store's configured budget; 0 empties the store)."""
        sp = _span("store.gc")
        with sp:
            budget = self.max_bytes if max_bytes is None else max_bytes
            self._reap_stale_tmp()
            entries: List[Tuple[float, int, Path]] = []
            for path in self._entry_paths():
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
            report = GcReport(scanned=len(entries),
                              bytes_before=sum(e[1] for e in entries))
            report.bytes_after = report.bytes_before
            if budget is None:
                return report
            entries.sort(key=lambda e: (e[0], e[2].name))
            for mtime, size, path in entries:
                if report.bytes_after <= budget:
                    break
                self._drop(path)
                report.dropped += 1
                report.bytes_after -= size
            if report.dropped:
                _EVICTED.inc(report.dropped)
            self._approx_bytes = report.bytes_after   # resync the estimate
            if sp.recording:
                sp.set(scanned=report.scanned, dropped=report.dropped,
                       bytes_after=report.bytes_after)
            return report

    def fsck(self) -> FsckReport:
        """Verify every entry end to end; drop (and report) the bad."""
        self._reap_stale_tmp()
        report = FsckReport()
        for path in self._entry_paths():
            try:
                data = path.read_bytes()
                key = self._key_of_header_line(data.split(b"\n", 1)[0])
                decode_entry(key if key is not None else "", data)
            except (OSError, EntryError):
                self._drop(path)
                report.dropped += 1
                report.dropped_paths.append(str(path))
                continue
            report.checked += 1
        return report

    def clear(self) -> None:
        """Drop every entry and scratch file (the root dirs remain)."""
        for path in self._entry_paths():
            self._drop(path)
        try:
            for path in self._tmp.iterdir():
                self._drop(path)
        except OSError:
            pass
        self._approx_bytes = 0

    def describe(self) -> str:
        return (f"ArtifactStore({self.root}, entries={len(self)}, "
                f"bytes={self.total_bytes()}"
                + (f", max_bytes={self.max_bytes}" if self.max_bytes
                   is not None else "") + ")")
