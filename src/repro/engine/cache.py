"""Content-addressed result cache with hit/miss statistics.

The cache separates two concerns:

* **in-flight deduplication** lives here: the first caller of a key
  installs a future and computes the value inline; concurrent callers
  of the same key (threads sharing one engine, such as the in-process
  compile service's worker and its callers) find the in-flight future
  and wait on it instead of recomputing.  That gives exactly one
  computation per unique key regardless of scheduling.
* **completed-value storage** is delegated to a pluggable
  :class:`~repro.engine.backends.CacheBackend` — in-process memory
  (default), a persistent on-disk :class:`~repro.store.ArtifactStore`,
  or a tiered memory-over-disk combination.  The backend reports which
  tier served each hit, so :class:`CacheStats` can attribute warm
  starts to the disk layer.

A failed computation is evicted before its exception propagates, so a
transient error does not poison the key.

Observability: every lookup runs under a ``cache.lookup`` span
(:mod:`repro.obs.trace` — a no-op unless tracing is enabled) tagged
with the outcome (``hit`` / ``miss`` / ``inflight-wait``) and serving
tier, and the counters mirror into the process-wide
:data:`repro.obs.metrics.REGISTRY` as ``engine_cache_hits_total`` /
``engine_cache_misses_total`` labeled by cache name and origin.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs.metrics import REGISTRY
from ..obs.trace import span as _span
from .backends import ORIGIN_DISK, CacheBackend, MemoryBackend

__all__ = ["CacheStats", "CompileCache"]

_HITS = REGISTRY.counter("engine_cache_hits_total",
                         "cache hits by cache name and serving tier")
_MISSES = REGISTRY.counter("engine_cache_misses_total",
                           "cache misses by cache name")


@dataclass
class CacheStats:
    """Lookup counters of one cache.

    Updates go through :meth:`record_hit` / :meth:`record_miss`, which
    are atomic (an internal lock): threads sharing one engine bump
    these at once, and ``+=`` on a shared counter drops updates under
    contention.  ``disk_hits`` counts the subset of hits served by a
    persistent backend tier rather than process memory.

    Readers that need more than one field must use :meth:`snapshot` —
    reading ``hits`` then ``misses`` as separate attribute accesses can
    tear (a concurrent ``record_*`` lands between them and the pair
    never existed together).
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    name: str = ""
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def record_hit(self, origin: str = "memory") -> None:
        with self._lock:
            self.hits += 1
            if origin == ORIGIN_DISK:
                self.disk_hits += 1
        _HITS.inc(cache=self.name or "anon", origin=origin)

    def record_miss(self) -> None:
        with self._lock:
            self.misses += 1
        _MISSES.inc(cache=self.name or "anon")

    def snapshot(self) -> Dict[str, Any]:
        """All counters from one lock acquisition — a mutually
        consistent view (no torn multi-field reads)."""
        with self._lock:
            hits, misses, disk_hits = self.hits, self.misses, self.disk_hits
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "disk_hits": disk_hits,
            "lookups": lookups,
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    def summary(self) -> str:
        snap = self.snapshot()
        return (f"cache: {snap['hits']} hits ({snap['disk_hits']} disk) / "
                f"{snap['misses']} misses ({snap['hit_rate']:.1%} hit rate, "
                f"{snap['lookups']} lookups)")


class CompileCache:
    """Thread-safe content-addressed cache (key -> computed result).

    *backend* selects where completed values live
    (:class:`~repro.engine.backends.MemoryBackend` by default); the
    in-flight future table and the statistics always live in-process.
    *name* labels this cache's series in the metrics registry and its
    spans (the engine names its tiers ``module`` and ``unit``).
    """

    def __init__(self, backend: Optional[CacheBackend] = None,
                 name: str = "") -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[str, Future] = {}
        self.backend = backend if backend is not None else MemoryBackend()
        self.name = name
        self._stats = CacheStats(name=name)

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def __len__(self) -> int:
        with self._lock:
            return len(self.backend) + len(self._inflight)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._inflight or key in self.backend

    def clear(self) -> None:
        """Drop every completed entry (statistics are kept; in-flight
        computations complete and publish into the cleared backend)."""
        with self._lock:
            self.backend.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._stats = CacheStats(name=self.name)

    def get_or_compute(self, key: str, compute: Callable[[], Any],
                       valid: Optional[Callable[[Any], bool]] = None
                       ) -> Any:
        """Return the cached value for *key*, computing it on first use.

        Exactly one caller runs *compute* per key; concurrent callers
        block on the in-flight future.  Either way the lookup is
        counted (miss for the computing caller, hit for everyone else —
        tagged with the backend tier that served it).  A stored value
        that *valid* rejects counts as absent: the lookup is a miss,
        and the computed value replaces it.
        """
        sp = _span("cache.lookup")
        try:
            # Optimistic lockless probe: published entries are immutable,
            # so a hit needs no in-flight coordination at all — and a slow
            # disk read never serializes lookups of other keys.
            try:
                value, origin = self._load(key, valid)
            except KeyError:
                pass
            else:
                self._stats.record_hit(origin)
                if sp.recording:
                    sp.set(cache=self.name, outcome="hit", origin=origin)
                return value
            with self._lock:
                future = self._inflight.get(key)
                if future is None:
                    future = Future()
                    self._inflight[key] = future
                    owner = True
                else:
                    self._stats.record_hit("inflight")
                    owner = False
            if not owner:
                if sp.recording:
                    sp.set(cache=self.name, outcome="inflight-wait")
                return future.result()
            # This caller owns the key.  Re-probe (outside the lock): a
            # previous owner may have published between the optimistic
            # probe and the future installation above.
            try:
                value, origin = self._load(key, valid)
            except KeyError:
                pass
            else:
                self._stats.record_hit(origin)
                if sp.recording:
                    sp.set(cache=self.name, outcome="hit", origin=origin)
                return self._resolve(key, future, value, store=False)
            self._stats.record_miss()
            if sp.recording:
                sp.set(cache=self.name, outcome="miss")
            try:
                value = compute()
            except BaseException as exc:
                with self._lock:
                    self._inflight.pop(key, None)
                future.set_exception(exc)
                raise
            return self._resolve(key, future, value, store=True)
        finally:
            sp.end()

    def _load(self, key: str, valid: Optional[Callable[[Any], bool]]
              ) -> Tuple[Any, str]:
        value, origin = self.backend.load(key)
        if valid is not None and not valid(value):
            raise KeyError(key)
        return value, origin

    def _resolve(self, key: str, future: Future, value: Any,
                 store: bool) -> Any:
        """Publish *value* (to the backend when *store*), wake waiters,
        and retire the in-flight entry — in that order, so there is no
        window where a key is neither in flight nor in the backend.
        The future resolves and the entry retires even if the backend
        write blows up (waiters must get the computed value, never hang
        on a storage error; the error still propagates to the owner)."""
        try:
            if store:
                self.backend.store(key, value)
        finally:
            future.set_result(value)
            with self._lock:
                self._inflight.pop(key, None)
        return value
