"""Service observability: the ``metrics`` endpoint as a view over
:mod:`repro.obs.metrics`.

Since schema v2 the service keeps **no private histogram code**: every
figure the endpoint serves lives in a :class:`~repro.obs.metrics`
instrument — per-endpoint latency in a labeled ``Histogram``, outcomes
in a labeled ``Counter``, queue depth/high-water in ``Gauge``s — held
in a per-service :class:`~repro.obs.metrics.MetricsRegistry` (so two
:class:`ServiceThread`\\ s in one process don't bleed into each other).
:meth:`ServiceMetrics.payload` renders the same v1 document shape from
those instruments (CI gates assert it), adds a ``registry`` section
exposing *every* registered metric — including the process-global
:data:`~repro.obs.metrics.REGISTRY` the engine/VM/fleet publish into —
and stamps ``schema: 2``.

Design rules, in the measure-don't-guess tradition:

* **Scrape-stable schema.**  Plain JSON with a ``schema`` stamp;
  extending is additive, renaming is a schema bump.  All v1 keys
  survive under v2.
* **Cheap on the hot path.**  Recording one request is a bucket
  increment and a counter add; percentile math happens at scrape time.
* **Histograms, not reservoirs.**  The shared ×1.35 log-bucket ladder
  (see :data:`repro.obs.metrics.DEFAULT_BOUNDS`); percentiles are the
  covering bucket's upper bound — deterministic, mergeable, within one
  bucket width of the true quantile, the right trade for an SLO gate.

The module is asyncio-agnostic: the server calls it from the event
loop *and* worker-completion callbacks (executor threads); the obs
instruments carry their own locks.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

from ..obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["METRICS_SCHEMA_VERSION", "ServiceMetrics"]

#: Bump when the ``payload()`` shape changes incompatibly.
#: v2 (PR 9): same keys as v1 plus a ``registry`` section; figures now
#: sourced from :mod:`repro.obs.metrics` instruments.
METRICS_SCHEMA_VERSION = 2


class ServiceMetrics:
    """One service's metrics, all held as registry instruments.

    Tracks per-endpoint latency histograms, the bounded-queue gauges
    (depth, high water, rejections), and worker-pool execution time for
    the utilization figure.  Worker *fault* counters (deaths, restarts,
    retried and failed chunks) live on the pool's own stats object and
    are merged in at :meth:`payload` time.
    """

    def __init__(self, queue_limit: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()    # enqueue's depth/high-water pair
        self._started = time.monotonic()
        self.queue_limit = queue_limit
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        reg = self.registry
        self._latency = reg.histogram(
            "service_request_seconds", "wire request latency by op")
        self._requests = reg.counter(
            "service_requests_total", "wire requests by op and outcome")
        self._depth = reg.gauge(
            "service_queue_depth", "compile jobs admitted and not done")
        self._high_water = reg.gauge(
            "service_queue_high_water", "max queue depth observed")
        self._rejections = reg.counter(
            "service_busy_rejections_total", "requests refused at the gate")
        self._jobs = reg.counter(
            "service_jobs_done_total", "compile jobs completed")
        self._busy = reg.counter(
            "service_busy_seconds_total", "summed job execution time")
        self._connections = reg.counter(
            "service_connections_total", "client connections accepted")
        self._coalesced = reg.counter(
            "service_coalesced_total",
            "compile requests folded onto an in-flight computation")

    # -- v1 attribute compatibility ------------------------------------------

    @property
    def queue_depth(self) -> int:
        return int(self._depth.value())

    @property
    def queue_high_water(self) -> int:
        return int(self._high_water.value())

    @property
    def busy_rejections(self) -> int:
        return int(self._rejections.value())

    @property
    def jobs_done(self) -> int:
        return int(self._jobs.value())

    @property
    def busy_seconds(self) -> float:
        return self._busy.value()

    # -- recording (hot path) ----------------------------------------------

    def observe(self, op: str, seconds: float, outcome: str = "ok") -> None:
        """One request of *op* took *seconds*; outcome is ``ok`` |
        ``error`` | ``busy``."""
        self._latency.record(seconds, op=op)
        self._requests.inc(op=op, outcome=outcome)

    def enqueue(self, n: int) -> None:
        """*n* compile jobs admitted to the bounded queue."""
        with self._lock:                 # depth and high-water move together
            depth = self._depth.add(n)
            self._high_water.max_with(depth)

    def dequeue(self, n: int, busy_seconds: float = 0.0) -> None:
        """*n* jobs finished after *busy_seconds* of execution time."""
        self._depth.add(-n)
        self._jobs.inc(n)
        if busy_seconds:
            self._busy.inc(busy_seconds)

    def reject(self) -> None:
        self._rejections.inc()

    def connect(self) -> None:
        self._connections.inc()

    def coalesce(self) -> None:
        self._coalesced.inc()

    @property
    def coalesced(self) -> int:
        return int(self._coalesced.value())

    # -- scraping -----------------------------------------------------------

    def utilization(self, workers: int) -> Optional[float]:
        """Mean busy fraction of the worker slots since startup."""
        elapsed = time.monotonic() - self._started
        if workers <= 0 or elapsed <= 0.0:
            return None
        return min(1.0, self.busy_seconds / (elapsed * workers))

    def _endpoint_block(self, op: str) -> Dict[str, Any]:
        mean = self._latency.mean(op=op)
        block: Dict[str, Any] = {
            "count": self._latency.count(op=op),
            "mean_ms": None if mean is None else mean * 1000.0,
        }
        for label, q in (("p50_ms", 0.50), ("p90_ms", 0.90),
                         ("p99_ms", 0.99)):
            seconds = self._latency.percentile(q, op=op)
            block[label] = None if seconds is None else seconds * 1000.0
        block["errors"] = int(self._requests.value(op=op, outcome="error"))
        block["busy"] = int(self._requests.value(op=op, outcome="busy"))
        return block

    def payload(self, workers: int = 0,
                pool_stats: Optional[Dict[str, Any]] = None,
                cache: Optional[Dict[str, Any]] = None,
                shard_sizes: Optional[Dict[str, int]] = None,
                ) -> Dict[str, Any]:
        """The ``metrics`` endpoint's JSON document (schema v2: every
        v1 key, the ``service`` request totals, plus ``registry`` — this
        service's instruments merged with the process-global
        :data:`~repro.obs.metrics.REGISTRY`)."""
        ops = sorted({labels["op"]
                      for labels in self._latency.labelsets()
                      if "op" in labels})
        endpoints = {op: self._endpoint_block(op) for op in ops}
        worker_block: Dict[str, Any] = {
            "configured": workers,
            "mode": "process-pool" if workers else "in-process",
            "jobs_done": self.jobs_done,
            "utilization": self.utilization(workers),
        }
        worker_block.update(pool_stats or {})
        payload: Dict[str, Any] = {
            "schema": METRICS_SCHEMA_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "endpoints": endpoints,
            "queue": {
                "depth": self.queue_depth,
                "limit": self.queue_limit,
                "high_water": self.queue_high_water,
                "busy_rejections": self.busy_rejections,
            },
            "workers": worker_block,
            "cache": cache or {},
            "service": {
                "connections": int(self._connections.value()),
                "requests": int(self._requests.total()),
                "errors": int(self._requests.total(outcome="error")),
                "busy": int(self._requests.total(outcome="busy")),
                "coalesced": self.coalesced,
            },
            "registry": {**REGISTRY.snapshot(), **self.registry.snapshot()},
        }
        if shard_sizes is not None:
            payload["shards"] = shard_sizes
        return payload
