""":class:`CompileService` — an asyncio JSON-lines compile server,
scalable from one in-process engine to a multi-worker sharded cluster.

Two execution modes behind one wire protocol:

* **in-process** (default, ``workers=0``): one service fronts one
  :class:`~repro.engine.ExperimentEngine`; compiles run on the loop's
  default thread executor.  Simple, great for tests and warm
  disk-served traffic — but pure-Python compiles are GIL-bound, so
  CPU-heavy traffic serializes.
* **cluster** (``workers=N``): compiles run on a
  :class:`~repro.service.workers.WorkerPool` of N *processes*, each
  rebuilding its engine from one picklable
  :class:`~repro.engine.EngineSpec` — same backend topology everywhere,
  typically a consistent-hash-sharded on-disk store
  (``cache_dir``/``shards``), so the farm shares one coherent
  persistent cache while each worker keeps a private hot memory + unit
  tier.  Batches are deduplicated, **locality-sorted** (near-duplicate
  jobs ride one chunk to one worker's warm unit cache — the ROADMAP
  item 5 follow-up) and chunked across the pool; dead workers are
  respawned and their chunks retried.

**Backpressure**: ``queue_limit`` bounds admitted-but-unfinished
compile jobs.  A request that would exceed the bound is answered
*immediately* with a ``busy`` reply (the 429 of this wire protocol —
``{"ok": false, "busy": true, "retry": true}``) instead of being
buffered without bound; :class:`~repro.service.client.ServiceClient`
retries those with exponential backoff.  A single batch larger than
the whole queue is rejected with ``retry: false`` (it could never be
admitted).

**Request coalescing**: identical compile jobs in flight at the same
time are folded onto a single computation; late arrivals await the
same task and are counted as *coalesced*.

**Observability**: every request lands in per-endpoint latency
histograms; queue depth/high-water/rejections, worker utilization and
fault counters, cache hit rates and shard sizes are served by the
``metrics`` operation (:mod:`repro.service.metrics`) as
scrape-stable JSON — the CI SLO gate reads exactly this document.

:class:`ServiceThread` wraps server + event loop in a background
thread behind a context manager — the sync-world entry point examples,
tests and the docs use.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

import threading

from ..engine import EngineSpec, ExperimentEngine, ShardedBackend
from ..obs.trace import NOOP_SPAN, SpanContext, attach, get_tracer
from .batching import (dedup_params, params_digest, plan_chunks,
                       sort_for_locality)
from .metrics import ServiceMetrics
from .protocol import (MAX_LINE_BYTES, compile_result_payload,
                       decode_message, encode_message, job_from_params)
from .workers import WorkerPool

__all__ = ["BusyRejection", "ClientStats", "CompileService",
           "start_service", "ServiceThread"]

#: Message keys that describe one compile job on the wire.
_JOB_PARAM_KEYS = ("machine", "pattern", "level", "target", "semantics",
                   "want_asm", "chaos")

#: The wire operations.  Metric labels and span names use these, and
#: ``invalid`` for anything else, so client input cannot mint series.
_OPS = ("ping", "stats", "metrics", "compile", "batch")


class BusyRejection(Exception):
    """The bounded queue cannot admit this request right now."""

    def __init__(self, message: str, retry: bool = True) -> None:
        super().__init__(message)
        self.retry = retry


@dataclass
class ClientStats:
    """Counters of one client connection."""

    peer: str = ""
    requests: int = 0
    compiles: int = 0
    batch_jobs: int = 0
    coalesced: int = 0
    errors: int = 0
    busy: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {"peer": self.peer, "requests": self.requests,
                "compiles": self.compiles, "batch_jobs": self.batch_jobs,
                "coalesced": self.coalesced, "errors": self.errors,
                "busy": self.busy}


@dataclass
class _ServiceTotals:
    """Aggregate counters (mutated on the event-loop thread only).

    Disconnected clients fold into these, so the per-client table can
    hold *live* connections only without losing history."""

    connections: int = 0
    requests: int = 0
    compiles: int = 0
    batch_jobs: int = 0
    coalesced: int = 0
    errors: int = 0
    busy: int = 0

    def absorb(self, client: "ClientStats") -> None:
        self.compiles += client.compiles
        self.batch_jobs += client.batch_jobs


class CompileService:
    """Routes wire requests onto a shared engine or a worker pool."""

    def __init__(self, engine: Optional[ExperimentEngine] = None,
                 workers: int = 0,
                 engine_spec: Optional[EngineSpec] = None,
                 queue_limit: Optional[int] = None,
                 allow_chaos: bool = False,
                 max_retries: int = 2) -> None:
        self.workers = max(0, int(workers))
        self.engine_spec = engine_spec
        if self.workers > 0:
            if engine is not None:
                raise ValueError("a cluster rebuilds engines from an "
                                 "EngineSpec; pass engine_spec=, not a "
                                 "live engine")
            self.engine = None
            self.pool: Optional[WorkerPool] = WorkerPool(
                engine_spec if engine_spec is not None else EngineSpec(),
                self.workers, allow_chaos=allow_chaos,
                max_retries=max_retries)
        else:
            self.engine = engine if engine is not None else \
                ExperimentEngine()
            self.pool = None
        self.queue_limit = queue_limit
        self.metrics = ServiceMetrics(queue_limit=queue_limit)
        self.totals = _ServiceTotals()
        self.clients: Dict[str, ClientStats] = {}
        #: request digest / fingerprint -> in-flight task (coalescing).
        self._inflight: Dict[str, asyncio.Task] = {}
        #: Live :meth:`handle_client` tasks (see :meth:`drop_connections`).
        self._connections: Set[asyncio.Task] = set()
        self._shard_view: Optional[ShardedBackend] = None

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    # -- connection handling ------------------------------------------------

    def accept(self, reader: asyncio.StreamReader,
               writer: asyncio.StreamWriter) -> None:
        """The stream server's connection callback: serve the connection
        on a task this service tracks (see :meth:`drop_connections`)."""
        task = asyncio.get_running_loop().create_task(
            self.handle_client(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def drop_connections(self) -> None:
        """Cancel every connection handler and wait until each has
        closed its stream.  A shutdown runs this before the loop stops:
        a handler still awaiting an idle client's next line would be
        destroyed pending, and ``Server.wait_closed()`` (3.12) waits for
        open connections."""
        tasks = list(self._connections)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def handle_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self.totals.connections += 1
        name = f"client-{self.totals.connections}"
        peername = writer.get_extra_info("peername")
        client = ClientStats(peer=repr(peername) if peername else "unix")
        self.clients[name] = client              # live connections only
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode_message(
                        {"ok": False, "error": "request line too long"}))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_line(line, name, client)
                writer.write(encode_message(response))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            # Retire the per-client row (unbounded growth otherwise on a
            # long-lived server); its counters live on in the totals.
            self.totals.absorb(client)
            self.clients.pop(name, None)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(self, line: bytes, name: str,
                           client: ClientStats) -> Dict[str, Any]:
        client.requests += 1
        self.totals.requests += 1
        request_id = None
        op: Any = None
        label = "invalid"
        span = NOOP_SPAN
        remote: Optional[SpanContext] = None
        started = time.perf_counter()
        try:
            message = decode_message(line)
            request_id = message.get("id")
            op = message.get("op")
            label = op if op in _OPS else "invalid"
            # Re-parent this request under the client's span when the
            # message carries a trace context (a recording remote parent
            # always records); otherwise the server samples on its own.
            remote = SpanContext.from_wire(message.get("trace"))
            tracer = get_tracer()
            span = tracer.span(f"service.{label}", parent=remote) \
                if remote is not None else tracer.span(f"service.{label}")
            result = await self._dispatch(op, message, name, client, span)
        except BusyRejection as busy:
            client.busy += 1
            self.totals.busy += 1
            self.metrics.reject()
            self.metrics.observe(label, time.perf_counter() - started,
                                 "busy")
            return self._finish_span(span, remote, "busy", {
                "id": request_id, "ok": False, "busy": True,
                "retry": busy.retry, "error": str(busy)})
        except Exception as exc:
            client.errors += 1
            self.totals.errors += 1
            self.metrics.observe(label, time.perf_counter() - started,
                                 "error")
            return self._finish_span(span, remote, "error", {
                "id": request_id, "ok": False,
                "error": f"{type(exc).__name__}: {exc}"})
        self.metrics.observe(label, time.perf_counter() - started, "ok")
        return self._finish_span(span, remote, "ok", {
            "id": request_id, "ok": True, "result": result})

    @staticmethod
    def _finish_span(span, remote: Optional[SpanContext], outcome: str,
                     response: Dict[str, Any]) -> Dict[str, Any]:
        """End the request span; when the request arrived with a trace
        context, piggyback this trace's finished spans (the service
        span, worker chunk spans already ingested, ...) on the response
        envelope so the client reassembles one connected trace."""
        if not span.recording:
            return response
        span.set(outcome=outcome)
        span.end()
        if remote is not None:
            response["spans"] = get_tracer().drain(span.trace_id)
        return response

    # -- operations ---------------------------------------------------------

    async def _dispatch(self, op: Any, message: Dict[str, Any], name: str,
                        client: ClientStats, span=NOOP_SPAN
                        ) -> Dict[str, Any]:
        if op == "ping":
            from .. import __version__
            return {"pong": True, "version": __version__}
        if op == "stats":
            return self.stats_payload()
        if op == "metrics":
            return self.metrics_payload()
        if op == "compile":
            return await self._compile_one(message, client, span)
        if op == "batch":
            return await self._compile_batch(message, client, span)
        raise ValueError(f"unknown operation {op!r}")

    # -- backpressure -------------------------------------------------------

    def _admit(self, n_jobs: int) -> None:
        """Admit *n_jobs* to the bounded queue or raise
        :class:`BusyRejection`.  Runs on the event-loop thread only, so
        check-then-enqueue is race-free."""
        if self.queue_limit is not None:
            if n_jobs > self.queue_limit:
                raise BusyRejection(
                    f"batch of {n_jobs} jobs exceeds the queue limit "
                    f"({self.queue_limit}); split it", retry=False)
            if self.metrics.queue_depth + n_jobs > self.queue_limit:
                raise BusyRejection(
                    f"server busy: {self.metrics.queue_depth} jobs "
                    f"pending (limit {self.queue_limit})")
        self.metrics.enqueue(n_jobs)

    @staticmethod
    def _job_params(message: Dict[str, Any]) -> Dict[str, Any]:
        if not isinstance(message, dict):
            raise ValueError("batch jobs must be objects")
        return {key: message[key] for key in _JOB_PARAM_KEYS
                if key in message}

    # -- compile: shared plumbing -------------------------------------------

    async def _run_pooled(self, chunk: List[Dict[str, Any]],
                          n_jobs: int,
                          trace_ctx: Optional[Dict[str, str]] = None
                          ) -> Dict[str, Any]:
        """One chunk through the worker pool, with queue accounting.
        Worker spans piggybacked on the reply are ingested here so the
        request's final drain ships them back to the client."""
        assert self.pool is not None
        try:
            reply = await asyncio.wrap_future(
                self.pool.submit_chunk(chunk, trace_ctx))
        except BaseException:
            self.metrics.dequeue(n_jobs, 0.0)
            raise
        self.metrics.dequeue(n_jobs, float(reply.get("busy_s", 0.0)))
        if reply.get("spans"):
            get_tracer().ingest(reply["spans"])
        return reply

    async def _run_compile(self, job, ctx: Optional[SpanContext] = None):
        loop = asyncio.get_running_loop()
        started = time.perf_counter()

        def run():
            # Executor threads do not inherit the contextvar — re-attach
            # the request span so engine/cache spans parent under it.
            with attach(ctx):
                return self.engine.compile_machine(
                    job.machine, pattern=job.pattern, level=job.level,
                    target=job.target, semantics=job.semantics)

        try:
            return await loop.run_in_executor(None, run)
        finally:
            self.metrics.dequeue(1, time.perf_counter() - started)

    # -- compile: single ----------------------------------------------------

    async def _compile_one(self, message: Dict[str, Any],
                           client: ClientStats,
                           span=NOOP_SPAN) -> Dict[str, Any]:
        if self.pool is not None:
            return await self._compile_one_pooled(message, client, span)
        loop = asyncio.get_running_loop()
        # Deserializing and fingerprinting a machine is CPU work
        # proportional to its size — executor, not event loop.
        job = await loop.run_in_executor(
            None, lambda: job_from_params(message))
        key = await loop.run_in_executor(None, job.fingerprint)
        task = self._inflight.get(key)
        if task is None:
            self._admit(1)
            task = loop.create_task(self._run_compile(
                job, span.ctx if span.recording else None))
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, _key=key: self._inflight.pop(_key, None))
        else:
            client.coalesced += 1
            self.totals.coalesced += 1
        client.compiles += 1
        # shield: one requester disconnecting must not cancel the shared
        # computation other requesters of the same key are awaiting.
        result = await asyncio.shield(task)
        return await loop.run_in_executor(
            None, lambda: compile_result_payload(
                job, result, want_asm=bool(message.get("want_asm"))))

    async def _compile_one_pooled(self, message: Dict[str, Any],
                                  client: ClientStats,
                                  span=NOOP_SPAN) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        params = self._job_params(message)
        # Coalescing key: canonical request bytes.  No machine
        # deserialization on the server — content fingerprinting is the
        # worker's job.
        key = await loop.run_in_executor(
            None, lambda: params_digest(params))
        task = self._inflight.get(key)
        if task is None:
            self._admit(1)
            task = loop.create_task(self._run_pooled(
                [params], 1,
                span.ctx.to_wire() if span.recording else None))
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, _key=key: self._inflight.pop(_key, None))
        else:
            client.coalesced += 1
            self.totals.coalesced += 1
        client.compiles += 1
        reply = await asyncio.shield(task)
        return reply["payloads"][0]

    # -- compile: batch -----------------------------------------------------

    async def _compile_batch(self, message: Dict[str, Any],
                             client: ClientStats,
                             span=NOOP_SPAN) -> Dict[str, Any]:
        raw_jobs = message.get("jobs")
        if not isinstance(raw_jobs, list):
            raise ValueError("batch needs a 'jobs' array")
        if self.pool is not None:
            return await self._compile_batch_pooled(raw_jobs, client, span)
        client.batch_jobs += len(raw_jobs)
        self._admit(len(raw_jobs))
        ctx = span.ctx if span.recording else None

        def run_whole_batch():
            # Deserialization and planning are CPU work proportional to
            # the grid — keep them off the event-loop thread too.
            with attach(ctx):
                jobs = [job_from_params(params) for params in raw_jobs]
                results, plan = self.engine.run_batch_planned(jobs)
            return [
                compile_result_payload(
                    job, result, want_asm=bool(params.get("want_asm")))
                for params, job, result in zip(raw_jobs, jobs, results)
            ], plan.n_deduplicated

        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        try:
            payloads, deduplicated = await loop.run_in_executor(
                None, run_whole_batch)
        finally:
            self.metrics.dequeue(len(raw_jobs),
                                 time.perf_counter() - started)
        return {"results": payloads, "deduplicated": deduplicated}

    async def _compile_batch_pooled(self, raw_jobs: List[Any],
                                    client: ClientStats,
                                    span=NOOP_SPAN
                                    ) -> Dict[str, Any]:
        assert self.pool is not None
        client.batch_jobs += len(raw_jobs)
        trace_ctx = span.ctx.to_wire() if span.recording else None
        loop = asyncio.get_running_loop()

        def shape_batch():
            cleaned = [self._job_params(params) for params in raw_jobs]
            order, unique = dedup_params(cleaned)
            # Near-duplicates adjacent, then contiguous chunks: one
            # machine family rides one chunk to one worker's warm unit
            # cache instead of being sprayed across the pool.
            ordered = sort_for_locality(list(unique.items()))
            chunks = plan_chunks(ordered, 2 * self.pool.workers)
            return order, len(unique), chunks

        order, n_unique, chunks = await loop.run_in_executor(
            None, shape_batch)
        self._admit(n_unique)
        dispatched = [
            loop.create_task(self._run_pooled(
                [params for _, params in chunk], len(chunk), trace_ctx))
            for chunk in chunks
        ]
        try:
            replies = await asyncio.gather(*dispatched)
        except BaseException:
            for task in dispatched:    # queue accounting still drains
                task.cancel()          # via _run_pooled's except path
            raise
        by_digest: Dict[str, Dict[str, Any]] = {}
        for chunk, reply in zip(chunks, replies):
            for (digest, _), payload in zip(chunk, reply["payloads"]):
                by_digest[digest] = payload
        return {"results": [by_digest[digest] for digest in order],
                "deduplicated": len(order) - n_unique}

    # -- introspection ------------------------------------------------------

    def _cache_counters(self) -> Dict[str, Any]:
        """One dict of cache counters, whichever mode is running."""
        if self.pool is not None:
            agg = self.pool.aggregate_stats()
            lookups = agg["hits"] + agg["misses"]
            agg["lookups"] = lookups
            agg["hit_rate"] = agg["hits"] / lookups if lookups else 0.0
            return agg
        # snapshot() reads every counter under one lock acquisition —
        # no torn hits/lookups pairs while compiles are in flight.
        stats = self.engine.stats.snapshot()
        units = self.engine.unit_stats.snapshot()
        delta = self.engine.delta_stats
        return {
            "jobs": self.engine.jobs,
            "hits": stats["hits"], "misses": stats["misses"],
            "disk_hits": stats["disk_hits"],
            "lookups": stats["lookups"], "hit_rate": stats["hit_rate"],
            "unit_hits": units["hits"], "unit_misses": units["misses"],
            "unit_disk_hits": units["disk_hits"],
            "reused_units": delta.reused_units,
            "compiled_units": delta.compiled_units,
        }

    def _shard_sizes(self) -> Optional[Dict[str, int]]:
        """Entry counts per store shard, when a sharded disk tier is in
        reach (directly on the engine backend, or rebuilt read-only
        from the cluster's spec)."""
        backend = None
        if self.engine is not None:
            backend = getattr(self.engine.cache, "backend", None)
            disk = getattr(backend, "disk", None)       # tiered?
            if isinstance(disk, ShardedBackend):
                backend = disk
        elif self.engine_spec is not None and \
                self.engine_spec.cache_dir and self.engine_spec.shards > 1:
            if self._shard_view is None:
                self._shard_view = ShardedBackend.over_directory(
                    self.engine_spec.cache_dir, self.engine_spec.shards)
            backend = self._shard_view
        if isinstance(backend, ShardedBackend):
            return backend.shard_sizes()
        return None

    def metrics_payload(self) -> Dict[str, Any]:
        """The ``metrics`` operation: scrape-stable cluster telemetry."""
        cache = self._cache_counters()
        pool_stats = self.pool.stats.as_dict() if self.pool is not None \
            else None
        payload = self.metrics.payload(
            workers=self.workers, pool_stats=pool_stats, cache=cache,
            shard_sizes=self._shard_sizes())
        if self.pool is not None:
            payload["workers"]["per_worker"] = self.pool.per_worker()
        payload["service"] = {
            "connections": self.totals.connections,
            "requests": self.totals.requests,
            "errors": self.totals.errors,
            "busy": self.totals.busy,
            "coalesced": self.totals.coalesced,
        }
        return payload

    def stats_payload(self) -> Dict[str, Any]:
        cache = self._cache_counters()
        return {
            "engine": {
                "jobs": cache.get("jobs", self.workers),
                "hits": cache["hits"],
                "disk_hits": cache["disk_hits"],
                "misses": cache["misses"],
                "lookups": cache["lookups"],
                "hit_rate": cache["hit_rate"],
            },
            # The per-unit cache tier behind delta compiles: batch
            # clients sharing structure (same action bodies across
            # machine variants) show up as unit hits even when every
            # whole-module fingerprint is new.
            "units": {
                "hits": cache.get("unit_hits", 0),
                "disk_hits": cache.get("unit_disk_hits", 0),
                "misses": cache.get("unit_misses", 0),
                "reused": cache.get("reused_units", 0),
                "compiled": cache.get("compiled_units", 0),
            },
            "service": {
                "connections": self.totals.connections,
                "requests": self.totals.requests,
                "compiles": self.totals.compiles +
                sum(c.compiles for c in self.clients.values()),
                "batch_jobs": self.totals.batch_jobs +
                sum(c.batch_jobs for c in self.clients.values()),
                "coalesced": self.totals.coalesced,
                "errors": self.totals.errors,
                "busy": self.totals.busy,
            },
            # live connections only; disconnected clients are folded
            # into the service totals above.
            "clients": {name: client.as_dict()
                        for name, client in sorted(self.clients.items())},
        }


async def start_service(engine: Optional[ExperimentEngine] = None,
                        socket_path: Optional[str] = None,
                        host: Optional[str] = None,
                        port: Optional[int] = None,
                        workers: int = 0,
                        engine_spec: Optional[EngineSpec] = None,
                        queue_limit: Optional[int] = None,
                        allow_chaos: bool = False,
                        max_retries: int = 2,
                        ) -> Tuple[asyncio.AbstractServer, CompileService]:
    """Start serving on a unix socket (*socket_path*) or TCP
    (*host*/*port*); returns ``(asyncio server, service)``.

    ``workers > 0`` runs compiles on a process pool built from
    *engine_spec* (see :class:`CompileService`)."""
    service = CompileService(engine, workers=workers,
                             engine_spec=engine_spec,
                             queue_limit=queue_limit,
                             allow_chaos=allow_chaos,
                             max_retries=max_retries)
    if socket_path is not None:
        server = await asyncio.start_unix_server(
            service.accept, path=socket_path, limit=MAX_LINE_BYTES)
    elif port is not None:
        server = await asyncio.start_server(
            service.accept, host=host or "127.0.0.1", port=port,
            limit=MAX_LINE_BYTES)
    else:
        raise ValueError("need socket_path or port to serve on")
    return server, service


class ServiceThread:
    """A compile service on a background thread (context manager).

    With no address arguments a throwaway unix socket is created::

        with ServiceThread(engine) as handle:
            with handle.client() as client:
                client.ping()

    Cluster mode — worker processes, sharded store, bounded queue::

        with ServiceThread(workers=2, shards=2, cache_dir=store_dir,
                           queue_limit=64) as handle:
            ...
    """

    def __init__(self, engine: Optional[ExperimentEngine] = None,
                 socket_path: Optional[str] = None,
                 host: str = "127.0.0.1",
                 port: Optional[int] = None,
                 workers: int = 0,
                 shards: int = 1,
                 cache_dir: Optional[str] = None,
                 backend: Optional[str] = None,
                 engine_spec: Optional[EngineSpec] = None,
                 queue_limit: Optional[int] = None,
                 allow_chaos: bool = False,
                 max_retries: int = 2) -> None:
        self.workers = max(0, int(workers))
        if self.workers > 0 and engine_spec is None:
            engine_spec = EngineSpec(backend=backend, cache_dir=cache_dir,
                                     shards=shards)
        if self.workers == 0 and engine is None and \
                (cache_dir or backend or shards > 1):
            engine = ExperimentEngine(backend=backend, cache_dir=cache_dir,
                                      shards=shards)
        self.engine = engine
        self.engine_spec = engine_spec
        self.queue_limit = queue_limit
        self.allow_chaos = allow_chaos
        self.max_retries = max_retries
        self.host = host
        self.port = port
        self._own_socket_dir: Optional[str] = None
        if socket_path is None and port is None:
            self._own_socket_dir = tempfile.mkdtemp(prefix="repro-service-")
            socket_path = os.path.join(self._own_socket_dir, "service.sock")
        self.socket_path = socket_path
        self.server: Optional[asyncio.AbstractServer] = None
        self.service: Optional[CompileService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            start_service(self.engine, socket_path=self.socket_path,
                          host=self.host, port=self.port,
                          workers=self.workers,
                          engine_spec=self.engine_spec,
                          queue_limit=self.queue_limit,
                          allow_chaos=self.allow_chaos,
                          max_retries=self.max_retries), self._loop)
        self.server, self.service = future.result(timeout=30)
        if self.socket_path is None:
            self.port = self.server.sockets[0].getsockname()[1]
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def wait_workers_ready(self, timeout: float = 60.0) -> int:
        """Block until every worker process is up (cluster mode); load
        generators call this so spin-up never skews a measurement."""
        if self.service is None or self.service.pool is None:
            return 0
        return self.service.pool.wait_ready(timeout=timeout)

    def stop(self) -> None:
        if self._loop is None:
            return
        if self.server is not None:
            async def _close(server=self.server, service=self.service):
                server.close()
                await service.drop_connections()
                await server.wait_closed()
            asyncio.run_coroutine_threadsafe(_close(),
                                             self._loop).result(timeout=30)
        if self.service is not None:
            self.service.close()
        self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._loop.close()
        self._loop = self._thread = self.server = None
        if self.socket_path and os.path.exists(self.socket_path):
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        if self._own_socket_dir and os.path.isdir(self._own_socket_dir):
            try:
                os.rmdir(self._own_socket_dir)
            except OSError:
                pass

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- conveniences -------------------------------------------------------

    def client(self, **kwargs):
        """A :class:`~repro.service.client.ServiceClient` for this
        server's address (kwargs pass through, e.g. backoff knobs)."""
        from .client import ServiceClient
        if self.socket_path is not None:
            return ServiceClient(socket_path=self.socket_path, **kwargs)
        return ServiceClient(host=self.host, port=self.port, **kwargs)

    @property
    def address(self) -> str:
        if self.socket_path is not None:
            return f"unix:{self.socket_path}"
        return f"tcp:{self.host}:{self.port}"
