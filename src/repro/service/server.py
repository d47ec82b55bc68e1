""":class:`CompileService` — an asyncio JSON-lines compile server,
scalable from one in-process engine to a multi-worker sharded cluster.

Every compile goes through one path: the request is deduplicated and
coalesced by its canonical digest, admitted to the bounded queue, and
run in chunks on a :class:`~repro.service.workers.WorkerPool`.  The
two execution modes differ only in what backs that pool:

* **in-process** (default, ``workers=0``): one compile thread of this
  process runs every chunk on one live
  :class:`~repro.engine.ExperimentEngine`.  Simple, great for tests
  and warm disk-served traffic — but CPU-heavy traffic serializes.
* **cluster** (``workers=N``): N worker *processes*, each rebuilding
  its engine from one picklable :class:`~repro.engine.EngineSpec` —
  same backend topology everywhere, typically a consistent-hash-sharded
  on-disk store (``cache_dir``/``shards``), so the farm shares one
  coherent persistent cache while each worker keeps a private hot
  memory + unit tier.  Dead workers are respawned and their chunks
  retried.

Batches are deduplicated, **locality-sorted** (near-duplicate jobs
ride one chunk to one worker's warm unit cache) and split into at most
two chunks per worker.

**Backpressure**: ``queue_limit`` bounds admitted-but-unfinished
compile jobs.  A request that would exceed the bound is answered
*immediately* with a ``busy`` reply (the 429 of this wire protocol —
``{"ok": false, "busy": true, "retry": true}``) instead of being
buffered without bound; :class:`~repro.service.client.ServiceClient`
retries those with exponential backoff.  A single batch with more
unique jobs than the whole queue is rejected with ``retry: false`` (it
could never be admitted).

**Request coalescing**: identical compile jobs in flight at the same
time are folded onto a single computation; late arrivals await the
same task and are counted as *coalesced*.

**Observability**: every request lands in per-endpoint latency
histograms; connection and request totals, queue depth/high-water/
rejections, worker utilization and fault counters, cache hit rates and
shard sizes are served by the ``metrics`` operation
(:mod:`repro.service.metrics`) as scrape-stable JSON — the CI SLO gate
reads exactly this document.

:class:`ServiceThread` wraps server + event loop in a background
thread behind a context manager — the sync-world entry point examples,
tests and the docs use.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

from ..engine import EngineSpec, ExperimentEngine, ShardedBackend
from ..obs.trace import NOOP_SPAN, SpanContext, get_tracer
from .batching import (dedup_params, params_digest, plan_chunks,
                       sort_for_locality)
from .metrics import ServiceMetrics
from .protocol import MAX_LINE_BYTES, decode_message, encode_message
from .workers import WorkerPool

__all__ = ["BusyRejection", "CompileService", "start_service",
           "ServiceThread"]

#: Message keys that describe one compile job on the wire.
_JOB_PARAM_KEYS = ("machine", "pattern", "level", "target", "semantics",
                   "want_asm", "chaos")

#: The wire operations.  Metric labels and span names use these, and
#: ``invalid`` for anything else, so client input cannot mint series.
_OPS = ("ping", "metrics", "compile", "batch")


class BusyRejection(Exception):
    """The bounded queue cannot admit this request right now."""

    def __init__(self, message: str, retry: bool = True) -> None:
        super().__init__(message)
        self.retry = retry


class CompileService:
    """Routes wire requests onto a worker pool: a compile thread over a
    live engine, or worker processes built from an :class:`EngineSpec`."""

    def __init__(self, engine: Optional[ExperimentEngine] = None,
                 workers: int = 0,
                 engine_spec: Optional[EngineSpec] = None,
                 queue_limit: Optional[int] = None,
                 allow_chaos: bool = False) -> None:
        self.workers = max(0, int(workers))
        self.engine_spec = engine_spec
        if self.workers > 0:
            if engine is not None:
                raise ValueError("a cluster rebuilds engines from an "
                                 "EngineSpec; pass engine_spec=, not a "
                                 "live engine")
            self.engine = None
            self.pool = WorkerPool(engine_spec, self.workers,
                                   allow_chaos=allow_chaos)
        else:
            self.engine = engine if engine is not None else \
                ExperimentEngine()
            self.pool = WorkerPool(engine=self.engine,
                                   allow_chaos=allow_chaos)
        self.queue_limit = queue_limit
        self.metrics = ServiceMetrics(queue_limit=queue_limit,
                                      registry=self.pool.registry)
        #: request digest -> in-flight task (coalescing).
        self._inflight: Dict[str, asyncio.Task] = {}
        #: Live :meth:`handle_client` tasks (see :meth:`drop_connections`).
        self._connections: Set[asyncio.Task] = set()
        self._shard_view: Optional[ShardedBackend] = None

    def close(self) -> None:
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
        """Cancel every connection handler and in-flight compile and
        wait until each has finished.  A shutdown runs this before the
        loop stops: a handler still awaiting an idle client's next line,
        or a coalesced compile awaiting its chunk, would be destroyed
        pending, and ``Server.wait_closed()`` (3.12) waits for open
        connections."""
        tasks = [*self._connections, *self._inflight.values()]
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)

    async def handle_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        self.metrics.connect()
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
                response = await self._handle_line(line)
                writer.write(encode_message(response))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
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
            result = await self._dispatch(op, message, span)
        except BusyRejection as busy:
            self.metrics.reject()
            self.metrics.observe(label, time.perf_counter() - started,
                                 "busy")
            return self._finish_span(span, remote, "busy", {
                "id": request_id, "ok": False, "busy": True,
                "retry": busy.retry, "error": str(busy)})
        except Exception as exc:
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

    async def _dispatch(self, op: Any, message: Dict[str, Any],
                        span=NOOP_SPAN) -> Dict[str, Any]:
        if op == "ping":
            from .. import __version__
            return {"pong": True, "version": __version__}
        if op == "metrics":
            return self.metrics_payload()
        if op == "compile":
            return await self._compile_one(message, span)
        if op == "batch":
            return await self._compile_batch(message, span)
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

    # -- compile ------------------------------------------------------------

    async def _run_chunk(self, chunk: List[Dict[str, Any]],
                         n_jobs: int,
                         trace_ctx: Optional[Dict[str, str]] = None
                         ) -> Dict[str, Any]:
        """One chunk through the worker pool, with queue accounting.
        Worker spans piggybacked on the reply are ingested here so the
        request's final drain ships them back to the client."""
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

    async def _compile_one(self, message: Dict[str, Any],
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
            task = loop.create_task(self._run_chunk(
                [params], 1,
                span.ctx.to_wire() if span.recording else None))
            self._inflight[key] = task
            task.add_done_callback(
                lambda _t, _key=key: self._inflight.pop(_key, None))
        else:
            self.metrics.coalesce()
        # shield: one requester disconnecting must not cancel the shared
        # computation other requesters of the same key are awaiting.
        reply = await asyncio.shield(task)
        return reply["payloads"][0]

    async def _compile_batch(self, message: Dict[str, Any],
                             span=NOOP_SPAN) -> Dict[str, Any]:
        raw_jobs = message.get("jobs")
        if not isinstance(raw_jobs, list):
            raise ValueError("batch needs a 'jobs' array")
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
            loop.create_task(self._run_chunk(
                [params for _, params in chunk], len(chunk), trace_ctx))
            for chunk in chunks
        ]
        try:
            replies = await asyncio.gather(*dispatched)
        except BaseException:
            for task in dispatched:    # queue accounting still drains
                task.cancel()          # via _run_chunk's except path
            raise
        by_digest: Dict[str, Dict[str, Any]] = {}
        for chunk, reply in zip(chunks, replies):
            for (digest, _), payload in zip(chunk, reply["payloads"]):
                by_digest[digest] = payload
        return {"results": [by_digest[digest] for digest in order],
                "deduplicated": len(order) - n_unique}

    # -- introspection ------------------------------------------------------

    def _shard_sizes(self) -> Optional[Dict[str, int]]:
        """Entry counts per store shard, when a sharded disk tier is in
        reach (directly on the engine backend, or rebuilt read-only
        from the cluster's spec)."""
        backend = None
        if self.engine is not None:
            backend = self.engine.cache.backend
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
        """The ``metrics`` operation: scrape-stable service telemetry."""
        cache = self.pool.aggregate_stats()
        lookups = cache["hits"] + cache["misses"]
        cache["lookups"] = lookups
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        payload = self.metrics.payload(
            workers=self.workers, cache=cache,
            shard_sizes=self._shard_sizes(),
            worker_counters=self.pool.worker_counters())
        payload["workers"]["per_worker"] = self.pool.per_worker()
        return payload


async def start_service(engine: Optional[ExperimentEngine] = None,
                        socket_path: Optional[str] = None,
                        host: Optional[str] = None,
                        port: Optional[int] = None,
                        workers: int = 0,
                        engine_spec: Optional[EngineSpec] = None,
                        queue_limit: Optional[int] = None,
                        allow_chaos: bool = False,
                        ) -> Tuple[asyncio.AbstractServer, CompileService]:
    """Start serving on a unix socket (*socket_path*) or TCP
    (*host*/*port*); returns ``(asyncio server, service)``.

    Compiles run on a thread over *engine* (a fresh one by default) or,
    with ``workers > 0``, on a process pool built from *engine_spec*
    (see :class:`CompileService`)."""
    service = CompileService(engine, workers=workers,
                             engine_spec=engine_spec,
                             queue_limit=queue_limit,
                             allow_chaos=allow_chaos)
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
                 queue_limit: Optional[int] = None,
                 allow_chaos: bool = False) -> None:
        self.workers = max(0, int(workers))
        self.engine_spec: Optional[EngineSpec] = None
        if self.workers > 0:
            self.engine_spec = EngineSpec(backend=backend,
                                          cache_dir=cache_dir, shards=shards)
        elif engine is None and (cache_dir or backend or shards > 1):
            engine = ExperimentEngine(backend=backend, cache_dir=cache_dir,
                                      shards=shards)
        self.engine = engine
        self.queue_limit = queue_limit
        self.allow_chaos = allow_chaos
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
                          allow_chaos=self.allow_chaos), self._loop)
        self.server, self.service = future.result(timeout=30)
        if self.socket_path is None:
            self.port = self.server.sockets[0].getsockname()[1]
        return self

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    def wait_workers_ready(self, timeout: float = 60.0) -> int:
        """Block until every worker is up (1 for an in-process pool);
        load generators call this so spin-up never skews a
        measurement."""
        if self.service is None:
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
