""":class:`WorkerPool` — the compile workers behind the service.

Work travels as *chunks*: lists of wire-level compile params.  A chunk
is executed start-to-finish by one worker, which is what makes the
locality sort (:mod:`repro.service.batching`) pay off — near-duplicate
jobs grouped into one chunk hit that worker's warm unit cache.
Workers return the canonical result payloads
(:func:`~repro.service.protocol.compile_result_payload`), so a
cluster-served response is byte-identical to an in-process compile.

A pool takes one of two forms, and both run chunks through the same
runner (:meth:`_Worker.run_chunk`):

* **processes** (``WorkerPool(spec, n)``, the cluster).  Pure-Python
  compiles are GIL-bound, so N threads buy no throughput; N worker
  **processes** do.  Each rebuilds its own
  :class:`~repro.engine.ExperimentEngine` from a picklable
  :class:`~repro.engine.EngineSpec` (live engines don't cross process
  boundaries), so every worker owns a private in-memory cache plus the
  unit-tier delta cache — while a spec with ``cache_dir``/``shards``
  points them all at one consistent-hash-sharded on-disk store, making
  the farm's persistent cache coherent without any cross-process locks
  (the :class:`~repro.store.ArtifactStore` is multi-process-safe by
  construction).
* **threads** (``WorkerPool(engine=engine)``, the in-process service):
  ``engine.jobs`` threads of this process share the one live engine,
  which is a single worker in the ``per_worker`` table.

**Fault tolerance**: an abruptly dead worker breaks the whole
``ProcessPoolExecutor`` (every pending future raises
``BrokenProcessPool``).  The pool treats that as a *pool generation*
change: the first completion callback to notice rebuilds the executor
exactly once, and every interrupted chunk is resubmitted on the new
generation, up to :data:`MAX_RETRIES` times.  Deterministic failures (a
malformed machine) are *not* retried — they propagate to the one
request that caused them.  All fault counters surface in the
``metrics`` endpoint.

Workers honor test-only *chaos* directives (``{"chaos": {...}}`` in a
job's params) **only** when the pool was built with
``allow_chaos=True`` — the fault-injection suite uses them to kill a
worker mid-batch (``exit_before`` a marker file: die once, then
succeed on retry), to crash-loop (``exit_always``), and to stub a slow
worker (``sleep``).  In a thread-backed pool an exit directive ends
the server process itself.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import (Future, ProcessPoolExecutor,
                                ThreadPoolExecutor)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence

from ..engine import EngineSpec, ExperimentEngine
from ..obs.trace import SpanContext, get_tracer

__all__ = ["WorkerPool", "PoolStats", "MAX_RETRIES"]

#: Counters a worker's cache snapshot carries (summed across workers).
_STAT_KEYS = ("jobs", "hits", "misses", "disk_hits", "unit_hits",
              "unit_misses", "unit_disk_hits", "reused_units",
              "compiled_units")

#: Resubmissions of a chunk interrupted by a worker death.
MAX_RETRIES = 2

#: Worker processes start by spawn: forking a live asyncio server
#: process (event loop + executor threads holding locks) is a deadlock
#: lottery.
_MP_METHOD = "spawn"


def _apply_chaos(chaos: Dict[str, Any]) -> None:
    """Honor one job's fault-injection directive (test pools only)."""
    sleep_s = chaos.get("sleep")
    if sleep_s:
        time.sleep(float(sleep_s))
    marker = chaos.get("exit_before")
    if marker:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass                 # already died here once: proceed
        else:
            os.close(fd)
            os._exit(13)         # simulate a hard worker death mid-chunk
    if chaos.get("exit_always"):
        os._exit(13)


class _Worker:
    """One compile worker: its engine, the token naming it in
    ``per_worker``, and the number of jobs it compiled.  A worker
    process holds one in :data:`_WORKER`; a thread-backed pool shares
    one across its threads."""

    def __init__(self, engine: ExperimentEngine, allow_chaos: bool) -> None:
        self.engine = engine
        self.token = os.urandom(8).hex()
        self.allow_chaos = bool(allow_chaos)
        self.jobs = 0
        self._lock = threading.Lock()

    def snapshot(self) -> Dict[str, Any]:
        # Jobs first: a job is counted after its cache lookups, so this
        # snapshot holds the cache work of every job it counts, and the
        # snapshot with the most jobs is the freshest.
        jobs = self.jobs
        engine = self.engine
        # snapshot() reads each CacheStats under one lock acquisition — a
        # field-by-field read here could tear against a concurrent compile.
        stats = engine.stats.snapshot()
        units = engine.unit_stats.snapshot()
        delta = engine.delta_stats
        return {
            "token": self.token,
            "pid": os.getpid(),
            "jobs": jobs,
            "hits": stats["hits"],
            "misses": stats["misses"],
            "disk_hits": stats["disk_hits"],
            "unit_hits": units["hits"],
            "unit_misses": units["misses"],
            "unit_disk_hits": units["disk_hits"],
            "reused_units": delta.reused_units,
            "compiled_units": delta.compiled_units,
        }

    def run_chunk(self, chunk: Sequence[Dict[str, Any]],
                  trace_ctx: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
        """Compile every job of *chunk* on this worker's engine.

        *trace_ctx* is the server's batch-span wire context; when
        present, this worker's spans (chunk, per-job compile, and
        everything the engine emits underneath) re-parent under it and
        ship back in the reply's ``spans`` field, piggybacked on the
        payloads.
        """
        from .protocol import compile_result_payload, job_from_params
        tracer = get_tracer()
        parent = SpanContext.from_wire(trace_ctx)
        chunk_span = tracer.span("worker.chunk", parent=parent)
        if chunk_span.recording:
            chunk_span.set(jobs=len(chunk), pid=os.getpid())
        started = time.perf_counter()
        payloads: List[Dict[str, Any]] = []
        with chunk_span:
            for params in chunk:
                if self.allow_chaos and isinstance(params.get("chaos"), dict):
                    _apply_chaos(params["chaos"])
                job = job_from_params(params)
                with tracer.span("worker.compile") as job_span:
                    result = self.engine.compile_machine(
                        job.machine, pattern=job.pattern, level=job.level,
                        target=job.target, semantics=job.semantics)
                    if job_span.recording:
                        job_span.set(machine=job.machine.name,
                                     pattern=job.pattern)
                payloads.append(compile_result_payload(
                    job, result, want_asm=bool(params.get("want_asm"))))
                with self._lock:
                    self.jobs += 1
        reply = {
            "payloads": payloads,
            "busy_s": time.perf_counter() - started,
            "stats": self.snapshot(),
        }
        if chunk_span.recording:
            reply["spans"] = tracer.drain(chunk_span.trace_id)
        return reply

    def ping(self, sleep_s: float) -> str:
        """Startup barrier task: occupy one worker long enough that the
        pool spins up its siblings; returns the worker token."""
        time.sleep(sleep_s)
        return self.token


# ---------------------------------------------------------------------------
# worker-process side (module-level: must be picklable by spawn)
# ---------------------------------------------------------------------------

_WORKER: Optional[_Worker] = None


def _init_worker(spec: EngineSpec, allow_chaos: bool) -> None:
    global _WORKER
    _WORKER = _Worker(spec.build(), allow_chaos)


def _run_chunk(chunk: Sequence[Dict[str, Any]],
               trace_ctx: Optional[Dict[str, Any]] = None
               ) -> Dict[str, Any]:
    return _WORKER.run_chunk(chunk, trace_ctx)


def _ping(sleep_s: float) -> str:
    return _WORKER.ping(sleep_s)


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------

class PoolStats:
    """Thread-safe fault counters of one pool."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.deaths = 0            # pool-breaking worker exits observed
        self.restarts = 0          # executor rebuilds performed
        self.retried_chunks = 0    # chunks resubmitted after a death
        self.failed_chunks = 0     # chunks abandoned (retries exhausted)

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + by)

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {"deaths": self.deaths, "restarts": self.restarts,
                    "retried_chunks": self.retried_chunks,
                    "failed_chunks": self.failed_chunks}


class WorkerPool:
    """Compile workers behind a retrying submit surface: *workers*
    spawn processes built from *spec* or, given a live *engine*,
    ``engine.jobs`` threads of this process sharing it."""

    def __init__(self, spec: Optional[EngineSpec] = None, workers: int = 1,
                 allow_chaos: bool = False,
                 engine: Optional[ExperimentEngine] = None) -> None:
        self.spec = spec if spec is not None else EngineSpec()
        self.allow_chaos = bool(allow_chaos)
        self._threads = engine is not None
        if self._threads:
            local = _Worker(engine, allow_chaos)
            self.workers = engine.jobs
            self._run_chunk, self._ping = local.run_chunk, local.ping
        else:
            self.workers = max(1, int(workers))
            self._run_chunk, self._ping = _run_chunk, _ping
        self.stats = PoolStats()
        self._lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._worker_stats: Dict[str, Dict[str, Any]] = {}
        self._executor = self._new_executor()

    # -- lifecycle ----------------------------------------------------------

    def _new_executor(self):
        if self._threads:
            return ThreadPoolExecutor(max_workers=self.workers,
                                      thread_name_prefix="repro-compile")
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(_MP_METHOD),
            initializer=_init_worker,
            initargs=(self.spec, self.allow_chaos))

    def wait_ready(self, timeout: float = 60.0) -> int:
        """Block until every worker is up (a worker process has built
        its engine); returns the number of distinct workers seen, 1 for
        a thread-backed pool.  Load generators call this so pool
        spin-up is excluded from throughput windows."""
        barrier = [self._executor.submit(self._ping, 0.2)
                   for _ in range(self.workers)]
        tokens = {future.result(timeout=timeout) for future in barrier}
        return len(tokens)

    def shutdown(self) -> None:
        with self._lock:
            self._closed = True
            executor = self._executor
        executor.shutdown(wait=False, cancel_futures=True)

    # -- submission ---------------------------------------------------------

    def submit_chunk(self, chunk: Sequence[Dict[str, Any]],
                     trace_ctx: Optional[Dict[str, Any]] = None
                     ) -> "Future":
        """Run *chunk* on one worker; the future resolves to the worker
        reply (``payloads`` + ``busy_s`` + ``stats``, plus ``spans``
        when *trace_ctx* carries a recording trace).  Worker deaths are
        retried transparently up to :data:`MAX_RETRIES` times."""
        outer: Future = Future()
        # Running from the start: a requester that stops waiting cancels
        # its own await, not this future, so a late reply still lands.
        outer.set_running_or_notify_cancel()
        self._submit(list(chunk), outer, MAX_RETRIES, trace_ctx)
        return outer

    def _submit(self, chunk: List[Dict[str, Any]], outer: Future,
                retries_left: int,
                trace_ctx: Optional[Dict[str, Any]] = None) -> None:
        with self._lock:
            if self._closed:
                outer.set_exception(
                    RuntimeError("worker pool is shut down"))
                return
            generation = self._generation
            try:
                inner = self._executor.submit(self._run_chunk, chunk,
                                              trace_ctx)
            except BrokenProcessPool as exc:
                # The pool broke between submissions; rebuild inline.
                self._rebuild_locked(generation)
                if retries_left > 0:
                    self.stats.bump("retried_chunks")
                    generation = self._generation
                    try:
                        inner = self._executor.submit(self._run_chunk,
                                                      chunk, trace_ctx)
                        retries_left -= 1
                    except BrokenProcessPool as again:
                        self.stats.bump("failed_chunks")
                        outer.set_exception(again)
                        return
                else:
                    self.stats.bump("failed_chunks")
                    outer.set_exception(exc)
                    return

        def on_done(done: Future, _gen: int = generation,
                    _retries: int = retries_left) -> None:
            if done.cancelled():         # shutdown dropped the chunk
                outer.set_exception(
                    RuntimeError("worker pool is shut down"))
                return
            exc = done.exception()
            if exc is None:
                reply = done.result()
                self._note_stats(reply.get("stats"))
                outer.set_result(reply)
                return
            if isinstance(exc, BrokenProcessPool):
                with self._lock:
                    self._rebuild_locked(_gen)
                if _retries > 0:
                    self.stats.bump("retried_chunks")
                    self._submit(chunk, outer, _retries - 1, trace_ctx)
                    return
                self.stats.bump("failed_chunks")
            outer.set_exception(exc)

        inner.add_done_callback(on_done)

    def _rebuild_locked(self, generation: int) -> None:
        """Replace a broken executor (callers hold ``self._lock`` or
        are inside a ``with self._lock`` block).  Many chunks observe
        one death; the generation counter makes exactly one of them
        perform the rebuild."""
        self.stats.bump("deaths")
        if generation != self._generation or self._closed:
            return
        old = self._executor
        self._executor = self._new_executor()
        self._generation += 1
        self.stats.bump("restarts")
        # Old executor's processes are gone; reap its bookkeeping
        # without waiting (its futures already errored).
        threading.Thread(target=old.shutdown, kwargs={"wait": False},
                         daemon=True).start()

    # -- introspection ------------------------------------------------------

    def _note_stats(self, snapshot: Optional[Dict[str, Any]]) -> None:
        if not snapshot or "token" not in snapshot:
            return
        with self._lock:
            previous = self._worker_stats.get(snapshot["token"])
            # Threads sharing one worker can report out of order; keep
            # the snapshot that has counted the most jobs.
            if previous is None or snapshot["jobs"] >= previous["jobs"]:
                self._worker_stats[snapshot["token"]] = snapshot

    def aggregate_stats(self) -> Dict[str, Any]:
        """Summed cache counters across the latest snapshot of every
        worker ever seen (dead workers' last words included — their
        cache work happened)."""
        with self._lock:
            snapshots = list(self._worker_stats.values())
        totals = {key: 0 for key in _STAT_KEYS}
        for snapshot in snapshots:
            for key in _STAT_KEYS:
                totals[key] += int(snapshot.get(key, 0))
        totals["workers_reporting"] = len(snapshots)
        return totals

    def per_worker(self) -> List[Dict[str, Any]]:
        with self._lock:
            return sorted(self._worker_stats.values(),
                          key=lambda s: (s.get("pid", 0),
                                         s.get("token", "")))
