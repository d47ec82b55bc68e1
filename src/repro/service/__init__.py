"""Batch compile service: compilation offered over a socket, scalable
to a multi-worker sharded cluster.

The engine (:mod:`repro.engine`) made repeated work cheap *within* a
process and the store (:mod:`repro.store`) made artifacts outlive one;
this package makes compilation a *service* so many clients — CLI
invocations, CI shards, notebooks — share one hot engine without
sharing a process:

* :mod:`~repro.service.protocol` — the JSON-lines wire format: request
  and response shapes, machine/semantics (de)serialization, and the
  canonical result payload (built by the same function the in-process
  path uses, so service answers are identical to local engine runs);
* :mod:`~repro.service.server` — :class:`CompileService`, an asyncio
  server over a unix socket or TCP port, with bounded-queue
  backpressure (``busy`` replies) and a ``metrics`` endpoint.  Every
  compile runs in chunks on a worker pool: one thread over one
  :class:`~repro.engine.ExperimentEngine` in-process, or
  (``workers=N``) processes over a consistent-hash-sharded store.
  :class:`ServiceThread` runs the whole thing on a background thread
  for examples/tests;
* :mod:`~repro.service.workers` — :class:`WorkerPool`, the chunk
  runner's pool: a thread over a live engine, or fault-tolerant
  processes (dead workers are respawned, interrupted chunks retried);
* :mod:`~repro.service.batching` — batch dedup, the unit-cache
  locality sort, and chunk planning;
* :mod:`~repro.service.metrics` — latency histograms and the
  scrape-stable ``metrics`` JSON document;
* :mod:`~repro.service.loadgen` — mixed-workload load generator and
  payload verifier (the CI SLO gate's measurement core);
* :mod:`~repro.service.client` — :class:`ServiceClient`, a thin
  blocking client with busy-reply backoff.

CLI: ``python -m repro.service serve|submit|metrics|loadgen``.
"""

from .batching import (dedup_params, params_digest, plan_chunks,
                       sort_for_locality)
from .client import ServiceBusy, ServiceClient, ServiceError
from .loadgen import (LoadgenSpec, LoadReport, build_corpus, run_load,
                      verify_payloads)
from .metrics import METRICS_SCHEMA_VERSION, ServiceMetrics
from .protocol import (compile_params, compile_result_payload,
                       job_from_params, parse_opt_level,
                       semantics_from_dict, semantics_to_dict)
from .server import (BusyRejection, CompileService, ServiceThread,
                     start_service)
from .workers import WorkerPool

__all__ = [
    "ServiceClient", "ServiceError", "ServiceBusy",
    "CompileService", "ServiceThread", "start_service", "BusyRejection",
    "WorkerPool",
    "ServiceMetrics", "METRICS_SCHEMA_VERSION",
    "LoadgenSpec", "LoadReport", "build_corpus", "run_load",
    "verify_payloads",
    "params_digest", "dedup_params", "sort_for_locality", "plan_chunks",
    "compile_params", "compile_result_payload", "job_from_params",
    "parse_opt_level", "semantics_from_dict", "semantics_to_dict",
]
