"""Cached experiment engine.

The pattern x target x level grid every experiment walks is a
configuration-selection problem over shared work: most cells repeat the
same model optimization or baseline compile.  This package provides the
machinery to exploit that:

* :mod:`~repro.engine.fingerprint` — stable content fingerprints of
  jobs, stamped with the repro serialization schema generation;
* :mod:`~repro.engine.backends` — pluggable value storage
  (:class:`CacheBackend`): in-process memory, the persistent on-disk
  :mod:`repro.store`, tiered memory-over-disk, or consistent-hash
  sharding over N store shards (:class:`ShardedBackend`);
* :mod:`~repro.engine.cache` — a thread-safe content-addressed result
  cache with hit/miss statistics and in-flight deduplication over any
  backend;
* :mod:`~repro.engine.jobs` — job value objects and the deduplicating
  batch planner;
* :mod:`~repro.engine.core` — :class:`ExperimentEngine`, the cached,
  batched call surface the experiments, CLI, benchmarks and the
  compile service all go through.
"""

from .backends import (CacheBackend, DiskBackend, MemoryBackend,
                       ShardedBackend, TieredBackend, backend_from_spec)
from .cache import CacheStats, CompileCache
from .core import EngineSpec, ExperimentEngine
from .fingerprint import (compile_fingerprint, equivalence_fingerprint,
                          machine_fingerprint, optimize_fingerprint,
                          semantics_key, target_key)
from .jobs import BatchPlan, CompareJob, CompileJob, plan_batch

__all__ = [
    "CacheStats", "CompileCache", "EngineSpec", "ExperimentEngine",
    "CacheBackend", "MemoryBackend", "DiskBackend", "ShardedBackend",
    "TieredBackend", "backend_from_spec",
    "compile_fingerprint", "equivalence_fingerprint",
    "machine_fingerprint", "optimize_fingerprint", "semantics_key",
    "target_key",
    "BatchPlan", "CompareJob", "CompileJob", "plan_batch",
]
