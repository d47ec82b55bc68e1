"""repro — reproduction of "Toward optimized code generation through
model-based optimization" (Charfi, Mraidha, Gérard, Terrier, Boulet —
DATE 2010).

The package implements the paper's full pipeline:

* :mod:`repro.uml` — UML 2.x state-machine metamodel subset with a fluent
  builder, validation and JSON serialization;
* :mod:`repro.semantics` — configurable run-to-completion interpreter
  (semantic variation points, traces);
* :mod:`repro.analysis` — model analyses: reachability, completion-
  transition shadowing, dead-element detection, metrics;
* :mod:`repro.optim` — the model-level optimization framework (the paper's
  contribution): selectable behaviour-preserving model transformations;
* :mod:`repro.cpp` — a C++ subset AST with pretty printer;
* :mod:`repro.codegen` — the three code-generation patterns studied in
  the paper (Nested Switch, State Pattern, State Transition Table) plus
  the flattened-switch hybrid;
* :mod:`repro.compiler` — "MGCC", a GCC-shaped optimizing compiler:
  GIMPLE IR, SSA, classic optimizations, RTL lowering, register
  allocation, and pluggable targets (``rt32``, ``rt16``) with
  byte-accurate size accounting;
* :mod:`repro.vm` — an RT ISA simulator that assembles and *executes*
  the compiler's output, checks it trace-for-trace against the
  interpreter, and counts deterministic cycles;
* :mod:`repro.engine` — content-addressed compile cache (pluggable
  memory/disk/tiered backends) behind every experiment;
* :mod:`repro.store` — persistent on-disk artifact store: sharded,
  integrity-checked, LRU-collected entries keyed by engine
  fingerprints, safe across processes;
* :mod:`repro.service` — the batch compile service: an asyncio
  JSON-lines server (unix socket / TCP) with request coalescing and a
  ``metrics`` endpoint, a blocking client, and the
  ``python -m repro.service`` CLI;
* :mod:`repro.experiments` — harnesses regenerating the paper's Figure 1,
  Table 1 and Table 2, plus parameter sweeps and the simulated dynamics
  table.

Quickstart::

    from repro import build_flat_example, optimize_and_compare

    result = optimize_and_compare(build_flat_example())
    print(result.summary())
"""

__version__ = "1.0.0"

from .pipeline import (CompareResult, PipelineResult, compile_machine,
                       optimize_and_compare, run_pipeline)
from .experiments.models import (
    flat_machine_with_unreachable_state as build_flat_example,
    hierarchical_machine_with_shadowed_composite as build_hierarchical_example,
)

__all__ = [
    "__version__",
    "CompareResult",
    "PipelineResult",
    "compile_machine",
    "optimize_and_compare",
    "run_pipeline",
    "build_flat_example",
    "build_hierarchical_example",
]
