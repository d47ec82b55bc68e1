"""Profile-guided optimization autotuning (closing the paper's §VI loop).

"We plan to improve our tool in a way that it automatically executes
optimizations" — :mod:`repro.optim.advisor` answers that *statically*
(which passes will change the model); this package answers it
*dynamically*: which (pattern, opt level, model-pass subset) actually
runs fastest / smallest **for this machine and this event profile**,
measured on the :mod:`repro.vm` simulator rather than guessed from
model shape.

* :mod:`repro.tune.record` — the vocabulary: :class:`ObjectiveWeights`
  (the scalarized objective), :class:`EventProfile` (the scenario
  workload the measurements run over), :class:`CellResult` (one
  measured configuration) and the schema-stamped
  :class:`TuningRecord` (winner + full measured frontier +
  fingerprints, canonically serializable so warm reruns are
  byte-identical).
* :mod:`repro.tune.search` — the search itself: the pass-subset
  lattice pruned by :func:`repro.optim.suggest_optimizations` (the
  static prior), every cell measured through the engine's cached
  ``vm_conformance`` (simulated cycles/event, peak dispatch, encoded
  text bytes — all deterministic), non-conformant cells rejected,
  winner = minimum objective score among conformant cells.
* ``python -m repro.tune`` — ``search | show | apply``.

Entry points: :meth:`repro.engine.ExperimentEngine.tune` (cached) and
:func:`repro.pipeline.tuned_compile` (compile with the winning
configuration).
"""

from .record import (CellResult, EventProfile, ObjectiveWeights,
                     TuningError, TuningRecord)
from .search import pass_subsets, run_search

__all__ = ["CellResult", "EventProfile", "ObjectiveWeights",
           "TuningError", "TuningRecord", "pass_subsets", "run_search"]
