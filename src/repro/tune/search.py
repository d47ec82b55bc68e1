"""The autotuner search: measure the lattice, reject, elect.

The search space is **pattern x opt level x model-pass subset**.  Left
unpruned, the subset axis alone is 2^|catalog|; the static prior cuts
it down: :func:`repro.optim.suggest_optimizations` names exactly the
passes that will change *this* machine (its documented ordering
contract — suggestions come back in ``DEFAULT_PIPELINE`` order — is
what makes the subsets canonical), and :func:`pass_subsets` takes every
subset of that list, preserving pipeline order.  Passes the advisor
did not suggest cannot change the model, so omitting them loses no
measurement.

A second pruning happens for free in the engine: two subsets that
produce the *same* optimized machine fingerprint share one cached
``vm_conformance`` measurement, so the number of simulations is
``patterns x levels x distinct optimized machines``, not
``x 2^|prior|``.

Every cell is measured on the :mod:`repro.vm` simulator over the
*original* machine's :class:`~repro.tune.record.EventProfile`
scenarios (simulated cycles — deterministic on any host).  Cells whose
executed trace diverges from the reference interpreter are **rejected**
(``tune_cells_total{outcome="rejected"}``): a fast wrong configuration
is not a configuration.  The winner is the lowest
:class:`~repro.tune.record.ObjectiveWeights` score among conformant
cells, tie-broken by (pattern, level, passes) so the election is
deterministic.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..codegen import ALL_PATTERNS
from ..compiler import OptLevel
from ..compiler.target import TargetDescription, resolve_target
from ..obs.metrics import REGISTRY
from ..obs.trace import span as _span
from ..optim.advisor import suggest_optimizations
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .record import CellResult, EventProfile, ObjectiveWeights, TuningRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine import ExperimentEngine

__all__ = ["DEFAULT_LEVELS", "pass_subsets", "run_search"]

#: Levels the tuner sweeps by default: the full ladder, not just the
#: paper's -Os — "fastest" at O2 vs "smallest" at -Os is exactly the
#: trade the frontier exists to show.
DEFAULT_LEVELS: Tuple[OptLevel, ...] = (OptLevel.O0, OptLevel.O1,
                                        OptLevel.O2, OptLevel.OS)

_CELLS = REGISTRY.counter(
    "tune_cells_total",
    "autotuner cells measured, by outcome (conformant / rejected)")


def pass_subsets(prior: Sequence[str]) -> List[Tuple[str, ...]]:
    """Every subset of the static prior, each in pipeline order.

    The prior is already pipeline-ordered (the advisor's contract) and
    :func:`itertools.combinations` preserves input order, so each
    subset is a valid pass selection as-is.  Subsets are enumerated
    smallest-first (the empty subset — the unoptimized baseline —
    always measured first)."""
    ordered = list(dict.fromkeys(prior))
    return [subset for size in range(len(ordered) + 1)
            for subset in combinations(ordered, size)]


def run_search(engine: "ExperimentEngine", machine: StateMachine,
               target: Union[TargetDescription, str, None] = None,
               objective: Optional[ObjectiveWeights] = None,
               profile: Optional[EventProfile] = None,
               patterns: Optional[Sequence[str]] = None,
               levels: Optional[Sequence[OptLevel]] = None,
               semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
               ) -> TuningRecord:
    """Measure the pruned lattice through *engine* and elect a winner.

    Callers normally reach this through the caching wrapper
    :meth:`repro.engine.ExperimentEngine.tune`; calling it directly
    re-runs the election but still hits the engine's per-measurement
    caches.
    """
    from ..engine.fingerprint import machine_fingerprint
    tgt = resolve_target(target)
    objective = objective if objective is not None else ObjectiveWeights()
    profile = profile if profile is not None else EventProfile()
    pattern_names = list(patterns) if patterns is not None \
        else [gen_cls.name for gen_cls in ALL_PATTERNS]
    level_list = list(levels) if levels is not None else list(DEFAULT_LEVELS)

    prior = tuple(s.pass_name
                  for s in suggest_optimizations(machine, semantics))
    subsets = pass_subsets(prior)
    cells = [(pattern, level, subset) for pattern in pattern_names
             for level in level_list for subset in subsets]

    def measure(cell) -> CellResult:
        pattern, level, subset = cell
        sp = _span("tune.cell")
        if sp.recording:
            sp.set(pattern=pattern, level=level.value,
                   passes="+".join(subset) or "none")
        with sp:
            optimized = engine.optimize_model(
                machine, selection=list(subset),
                semantics=semantics).optimized
            report = engine.vm_conformance(
                optimized, pattern=pattern, level=level, target=tgt,
                semantics=semantics, scenario_machine=machine,
                **profile.params())
            outcome = "conformant" if report.conformant else "rejected"
            _CELLS.inc(outcome=outcome)
            if sp.recording:
                sp.set(outcome=outcome)
            return CellResult(
                pattern=pattern, level=level.value, passes=subset,
                conformant=report.conformant,
                cycles_per_event=report.cycles_per_event,
                text_bytes=report.text_bytes,
                peak_dispatch_cycles=report.peak_dispatch_cycles,
                score=objective.score(report.cycles_per_event,
                                      report.text_bytes,
                                      report.peak_dispatch_cycles))

    sp = _span("tune.search")
    if sp.recording:
        sp.set(machine=machine.name, target=tgt.name, cells=len(cells),
               prior="+".join(prior) or "none")
    with sp:
        measured = [measure(cell) for cell in cells]
    return TuningRecord.fresh(
        machine_name=machine.name,
        machine_fingerprint=machine_fingerprint(machine),
        target=tgt.name, objective=objective, profile=profile,
        prior=prior, cells=measured)
