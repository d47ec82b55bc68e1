"""Job descriptions and the deduplicating batch planner.

A *job* is a value object describing one unit of experiment work:

* :class:`CompileJob` — generate code for one machine with one pattern
  and compile it at one level for one target;
* :class:`CompareJob` — the paper's end-to-end experiment (compile
  as-is, optimize the model, compile again, optionally check behavioral
  equivalence).

:func:`plan_batch` folds a grid of jobs into its unique work by content
fingerprint.  Grids produced by the experiment harnesses are full of
repeats — the unoptimized baseline compile shared across patterns, the
``-O0`` point duplicated between sweeps — and the planner guarantees each
is scheduled once while results are reassembled in the input order, so
batch output is deterministic no matter how many workers ran it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..compiler import OptLevel
from ..compiler.target import TargetDescription
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .fingerprint import (compile_fingerprint, machine_fingerprint,
                          semantics_key, target_key)

__all__ = ["CompileJob", "CompareJob", "BatchPlan", "plan_batch"]


@dataclass(frozen=True, eq=False)
class CompileJob:
    """One machine x pattern x level x target compile."""

    machine: StateMachine
    pattern: str = "nested-switch"
    level: OptLevel = OptLevel.OS
    target: Union[TargetDescription, str, None] = None
    semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS

    def fingerprint(self) -> str:
        return compile_fingerprint(self.machine, self.pattern, self.level,
                                   self.target, self.semantics)


@dataclass(frozen=True, eq=False)
class CompareJob:
    """One non-optimized vs model-optimized comparison."""

    machine: StateMachine
    pattern: str = "nested-switch"
    level: OptLevel = OptLevel.OS
    model_optimizations: Optional[Sequence[str]] = None
    check_behavior: bool = True
    semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS
    target: Union[TargetDescription, str, None] = None

    def fingerprint(self) -> str:
        selection = ("default" if self.model_optimizations is None
                     else "|".join(self.model_optimizations))
        return "|".join((
            "compare",
            machine_fingerprint(self.machine),
            self.pattern, self.level.value, target_key(self.target),
            semantics_key(self.semantics), selection,
            str(bool(self.check_behavior)),
        ))


@dataclass
class BatchPlan:
    """The deduplicated execution plan of one job grid."""

    #: fingerprint of each input job, in input order.
    order: List[str] = field(default_factory=list)
    #: fingerprint -> one representative job, in first-seen order.
    unique: "Dict[str, object]" = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        return len(self.order)

    @property
    def n_unique(self) -> int:
        return len(self.unique)

    @property
    def n_deduplicated(self) -> int:
        """Jobs the planner folded away as repeats of earlier work."""
        return self.n_jobs - self.n_unique

    def assemble(self, results_by_fingerprint: Dict[str, object]
                 ) -> List[object]:
        """Results for every input job, in input order."""
        return [results_by_fingerprint[fp] for fp in self.order]


def plan_batch(jobs: Sequence[object]) -> BatchPlan:
    """Fold *jobs* (anything with a ``fingerprint()``) into unique work."""
    plan = BatchPlan()
    for job in jobs:
        fp = job.fingerprint()
        plan.order.append(fp)
        if fp not in plan.unique:
            plan.unique[fp] = job
    return plan
