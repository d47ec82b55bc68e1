"""The N-way differential oracle.

For one :class:`~repro.fuzz.case.FuzzCase` the oracle runs every
stimulus through

1. the **reference**: the UML interpreter on the case machine;
2. the **model-optimizer executor**: the interpreter on the optimized
   clone (default pipeline — or the deliberately broken pipeline when
   ``inject_bug``/an explicit ``model_selection`` says so);
3. the **fleet**: the vectorized table engine on the case machine;
4. one **compiled VM per grid cell**: pattern × optimization level ×
   target, generated, compiled, assembled and executed on the ISA
   simulator.

Each executor run is one :func:`repro.exec.cached_observations` call —
the :mod:`repro.exec` differential runner behind the
:class:`~repro.engine.ExperimentEngine`'s content-addressed cache,
which dedupes repeated (machine, stimuli, executor) work across cases,
shrink attempts and corpus replays.  Every executor is judged against
the reference by the runner's one rule (:func:`repro.exec.diff`).

Cases whose *reference* run is not well defined (the interpreter raises
— unguarded completion cycles, emit storms past the RTC budget — or an
attribute assignment leaves the simulator's 32-bit value range) are
**rejected**, not failed: like Csmith skipping undefined-behavior
programs, the oracle only judges executors on programs the semantics
fully defines.  A grid cell whose codegen pattern *documents* the
machine as unsupported (``unsupported:`` observations, e.g.
cross-region transitions under nested-switch) is counted as skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from ..compiler.driver import OptLevel
from ..engine import ExperimentEngine
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .bugs import INJECTED_PIPELINE, buggy_pass_manager
from .case import FuzzCase

if TYPE_CHECKING:
    from ..exec import Executor, Observation

__all__ = ["OracleConfig", "Divergence", "CaseResult",
           "DifferentialOracle", "MODEL_OPT_EXECUTOR", "FLEET_EXECUTOR",
           "VALUE_BOUND"]

#: Executor id of the model-optimizer comparison.
MODEL_OPT_EXECUTOR = "model-opt"

#: Executor id of the vectorized table engine (:mod:`repro.fleet`).
FLEET_EXECUTOR = "fleet"

#: Reference runs assigning any |value| beyond this are rejected: the
#: simulator stores attributes in 32-bit words, the interpreter in
#: unbounded Python ints, so only the agreeing range is well defined.
VALUE_BOUND = 2 ** 31 - 1

_LEVELS = {level.value: level for level in OptLevel}


def _vm_executor_id(pattern: str, level: OptLevel, target: str) -> str:
    return f"vm:{pattern}/{level.value}/{target}"


@dataclass(frozen=True)
class OracleConfig:
    """Which executors one oracle run compares.

    ``patterns=None`` means *unpinned*: a direct oracle run uses
    flat-switch, and the :class:`~repro.fuzz.runner.FuzzRunner`
    rotates one pattern per case.  An explicit tuple pins the grid —
    the runner never rotates past it.
    """

    patterns: Optional[Tuple[str, ...]] = None
    targets: Tuple[str, ...] = ("rt32", "rt16")
    levels: Tuple[str, ...] = ("-O0", "-O1", "-O2", "-Os")
    check_optimized: bool = True
    #: Run the fleet table engine as a fourth executor.  Fresh configs
    #: default to True; :meth:`from_dict` defaults to False so corpus
    #: fixtures recorded before the fleet existed replay with their
    #: exact original executor set.
    check_fleet: bool = True
    inject_bug: bool = False
    #: Explicit pass selection for the model-opt executor (overrides
    #: the default pipeline; may name injected passes).  ``None`` means
    #: the default pipeline — or :data:`INJECTED_PIPELINE` when
    #: ``inject_bug`` is set.
    model_selection: Optional[Tuple[str, ...]] = None
    #: Exact executor pinning (the shrinker's narrowed re-checks): when
    #: set, the VM grid is exactly these ``vm:...`` ids — not the
    #: cross-product of their components — and the pattern/level/target
    #: tuples above are ignored.
    executors: Optional[Tuple[str, ...]] = None

    def cells(self) -> List[Tuple[str, OptLevel, str]]:
        if self.executors is not None:
            out = []
            for executor in self.executors:
                if not executor.startswith("vm:"):
                    continue   # model-opt / fleet are not grid cells
                pattern, level, target = \
                    executor.split(":", 1)[1].split("/")
                out.append((pattern, _LEVELS[level], target))
            return out
        patterns = self.patterns if self.patterns is not None \
            else ("flat-switch",)
        return [(pattern, _LEVELS[level], target)
                for pattern in patterns
                for level in self.levels
                for target in self.targets]

    def selection(self) -> Optional[Tuple[str, ...]]:
        if self.model_selection is not None:
            return self.model_selection
        if self.inject_bug:
            return INJECTED_PIPELINE
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {"patterns": (list(self.patterns)
                             if self.patterns is not None else None),
                "targets": list(self.targets),
                "levels": list(self.levels),
                "check_optimized": self.check_optimized,
                "check_fleet": self.check_fleet,
                "inject_bug": self.inject_bug,
                "model_selection": (list(self.model_selection)
                                    if self.model_selection is not None
                                    else None),
                "executors": (list(self.executors)
                              if self.executors is not None else None)}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "OracleConfig":
        selection = data.get("model_selection")
        executors = data.get("executors")
        patterns = data.get("patterns")
        return OracleConfig(
            patterns=tuple(patterns) if patterns is not None else None,
            targets=tuple(data.get("targets", ("rt32", "rt16"))),
            levels=tuple(data.get("levels",
                                  ("-O0", "-O1", "-O2", "-Os"))),
            check_optimized=bool(data.get("check_optimized", True)),
            # Pre-fleet fixtures carry no key; replaying them must not
            # grow a new executor (corpus replays assert the *exact*
            # divergent set).
            check_fleet=bool(data.get("check_fleet", False)),
            inject_bug=bool(data.get("inject_bug", False)),
            model_selection=(tuple(selection) if selection is not None
                             else None),
            executors=(tuple(executors) if executors is not None
                       else None))

    def narrowed_to(self, executors: Sequence[str]) -> "OracleConfig":
        """The cheapest config that still runs *executors* — exactly
        the executors that diverged, not the cross-product of their
        components (the shrinker's re-checks must not latch onto a
        divergence in a cell that was never observed diverging)."""
        pinned = tuple(sorted(set(executors)))
        return replace(self, executors=pinned,
                       check_optimized=MODEL_OPT_EXECUTOR in pinned,
                       check_fleet=FLEET_EXECUTOR in pinned)


@dataclass(frozen=True)
class Divergence:
    """One executor disagreeing with the reference on one stimulus."""

    executor: str
    stimulus_index: int
    reason: str

    def summary(self) -> str:
        return (f"{self.executor} @ stimulus {self.stimulus_index}: "
                f"{self.reason}")


@dataclass
class CaseResult:
    """Everything one oracle run concluded about one case."""

    case: FuzzCase
    status: str = "ok"                    # ok | rejected | diverged
    reject_reason: str = ""
    divergences: List[Divergence] = field(default_factory=list)
    executors_run: int = 0
    cells_skipped: int = 0
    coverage: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def diverged(self) -> bool:
        return self.status == "diverged"

    def divergent_executors(self) -> Tuple[str, ...]:
        return tuple(sorted({d.executor for d in self.divergences}))

    def summary(self) -> str:
        head = self.case.describe()
        if self.status == "rejected":
            return f"{head}: rejected ({self.reject_reason})"
        if self.status == "diverged":
            return (f"{head}: {len(self.divergences)} divergence(s), "
                    f"first: {self.divergences[0].summary()}")
        return (f"{head}: agreed across {self.executors_run} "
                f"executor(s)")


class DifferentialOracle:
    """Runs cases through every executor and compares observations."""

    def __init__(self, engine: Optional[ExperimentEngine] = None,
                 config: OracleConfig = OracleConfig(),
                 semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS
                 ) -> None:
        self.engine = engine if engine is not None else ExperimentEngine()
        self.config = config
        self.semantics = semantics

    # -- executors ----------------------------------------------------------

    def _optimized_machine(self, machine: StateMachine) -> StateMachine:
        selection = self.config.selection()
        if self.config.inject_bug or \
                self.config.model_selection is not None:
            # Injected/explicit pipelines bypass the engine cache: the
            # default catalog (and so the cached optimize entry point)
            # does not know the planted passes.
            manager = buggy_pass_manager(semantics=self.semantics)
            return manager.run(machine, selection=selection).optimized
        return self.engine.optimize_model(machine,
                                          semantics=self.semantics).optimized

    def run_case(self, case: FuzzCase) -> CaseResult:
        # Imported here: the fleet executor pulls in NumPy, which
        # importing the fuzz package should not pay for.
        from ..exec import (FleetExecutor, InterpreterExecutor, VMExecutor,
                            cached_observations, diff)
        result = CaseResult(case=case,
                            coverage=_case_coverage_shape(case))
        stimuli = case.plain_stimuli()
        interp = InterpreterExecutor(self.semantics)
        reference = cached_observations(self.engine, interp, case.machine,
                                        stimuli)
        result.coverage = result.coverage + _observation_coverage(reference)

        # Csmith-style screen: only judge fully defined references.
        for index, obs in enumerate(reference):
            if not obs.ok:
                result.status = "rejected"
                result.reject_reason = \
                    f"reference stimulus {index}: {obs.error}"
                return result
            if obs.max_assigned_magnitude() > VALUE_BOUND:
                result.status = "rejected"
                result.reject_reason = (f"reference stimulus {index}: "
                                        "assigned value exceeds the 32-bit "
                                        "agreement range")
                return result
            if obs.extra > 1:   # the interpreter's pool high-water mark
                result.status = "rejected"
                result.reject_reason = (
                    f"reference stimulus {index}: queues "
                    f"{obs.extra} pending events (the generated "
                    "runtimes hold a single-slot pool)")
                return result

        runs: List[Tuple[str, Executor, StateMachine]] = []
        if self.config.check_optimized:
            runs.append((MODEL_OPT_EXECUTOR, interp,
                         self._optimized_machine(case.machine)))
        if self.config.check_fleet:
            runs.append((FLEET_EXECUTOR, FleetExecutor(self.semantics),
                         case.machine))
        for pattern, level, target in self.config.cells():
            # Mutant chains share most units: compile on the engine's
            # unit tier.
            vm = VMExecutor(pattern, level=level, target=target,
                            unit_cache=self.engine.units)
            runs.append((_vm_executor_id(pattern, level, target), vm,
                         case.machine))

        for name, executor, machine in runs:
            observed = cached_observations(self.engine, executor, machine,
                                           stimuli)
            if observed and all(obs.unsupported for obs in observed):
                result.cells_skipped += 1
                continue
            result.executors_run += 1
            result.coverage = result.coverage + \
                _observation_coverage(observed)
            result.divergences.extend(
                Divergence(name, index, reason)
                for index, reason in diff(reference, observed))
        if result.divergences:
            result.status = "diverged"
        return result


# ---------------------------------------------------------------------------
# coverage signatures
# ---------------------------------------------------------------------------

def _bucket(n: int) -> str:
    if n == 0:
        return "0"
    if n <= 2:
        return "1-2"
    if n <= 5:
        return "3-5"
    if n <= 10:
        return "6-10"
    return "11+"


def _case_coverage_shape(case: FuzzCase) -> Tuple[str, ...]:
    n_states = sum(1 for _ in case.machine.all_states())
    n_trans = sum(1 for _ in case.machine.all_transitions())
    items = {f"shape:states:{_bucket(n_states)}",
             f"shape:transitions:{_bucket(n_trans)}"}
    items.update(f"feature:{feature}" for feature in case.features)
    return tuple(sorted(items))


def _observation_coverage(observations: Sequence[Observation]
                          ) -> Tuple[str, ...]:
    items = set()
    for obs in observations:
        items.update(f"trace:{kind}" for kind in obs.kinds)
        items.add(f"observable:{_bucket(len(obs.payloads))}")
        if obs.final:
            items.add("end:final")
    return tuple(sorted(items))
