"""High-level pipeline API: model -> (optimize) -> generate -> compile.

This is the paper's "two step optimization approach" (§VI) in one call:
optimizations are performed **both** at the model level (:mod:`repro.optim`)
and in the compiler (:mod:`repro.compiler` at ``-Os``), and the existing
compiler optimizations are reused as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import ExperimentEngine

from .codegen import generator_by_name
from .compiler import (CompileResult, OptLevel, compile_program_incremental,
                       lower_unit)
from .obs.trace import span as _span
from .compiler.target import (DEFAULT_TARGET_NAME, TargetDescription,
                              resolve_target)
from .optim import OptimizationReport
from .optim.equivalence import EquivalenceReport
from .semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from .uml.statemachine import StateMachine

__all__ = ["PipelineResult", "CompareResult", "TunedCompileResult",
           "compile_machine", "run_pipeline",
           "optimize_and_compare", "tuned_compile"]


@dataclass
class PipelineResult:
    """Artifacts of one model -> assembly run."""

    machine: StateMachine
    pattern: str
    opt_level: OptLevel
    model_report: Optional[OptimizationReport]
    compile_result: CompileResult

    @property
    def total_size(self) -> int:
        return self.compile_result.total_size

    @property
    def target_name(self) -> str:
        target = self.compile_result.target
        return target.name if target is not None \
            else resolve_target(None).name

    def summary(self) -> str:
        lines = [f"{self.machine.name} [{self.pattern}, "
                 f"{self.opt_level.value}, {self.target_name}] -> "
                 f"{self.total_size} bytes"]
        if self.model_report is not None and self.model_report.changed:
            lines.append(self.model_report.summary())
        return "\n".join(lines)


def compile_machine(machine: StateMachine, pattern: str = "nested-switch",
                    level: OptLevel = OptLevel.OS,
                    target: Union[TargetDescription, str, None] = None,
                    unit_cache=None) -> CompileResult:
    """Generate code for *machine* with *pattern*, lower it, and compile
    it for *target* (a registered name, a description, or None =
    default) unit by unit (:mod:`repro.compiler.units`).

    With a *unit_cache* (a :class:`~repro.engine.cache.CompileCache`),
    units whose lowered IR is already cached are reused and only the
    rest compile, so an edit to one transition recompiles only the
    units it reaches.  The linked module is byte-identical to a
    whole-program :func:`~repro.compiler.compile_unit` either way.
    """
    generator = generator_by_name(pattern)
    with _span("stage.generate"):
        unit = generator.generate(machine)
    with _span("stage.lower"):
        program = lower_unit(unit)
    return compile_program_incremental(program, level=level, target=target,
                                       unit_cache=unit_cache,
                                       extra_key=pattern)


def run_pipeline(machine: StateMachine, pattern: str = "nested-switch",
                 level: OptLevel = OptLevel.OS,
                 model_optimizations: Optional[Sequence[str]] = None,
                 optimize_model: bool = True,
                 semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                 target: Union[TargetDescription, str, None] = None,
                 engine: Optional["ExperimentEngine"] = None,
                 ) -> PipelineResult:
    """The full two-step pipeline.

    ``optimize_model=False`` reproduces the paper's baseline (compiler
    optimizations only); the default runs the model-level pipeline first.
    Passing an :class:`~repro.engine.ExperimentEngine` routes the work
    through its cache (a private single-call engine otherwise — the
    engine owns the one implementation of this workflow).
    """
    from .engine import ExperimentEngine
    eng = engine if engine is not None else ExperimentEngine()
    return eng.run_pipeline(machine, pattern=pattern, level=level,
                            model_optimizations=model_optimizations,
                            optimize_model=optimize_model,
                            semantics=semantics, target=target)


@dataclass
class TunedCompileResult:
    """What :func:`tuned_compile` hands back: the winning measured
    configuration (with its whole record) and the module compiled
    with it."""

    record: "object"          # repro.tune.TuningRecord (lazy import)
    result: PipelineResult

    @property
    def winner(self):
        return self.record.winner

    @property
    def total_size(self) -> int:
        return self.result.total_size

    def summary(self) -> str:
        return (f"{self.record.summary()}\n"
                f"compiled with winner -> {self.total_size} bytes")


def tuned_compile(machine: StateMachine,
                  target: Union[TargetDescription, str, None] = None,
                  objective=None, profile=None,
                  patterns: Optional[Sequence[str]] = None,
                  levels=None,
                  semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                  engine: Optional["ExperimentEngine"] = None,
                  ) -> TunedCompileResult:
    """Compile *machine* with the measured-best configuration.

    The profile-guided answer to "what is the fastest/smallest correct
    configuration for THIS machine and THIS event profile": run (or
    warm-load) the autotuner search
    (:meth:`repro.engine.ExperimentEngine.tune`), take the winning
    (pattern, level, model-pass subset) — conformance-verified and
    Pareto-optimal among the measured cells — and compile through the
    normal pipeline with exactly that configuration.  Raises
    :class:`repro.tune.TuningError` when every measured cell was
    rejected.
    """
    from .engine import ExperimentEngine
    eng = engine if engine is not None else ExperimentEngine()
    record = eng.tune(machine, target=target, objective=objective,
                      profile=profile, patterns=patterns, levels=levels,
                      semantics=semantics)
    winner = record.require_winner()
    result = eng.run_pipeline(machine, pattern=winner.pattern,
                              level=OptLevel(winner.level),
                              model_optimizations=list(winner.passes),
                              semantics=semantics, target=target)
    return TunedCompileResult(record=record, result=result)


@dataclass
class CompareResult:
    """Non-optimized vs model-optimized comparison for one pattern."""

    machine_name: str
    pattern: str
    size_before: int
    size_after: int
    model_report: OptimizationReport
    equivalence: EquivalenceReport
    target_name: str = DEFAULT_TARGET_NAME

    @property
    def gain_bytes(self) -> int:
        return self.size_before - self.size_after

    @property
    def gain_percent(self) -> float:
        if self.size_before == 0:
            return 0.0
        return 100.0 * self.gain_bytes / self.size_before

    def summary(self) -> str:
        return (f"{self.machine_name} [{self.pattern}, {self.target_name}]: "
                f"{self.size_before} -> {self.size_after} bytes "
                f"({self.gain_percent:.2f} % smaller); "
                f"{self.equivalence.summary()}")


def optimize_and_compare(machine: StateMachine,
                         pattern: str = "nested-switch",
                         level: OptLevel = OptLevel.OS,
                         model_optimizations: Optional[Sequence[str]] = None,
                         check_behavior: bool = True,
                         semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                         target: Union[TargetDescription, str, None] = None,
                         engine: Optional["ExperimentEngine"] = None,
                         ) -> CompareResult:
    """The paper's experiment, end to end: compile the model as-is and
    after model-level optimization, compare assembly sizes, and verify
    the optimization was behaviour-preserving.

    *semantics* selects the semantic variation points the optimizer and
    the equivalence check run under (like :func:`run_pipeline` — passes
    whose soundness depends on a disabled variation point are skipped).
    Passing an :class:`~repro.engine.ExperimentEngine` routes the work
    through its cache (a private single-call engine otherwise — the
    engine owns the one implementation of this workflow).
    """
    from .engine import ExperimentEngine
    eng = engine if engine is not None else ExperimentEngine()
    return eng.optimize_and_compare(
        machine, pattern=pattern, level=level,
        model_optimizations=model_optimizations,
        check_behavior=check_behavior, semantics=semantics, target=target)
