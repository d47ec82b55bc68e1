"""Parameter sweeps beyond the paper's two examples.

The paper asserts (§III.C) that the gain "is proportional to the number
of removed states/transitions" and "depends also on the kind of state
machine".  These sweeps chart both claims and add the ablations
DESIGN.md calls out:

* :func:`unreachable_sweep` — flat machines with a growing number of
  dead states: gain vs. removed states (the proportionality claim);
* :func:`composite_sweep` — machines with growing shadowed-composite
  payloads: the hierarchical amplification;
* :func:`pattern_scaling_sweep` — absolute size of each pattern as the
  live machine grows (where the table pattern's data-driven encoding
  overtakes the code-driven patterns);
* :func:`pass_ablation` — per-model-pass contribution to the final size;
* :func:`opt_level_sweep` — the compiler's own ``-O`` levels on the
  *non*-optimized model: how much of the problem the compiler alone can
  and cannot recover;
* :func:`target_sweep` — every pattern compiled for every registered
  target: the cross-ISA code-size comparison the multi-backend
  architecture exists for.

Run as ``python -m repro.experiments.sweeps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..compiler import OptLevel, available_targets
from ..compiler.target import TargetDescription, resolve_target
from ..engine import CompareJob, CompileJob, ExperimentEngine
from ..optim import DEFAULT_PIPELINE
from .models import hierarchical_machine_with_shadowed_composite
from .report import render_table
from .workload import WorkloadSpec, generate_machine

__all__ = ["SweepPoint", "unreachable_sweep", "composite_sweep",
           "pattern_scaling_sweep", "pass_ablation", "opt_level_sweep",
           "target_sweep", "TargetSweepRow", "main"]


@dataclass(frozen=True)
class SweepPoint:
    """One measurement of a sweep."""

    x: int
    label: str
    size_before: int
    size_after: int

    @property
    def gain_percent(self) -> float:
        if self.size_before == 0:
            return 0.0
        return 100.0 * (self.size_before - self.size_after) / \
            self.size_before


def _engine(engine: Optional[ExperimentEngine]) -> ExperimentEngine:
    return engine if engine is not None else ExperimentEngine()


def unreachable_sweep(dead_counts: Sequence[int] = (0, 1, 2, 4, 8),
                      pattern: str = "nested-switch",
                      n_live: int = 5,
                      target: Union[TargetDescription, str, None] = None,
                      engine: Optional[ExperimentEngine] = None,
                      ) -> List[SweepPoint]:
    """Gain as a function of the number of removed (dead) states."""
    eng = _engine(engine)
    machines = [generate_machine(WorkloadSpec(n_live=n_live, n_dead=n_dead))
                for n_dead in dead_counts]
    cmps = eng.compare_batch([CompareJob(machine, pattern,
                                         check_behavior=False,
                                         target=target)
                              for machine in machines])
    return [SweepPoint(n_dead, f"{n_dead} dead states",
                       cmp.size_before, cmp.size_after)
            for n_dead, cmp in zip(dead_counts, cmps)]


def composite_sweep(widths: Sequence[int] = (1, 2, 4, 8),
                    pattern: str = "nested-switch",
                    target: Union[TargetDescription, str, None] = None,
                    engine: Optional[ExperimentEngine] = None,
                    ) -> List[SweepPoint]:
    """Gain as the shadowed composite's submachine grows."""
    eng = _engine(engine)
    machines = [generate_machine(WorkloadSpec(
        n_live=4, n_shadowed_composites=1, composite_width=width))
        for width in widths]
    cmps = eng.compare_batch([CompareJob(machine, pattern,
                                         check_behavior=False,
                                         target=target)
                              for machine in machines])
    return [SweepPoint(width, f"width {width}",
                       cmp.size_before, cmp.size_after)
            for width, cmp in zip(widths, cmps)]


def pattern_scaling_sweep(sizes: Sequence[int] = (4, 8, 16, 24),
                          target: Union[TargetDescription, str, None] = None,
                          engine: Optional[ExperimentEngine] = None,
                          ) -> Dict[str, List[SweepPoint]]:
    """Absolute size per pattern as the (live) machine grows."""
    from ..codegen import ALL_GENERATORS
    eng = _engine(engine)
    machines = {n: generate_machine(WorkloadSpec(n_live=n)) for n in sizes}
    grid = [(n, gen_cls) for n in sizes for gen_cls in ALL_GENERATORS]
    results = eng.run_batch([CompileJob(machines[n], gen_cls.name,
                                        OptLevel.OS, target=target)
                             for n, gen_cls in grid])
    curves: Dict[str, List[SweepPoint]] = {g.name: [] for g in
                                           ALL_GENERATORS}
    for (n, gen_cls), result in zip(grid, results):
        size = result.total_size
        curves[gen_cls.name].append(SweepPoint(n, f"{n} states",
                                               size, size))
    return curves


def pass_ablation(pattern: str = "nested-switch",
                  target: Union[TargetDescription, str, None] = None,
                  engine: Optional[ExperimentEngine] = None,
                  ) -> List[SweepPoint]:
    """Size after enabling the pipeline one pass at a time (cumulative)."""
    eng = _engine(engine)
    machine = hierarchical_machine_with_shadowed_composite()
    baseline = eng.compile_machine(machine, pattern, OptLevel.OS,
                                   target=target).total_size
    prefixes = [list(DEFAULT_PIPELINE[:i])
                for i in range(1, len(DEFAULT_PIPELINE) + 1)]
    optimized = [eng.optimize_model(machine, selection=selection).optimized
                 for selection in prefixes]
    results = eng.run_batch([CompileJob(opt, pattern, OptLevel.OS,
                                        target=target)
                             for opt in optimized])
    points = [SweepPoint(0, "no model optimization", baseline, baseline)]
    for i, result in enumerate(results, start=1):
        points.append(SweepPoint(i, "+" + DEFAULT_PIPELINE[i - 1],
                                 baseline, result.total_size))
    return points


def opt_level_sweep(pattern: str = "nested-switch",
                    target: Union[TargetDescription, str, None] = None,
                    engine: Optional[ExperimentEngine] = None,
                    ) -> List[SweepPoint]:
    """Compiler-only optimization (non-optimized model) per -O level.

    The ``-O0`` reference compile and the loop's ``-O0`` cell are the
    same cache entry — the engine's dedup at work.
    """
    eng = _engine(engine)
    machine = hierarchical_machine_with_shadowed_composite()
    o0 = eng.compile_machine(machine, pattern, OptLevel.O0,
                             target=target).total_size
    levels = list(OptLevel)
    results = eng.run_batch([CompileJob(machine, pattern, level,
                                        target=target)
                             for level in levels])
    return [SweepPoint(i, level.value, o0, result.total_size)
            for i, (level, result) in enumerate(zip(levels, results))]


@dataclass(frozen=True)
class TargetSweepRow:
    """One (pattern, target) code-size measurement."""

    pattern: str
    target: str
    text_size: int
    rodata_size: int
    total_size: int


def target_sweep(level: OptLevel = OptLevel.OS,
                 targets: Optional[Sequence[str]] = None,
                 engine: Optional[ExperimentEngine] = None,
                 ) -> List[TargetSweepRow]:
    """Compile every pattern for every registered target — the cross-ISA
    comparison the pluggable backend enables (paper's "size of the
    generated assembly code", per target)."""
    from ..codegen import ALL_PATTERNS
    eng = _engine(engine)
    machine = hierarchical_machine_with_shadowed_composite()
    grid = [(target_name, gen_cls)
            for target_name in (targets or available_targets())
            for gen_cls in ALL_PATTERNS]
    results = eng.run_batch([CompileJob(machine, gen_cls.name, level,
                                        target=target_name)
                             for target_name, gen_cls in grid])
    rows: List[TargetSweepRow] = []
    for (target_name, gen_cls), result in zip(grid, results):
        module = result.module
        rows.append(TargetSweepRow(
            pattern=gen_cls.name, target=target_name,
            text_size=module.text_size, rodata_size=module.rodata_size,
            total_size=module.total_size))
    return rows


def main(target: Union[TargetDescription, str, None] = None,
         engine: Optional[ExperimentEngine] = None) -> str:
    eng = _engine(engine)
    tgt = resolve_target(target)
    suffix = f" [{tgt.name}]"
    parts: List[str] = []
    parts.append(render_table(
        "gain vs removed states (nested-switch, -Os)" + suffix,
        ["dead states", "before (B)", "after (B)", "gain"],
        [[p.x, p.size_before, p.size_after, f"{p.gain_percent:.2f}%"]
         for p in unreachable_sweep(target=tgt, engine=eng)]))
    parts.append(render_table(
        "gain vs shadowed composite width (nested-switch, -Os)" + suffix,
        ["substates", "before (B)", "after (B)", "gain"],
        [[p.x, p.size_before, p.size_after, f"{p.gain_percent:.2f}%"]
         for p in composite_sweep(target=tgt, engine=eng)]))
    curves = pattern_scaling_sweep(target=tgt, engine=eng)
    sizes = sorted({p.x for pts in curves.values() for p in pts})
    parts.append(render_table(
        "absolute size vs live machine size (-Os)" + suffix,
        ["live states"] + list(curves),
        [[n] + [next(p.size_after for p in curves[name] if p.x == n)
                for name in curves] for n in sizes]))
    parts.append(render_table(
        "model-pass ablation (hierarchical model, nested-switch, -Os)"
        + suffix,
        ["step", "pipeline prefix", "size (B)", "gain vs baseline"],
        [[p.x, p.label, p.size_after, f"{p.gain_percent:.2f}%"]
         for p in pass_ablation(target=tgt, engine=eng)]))
    parts.append(render_table(
        "compiler-only -O levels (non-optimized hierarchical model)"
        + suffix,
        ["level", "size (B)", "vs -O0"],
        [[p.label, p.size_after, f"{p.gain_percent:.2f}%"]
         for p in opt_level_sweep(target=tgt, engine=eng)]))
    parts.append(render_table(
        "cross-target code size (hierarchical model, -Os, all patterns)",
        ["pattern", "target", "text (B)", "rodata (B)", "total (B)"],
        [[r.pattern, r.target, r.text_size, r.rodata_size, r.total_size]
         for r in target_sweep(engine=eng)]))
    return "\n\n".join(parts)


if __name__ == "__main__":
    print(main())
