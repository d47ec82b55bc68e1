"""Figure 1 reproduction: model optimizations and their size impact.

Paper Figure 1 shows two model-optimization examples and the assembly
sizes before/after:

* flat machine, unreachable state S2 removed: 12 669 -> 11 393 bytes
  (10.07 % gain) under the Nested Switch pattern at ``-Os``;
* hierarchical machine, completion-shadowed composite S3 removed:
  "> 45 %" gain.

``run_figure1()`` regenerates both rows with MGCC/RT32 sizes; shapes to
check (absolute bytes are target-dependent):

* the flat gain is modest (around ten percent);
* the hierarchical gain is several times larger (tens of percent),
  because the whole submachine class disappears;
* compiler DCE alone achieves neither (the unreachable state's code
  survives in the post-DCE dump).

Run as ``python -m repro.experiments.figure1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..compiler import OptLevel
from ..compiler.target import TargetDescription, resolve_target
from ..engine import CompareJob, ExperimentEngine
from .models import (flat_machine_with_unreachable_state,
                     hierarchical_machine_with_shadowed_composite)
from .report import render_table

__all__ = ["Figure1Row", "run_figure1", "main"]

PAPER_FLAT_BEFORE = 12669
PAPER_FLAT_AFTER = 11393
PAPER_FLAT_GAIN = 10.07
PAPER_HIER_GAIN_MIN = 45.0


@dataclass(frozen=True)
class Figure1Row:
    """One row of the reproduced figure."""

    example: str
    pattern: str
    size_before: int
    size_after: int
    gain_percent: float
    dce_kept_dead_code: bool
    behavior_preserved: bool


def _dce_keeps_code(engine: ExperimentEngine, machine, marker: str,
                    pattern: str,
                    target: Union[TargetDescription, str, None]) -> bool:
    """Whether the ``-Os`` program still calls the dead state's *marker*.

    The markers are external calls and no pass after inlining adds a
    call, so a marker in the final program was in the post-DCE one too.
    The compile is the comparison's own ``size_before`` (a cache hit).
    """
    result = engine.compile_machine(machine, pattern, OptLevel.OS,
                                    target=target)
    return marker in result.program.dump()


def run_figure1(pattern: str = "nested-switch",
                target: Union[TargetDescription, str, None] = None,
                engine: Optional[ExperimentEngine] = None,
                ) -> List[Figure1Row]:
    """Regenerate both Figure 1 rows (one engine batch)."""
    eng = engine if engine is not None else ExperimentEngine()
    rows: List[Figure1Row] = []
    flat = flat_machine_with_unreachable_state()
    hier = hierarchical_machine_with_shadowed_composite()
    cmp_flat, cmp_hier = eng.compare_batch(
        [CompareJob(flat, pattern, target=target),
         CompareJob(hier, pattern, target=target)])
    rows.append(Figure1Row(
        example="flat (unreachable state S2)",
        pattern=pattern,
        size_before=cmp_flat.size_before,
        size_after=cmp_flat.size_after,
        gain_percent=cmp_flat.gain_percent,
        dce_kept_dead_code=_dce_keeps_code(eng, flat, "s2_exit_action",
                                           pattern, target),
        behavior_preserved=cmp_flat.equivalence.equivalent,
    ))
    rows.append(Figure1Row(
        example="hierarchical (shadowed composite S3)",
        pattern=pattern,
        size_before=cmp_hier.size_before,
        size_after=cmp_hier.size_after,
        gain_percent=cmp_hier.gain_percent,
        dce_kept_dead_code=_dce_keeps_code(eng, hier, "s31_enter_action",
                                           pattern, target),
        behavior_preserved=cmp_hier.equivalence.equivalent,
    ))
    return rows


def main(target: Union[TargetDescription, str, None] = None,
         engine: Optional[ExperimentEngine] = None) -> str:
    tgt = resolve_target(target)
    rows = run_figure1(target=tgt, engine=engine)
    table = render_table(
        "Figure 1 - model optimization impact on assembly size "
        f"(MGCC -Os, {tgt.name.upper()} bytes; paper: GCC 4.3.2 -Os)",
        ["example", "before (B)", "after (B)", "gain",
         "DCE kept dead code", "behavior preserved"],
        [[r.example, r.size_before, r.size_after,
          f"{r.gain_percent:.2f}%", r.dce_kept_dead_code,
          r.behavior_preserved] for r in rows])
    paper = render_table(
        "paper reference points",
        ["example", "before (B)", "after (B)", "gain"],
        [["flat (Nested Switch)", PAPER_FLAT_BEFORE, PAPER_FLAT_AFTER,
          f"{PAPER_FLAT_GAIN:.2f}%"],
         ["hierarchical (Nested Switch)", "-", "-",
          f"> {PAPER_HIER_GAIN_MIN:.0f}%"]])
    return table + "\n\n" + paper


if __name__ == "__main__":
    print(main())
