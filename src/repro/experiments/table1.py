"""Table 1 reproduction: optimization gain for three patterns.

Paper Table 1 (hierarchical machine, GCC 4.3.2 ``-Os``):

=============  ==================  ==============  =========
pattern        non-optimized (B)   optimized (B)   rate
=============  ==================  ==============  =========
STT            13 885               9 607          30.81 %
Nested Switch  48 764              26 379          45.90 %
State Pattern  49 863              23 663          52.54 %
=============  ==================  ==============  =========

Shapes to check on the reproduction (RT32 bytes):

* every pattern shows a *significant* gain on the hierarchical machine
  ("whatever the pattern is, we obtain a significant gain when dealing
  with hierarchical state machine");
* gains are ordered STT < Nested Switch <= State Pattern;
* the STT pattern's gain is the smallest because its per-transition cost
  is table data while its fixed engine survives optimization.

Run as ``python -m repro.experiments.table1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..codegen import ALL_GENERATORS
from ..compiler import OptLevel
from ..compiler.target import TargetDescription, resolve_target
from ..engine import ExperimentEngine
from ..uml.statemachine import StateMachine
from .models import hierarchical_machine_with_shadowed_composite
from .report import render_table

__all__ = ["Table1Row", "run_table1", "main", "PAPER_TABLE1"]

#: The paper's measurements: pattern -> (before, after, rate%).
PAPER_TABLE1 = {
    "state-table": (13885, 9607, 30.81),
    "nested-switch": (48764, 26379, 45.90),
    "state-pattern": (49863, 23663, 52.54),
}


@dataclass(frozen=True)
class Table1Row:
    pattern: str
    display_name: str
    size_before: int
    size_after: int
    gain_percent: float
    behavior_preserved: bool


def run_table1(machine: Optional[StateMachine] = None,
               level: OptLevel = OptLevel.OS,
               target: Union[TargetDescription, str, None] = None,
               engine: Optional[ExperimentEngine] = None,
               ) -> List[Table1Row]:
    """Regenerate Table 1 (defaults to the paper's hierarchical model).

    The engine's cache shares the model optimization across the
    patterns.
    """
    if machine is None:
        machine = hierarchical_machine_with_shadowed_composite()
    eng = engine if engine is not None else ExperimentEngine()
    rows: List[Table1Row] = []
    for gen_cls in ALL_GENERATORS:
        cmp = eng.optimize_and_compare(machine, gen_cls.name, level,
                                       target=target)
        rows.append(Table1Row(
            pattern=gen_cls.name,
            display_name=gen_cls.display_name,
            size_before=cmp.size_before,
            size_after=cmp.size_after,
            gain_percent=cmp.gain_percent,
            behavior_preserved=cmp.equivalence.equivalent,
        ))
    return rows


def main(target: Union[TargetDescription, str, None] = None,
         engine: Optional[ExperimentEngine] = None) -> str:
    tgt = resolve_target(target)
    rows = run_table1(target=tgt, engine=engine)
    measured = render_table(
        "Table 1 - optimization gain for three different patterns "
        f"(MGCC -Os, {tgt.name.upper()} bytes)",
        ["pattern", "non-optimized (B)", "optimized (B)", "rate",
         "behavior preserved"],
        [[r.display_name, r.size_before, r.size_after,
          f"{r.gain_percent:.2f}%", r.behavior_preserved] for r in rows])
    paper = render_table(
        "paper reference (GCC 4.3.2 -Os, x86 bytes)",
        ["pattern", "non-optimized (B)", "optimized (B)", "rate"],
        [["STT", 13885, 9607, "30.81%"],
         ["Nested Switch", 48764, 26379, "45.90%"],
         ["State Pattern", 49863, 23663, "52.54%"]])
    return measured + "\n\n" + paper


if __name__ == "__main__":
    print(main())
