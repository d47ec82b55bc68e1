"""The autotuner's table: the measured frontier made prescriptive.

Where :mod:`repro.experiments.dynamics` *describes* what every
pattern x level costs, this harness *prescribes*: it runs the
:mod:`repro.tune` search over the paper's hierarchical machine
(pattern x opt level x advisor-pruned model-pass subsets, each cell
measured on the simulator and conformance-checked) and prints the
Pareto frontier plus the elected winner.

All quantities are simulated, so the table is deterministic and safe
for the byte-identity CI diffs — it is opt-in
(``python -m repro.experiments --tune``) only because the search
measures a lattice rather than a handful of cells.
"""

from __future__ import annotations

from typing import Optional, Union

from ..compiler.target import TargetDescription, resolve_target
from ..engine import ExperimentEngine
from .models import hierarchical_machine_with_shadowed_composite
from .report import render_table

__all__ = ["main"]


def main(target: Union[TargetDescription, str, None] = None,
         engine: Optional[ExperimentEngine] = None) -> str:
    tgt = resolve_target(target)
    eng = engine if engine is not None else ExperimentEngine()
    machine = hierarchical_machine_with_shadowed_composite()
    record = eng.tune(machine, target=tgt)
    frontier = record.frontier()
    rows = [["*" if cell == record.winner else "",
             cell.pattern, cell.level,
             "+".join(cell.passes) or "(none)",
             f"{cell.cycles_per_event:.1f}", cell.text_bytes,
             cell.peak_dispatch_cycles, f"{cell.score:.1f}"]
            for cell in frontier]
    table = render_table(
        f"Autotuner - Pareto frontier of measured configurations "
        f"({record.machine_name}, {tgt.name.upper()}; * = winner)",
        ["", "pattern", "level", "model passes", "cyc/ev", "text B",
         "peak", "score"], rows)
    prior = "+".join(record.prior) or "(none)"
    note = (f"searched {len(record.cells)} cells "
            f"({len(record.conformant_cells)} conformant, "
            f"{len(record.rejected_cells)} rejected); static prior: "
            f"{prior}\nall cells simulated over the original machine's "
            f"event profile; non-conformant cells can never win")
    return table + "\n" + note


if __name__ == "__main__":
    print(main())
