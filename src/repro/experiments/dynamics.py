"""Dynamic cost of the generated code, measured on the ISA simulator.

The paper's tables are static: bytes of assembly.  Its motivating claim
is dynamic — model-level optimization changes what the *running* code
costs (dispatch work, footprint touched per event).  This harness
measures that on the :mod:`repro.vm` simulator: for every codegen
pattern x optimization level it executes the paper's hierarchical
machine, before and after model optimization, over the conformance
scenario set, and reports

* **cycles/event** — mean simulated cycles per dispatched event;
* **peak** — worst single dispatch latency (the RTES-relevant number);
* **conformant** — whether the executed trace matched the reference
  interpreter on every scenario (the measurement is only meaningful if
  the code is correct);
* the **dynamic gain** of model optimization, the runtime analogue of
  Table 1's size gain.

All quantities are simulated and therefore deterministic: the same
table is produced on any host — unlike wall-clock measurements, which
live in ``benchmarks/`` and, for fleet throughput, in
:mod:`repro.fleet.baseline`.

Run as ``python -m repro.experiments.dynamics`` (or through
``python -m repro.experiments``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..codegen import ALL_PATTERNS
from ..compiler import OptLevel
from ..compiler.target import TargetDescription, resolve_target
from ..engine import ExperimentEngine
from ..uml.statemachine import StateMachine
from .models import hierarchical_machine_with_shadowed_composite
from .report import render_table

__all__ = ["DynamicsRow", "run_dynamics", "main"]

#: Levels the dynamics table sweeps: unoptimized vs. the paper's -Os.
LEVELS = (OptLevel.O0, OptLevel.OS)


@dataclass(frozen=True)
class DynamicsRow:
    """One pattern x level cell, before and after model optimization."""

    pattern: str
    display_name: str
    level: OptLevel
    text_before: int
    text_after: int
    cycles_per_event_before: float
    cycles_per_event_after: float
    peak_dispatch_before: int
    peak_dispatch_after: int
    conformant_before: bool
    conformant_after: bool

    @property
    def dynamic_gain_percent(self) -> float:
        if self.cycles_per_event_before == 0:
            return 0.0
        return (100.0 * (self.cycles_per_event_before
                         - self.cycles_per_event_after)
                / self.cycles_per_event_before)


def run_dynamics(machine: Optional[StateMachine] = None,
                 target: Union[TargetDescription, str, None] = None,
                 engine: Optional[ExperimentEngine] = None,
                 ) -> List[DynamicsRow]:
    """Measure every pattern x level cell on the simulator.

    The model optimization is computed once through the engine's cache
    and feeds every cell.
    """
    if machine is None:
        machine = hierarchical_machine_with_shadowed_composite()
    eng = engine if engine is not None else ExperimentEngine()
    tgt = resolve_target(target)
    optimized = eng.optimize_model(machine).optimized

    def run_cell(gen_cls, level) -> DynamicsRow:
        before = eng.vm_conformance(machine, pattern=gen_cls.name,
                                    level=level, target=tgt)
        # The optimized clone replays the ORIGINAL machine's scenarios
        # (it may have dropped events; it must ignore them), so both
        # cells measure the same workload and the gain is attributable
        # to the model optimization, not to a changed scenario set.
        after = eng.vm_conformance(optimized, pattern=gen_cls.name,
                                   level=level, target=tgt,
                                   scenario_machine=machine)
        return DynamicsRow(
            pattern=gen_cls.name,
            display_name=gen_cls.display_name,
            level=level,
            text_before=before.text_bytes,
            text_after=after.text_bytes,
            cycles_per_event_before=before.cycles_per_event,
            cycles_per_event_after=after.cycles_per_event,
            peak_dispatch_before=before.peak_dispatch_cycles,
            peak_dispatch_after=after.peak_dispatch_cycles,
            conformant_before=before.conformant,
            conformant_after=after.conformant)

    return [run_cell(gen_cls, level) for gen_cls in ALL_PATTERNS
            for level in LEVELS]


def main(target: Union[TargetDescription, str, None] = None,
         engine: Optional[ExperimentEngine] = None) -> str:
    tgt = resolve_target(target)
    rows = run_dynamics(target=tgt, engine=engine)
    table = render_table(
        "Dynamics - simulated cost per dispatched event, before/after "
        f"model optimization (hierarchical machine, {tgt.name.upper()})",
        ["pattern", "level", "text B", "cyc/ev", "opt cyc/ev", "dyn gain",
         "peak", "opt peak", "conformant"],
        [[r.display_name, r.level.value, r.text_before,
          f"{r.cycles_per_event_before:.1f}",
          f"{r.cycles_per_event_after:.1f}",
          f"{r.dynamic_gain_percent:.2f}%",
          r.peak_dispatch_before, r.peak_dispatch_after,
          "yes" if (r.conformant_before and r.conformant_after) else "NO"]
         for r in rows])
    note = ("cycles are simulated (deterministic); conformance = "
            "VM-executed trace equals interpreter trace on every scenario")
    return table + "\n" + note


if __name__ == "__main__":
    print(main())
