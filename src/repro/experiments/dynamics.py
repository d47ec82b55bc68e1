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
table is produced on any host — unlike wall-clock
benchmarks, which live in ``benchmarks/`` instead.

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

__all__ = ["DynamicsRow", "run_dynamics", "main",
           "FleetThroughputRow", "run_fleet_throughput", "throughput_main"]

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


@dataclass(frozen=True)
class FleetThroughputRow:
    """One machine's fleet-vs-interpreter throughput measurement.

    ``events_per_sec``/``speedup`` are wall-clock and therefore
    non-deterministic; ``lane_events``/``fast_fraction`` are exact.
    """

    machine_name: str
    instances: int
    shards: int
    stream_events: int
    lane_events: int
    fast_fraction: float
    events_per_sec: float
    interp_events_per_sec: float

    @property
    def speedup(self) -> Optional[float]:
        """Fleet-vs-interpreter ratio, ``None`` when the interpreter
        baseline rate is 0 (nothing to divide by — "infinitely faster"
        was a measurement artifact, not a result)."""
        if self.interp_events_per_sec == 0:
            return None
        return self.events_per_sec / self.interp_events_per_sec

    @property
    def speedup_display(self) -> str:
        """``"12.3x"``, or ``"n/a"`` without a usable baseline."""
        return "n/a" if self.speedup is None else f"{self.speedup:.1f}x"


def run_fleet_throughput(machine: Optional[StateMachine] = None,
                         n_instances: int = 10_000,
                         n_events: int = 200,
                         n_shards: int = 4,
                         batch_size: int = 32,
                         seed: int = 0,
                         interp_sample: int = 25) -> FleetThroughputRow:
    """Broadcast one event stream to an ``n_instances``-wide fleet and
    to a small per-instance interpreter sample of the same workload.

    Wall-clock by construction, so this axis never feeds the
    deterministic experiment tables — it is opt-in via
    ``python -m repro.experiments --throughput``.

    The interpreter baseline times **dispatch only**
    (:func:`repro.fleet.baseline.interpreter_dispatch_rate`): instance
    construction and ``start()`` happen outside the timed region,
    matching what the fleet side's report times, so the speedup
    compares steady-state dispatch against steady-state dispatch.
    """
    import random as _random

    from ..fleet.baseline import interpreter_dispatch_rate
    from ..fleet.harness import FleetHarness
    from ..fleet.table import compile_table
    if machine is None:
        machine = hierarchical_machine_with_shadowed_composite()
    table = compile_table(machine)
    alphabet = [e.name for e in machine.signal_alphabet()]
    rng = _random.Random(seed)
    events = [rng.choice(alphabet) for _ in range(n_events)]

    harness = FleetHarness(table, n_instances=n_instances,
                           n_shards=n_shards, batch_size=batch_size,
                           routing="broadcast")
    harness.start()
    report = harness.run(events)

    sample = min(interp_sample, n_instances)
    interp_eps = interpreter_dispatch_rate(machine, events, sample)

    fast = sum(s.fast_fraction * s.lane_events for s in report.shards)
    total = sum(s.lane_events for s in report.shards)
    return FleetThroughputRow(
        machine_name=machine.name,
        instances=harness.n_lanes,
        shards=harness.n_shards,
        stream_events=len(events),
        lane_events=report.lane_events,
        fast_fraction=fast / total if total else 0.0,
        events_per_sec=report.events_per_sec,
        interp_events_per_sec=interp_eps)


def throughput_main() -> str:
    """The opt-in wall-clock throughput table (``--throughput``)."""
    from .workload import WorkloadSpec, generate_machine
    machines = [
        hierarchical_machine_with_shadowed_composite(),
        generate_machine(WorkloadSpec(
            n_live=8, n_dead=2, n_shadowed_composites=1,
            composite_width=3, entry_calls=2, exit_calls=1,
            events_per_state=2, guarded_fraction=0.25, seed=7,
            name="ThroughputWorkload")),
    ]
    rows = [run_fleet_throughput(machine) for machine in machines]
    table = render_table(
        "Fleet throughput - vectorized table engine vs. per-instance "
        "interpretation (wall-clock; excluded from deterministic output)",
        ["machine", "instances", "shards", "lane events", "fast %",
         "events/sec", "interp ev/s", "speedup"],
        [[r.machine_name, r.instances, r.shards, r.lane_events,
          f"{r.fast_fraction:.0%}", f"{r.events_per_sec:,.0f}",
          f"{r.interp_events_per_sec:,.0f}", r.speedup_display]
         for r in rows])
    note = ("events/sec and speedup are wall-clock (vary per host/run); "
            "lane events and fast % are deterministic")
    return table + "\n" + note


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
