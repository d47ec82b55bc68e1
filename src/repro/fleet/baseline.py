"""Fleet throughput against the per-instance interpreter baseline.

One measurement, :func:`run_fleet_throughput`, serves both the
``python -m repro.experiments --throughput`` table and the
``python -m repro.fleet smoke`` run that ``scripts/check_bench.py
--fleet-smoke`` gates on, so both report the same quantities:
sustained lane-events/sec of a broadcast fleet, and sustained
**dispatch** events/sec of per-instance interpretation.

The interpreter's timed region contains *only* ``dispatch`` calls
(:func:`interpreter_dispatch_rate`).  Instance construction and
``start()`` (initial-transition execution, entry behaviors) happen
before the clock starts — the fleet side's ``ThroughputReport`` also
times only its dispatch loop, and folding per-instance setup into the
interpreter denominator inflated the reported fleet speedup.  A
regression test pins the ordering via the injectable *clock*.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..semantics.runtime import MachineInstance
from ..uml.statemachine import StateMachine
from .harness import FleetHarness, ThroughputReport
from .table import compile_table

__all__ = ["interpreter_dispatch_rate", "FleetThroughputRow",
           "run_fleet_throughput"]


def interpreter_dispatch_rate(machine: StateMachine,
                              events: Sequence[str], sample: int,
                              clock: Callable[[], float] =
                              time.perf_counter) -> float:
    """Dispatch-only events/sec of *sample* interpreter instances each
    consuming *events*; 0.0 when there is nothing to time."""
    instances = []
    for _ in range(max(0, sample)):
        instance = MachineInstance(machine)
        instance.start()
        instances.append(instance)
    began = clock()
    for instance in instances:
        for name in events:
            instance.dispatch(name)
    elapsed = clock() - began
    total = len(instances) * len(events)
    return total / elapsed if elapsed > 0 and total else 0.0


@dataclass(frozen=True)
class FleetThroughputRow:
    """One machine's fleet-vs-interpreter throughput measurement.

    ``report`` is the fleet harness's run.  Its events/sec and
    ``interp_events_per_sec`` are wall-clock and therefore
    non-deterministic; its lane events and :attr:`fast_fraction` are
    exact.
    """

    machine_name: str
    #: the compiled table's ``describe()``
    table: str
    stream_events: int
    report: ThroughputReport
    #: interpreter instances the baseline rate was timed over
    interp_sample: int
    interp_events_per_sec: float

    @property
    def fast_fraction(self) -> float:
        """Share of lane-events the fleet advanced by lane masks."""
        shards = self.report.shards
        total = sum(s.lane_events for s in shards)
        fast = sum(s.fast_fraction * s.lane_events for s in shards)
        return fast / total if total else 0.0

    @property
    def speedup(self) -> Optional[float]:
        """Fleet-vs-interpreter ratio, ``None`` when the interpreter
        baseline rate is 0 (nothing to divide by — "infinitely faster"
        was a measurement artifact, not a result)."""
        if self.interp_events_per_sec == 0:
            return None
        return self.report.events_per_sec / self.interp_events_per_sec

    @property
    def speedup_display(self) -> str:
        """``"12.3x"``, or ``"n/a"`` without a usable baseline."""
        return "n/a" if self.speedup is None else f"{self.speedup:.1f}x"


def run_fleet_throughput(machine: StateMachine,
                         n_instances: int = 10_000,
                         n_events: int = 200,
                         n_shards: int = 4,
                         batch_size: int = 32,
                         stream_seed: int = 0,
                         interp_sample: int = 25) -> FleetThroughputRow:
    """Broadcast one seeded event stream to an ``n_instances``-wide
    fleet and to a small per-instance interpreter sample of the same
    workload (running 10^4 interpreters would dominate the run)."""
    table = compile_table(machine)
    alphabet = [e.name for e in machine.signal_alphabet()]
    rng = random.Random(stream_seed)
    events = [rng.choice(alphabet) for _ in range(n_events)]

    harness = FleetHarness(table, n_instances=n_instances,
                           n_shards=n_shards, batch_size=batch_size,
                           routing="broadcast")
    harness.start()
    report = harness.run(events)

    sample = min(interp_sample, n_instances)
    return FleetThroughputRow(
        machine_name=machine.name, table=table.describe(),
        stream_events=len(events), report=report, interp_sample=sample,
        interp_events_per_sec=interpreter_dispatch_rate(machine, events,
                                                        sample))
