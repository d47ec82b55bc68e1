"""Fleet harness: N instances, sharded event queues, batch dispatch.

The ROADMAP's production framing is a service advancing very many
machine instances against a shared event stream.  The harness models
exactly that:

* it instantiates **N lanes** of one or more compiled machines,
  partitioned over ``n_shards`` shards (each shard owns one
  :class:`~repro.fleet.engine.Fleet` per machine — lanes of one shard
  advance together in the vectorized dispatch);
* events are **routed** to shards (``round-robin`` spreads a stream
  over sub-populations; ``broadcast`` delivers every event to every
  lane — the mode benchmarks use to compare against per-instance
  interpretation);
* routed events park in per-shard **queues** and are dispatched in
  **batches** of ``batch_size``; each batch flush is timed, giving the
  per-shard latency distribution the throughput report summarizes.

Everything is wall-clock here — this module quantifies the table
engine, it does not participate in the deterministic experiment
tables (which is why the experiments CLI only prints it under an
explicit flag).
"""

from __future__ import annotations

import time
from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

from ..obs.metrics import REGISTRY
from ..obs.trace import span as _span
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .engine import Fleet
from .table import TableProgram, compile_table

__all__ = ["FleetHarness", "ThroughputReport", "ShardReport"]

_FLEET_BATCHES = REGISTRY.counter("fleet_batches_total",
                                  "batch flushes by shard")
_FLEET_LANE_EVENTS = REGISTRY.counter(
    "fleet_lane_events_total", "lane-events delivered by batch flushes")

MachineSpec = Union[StateMachine, TableProgram,
                    Tuple[Union[StateMachine, TableProgram], int]]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1,
                      int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


class ShardReport:
    """One shard's share of a run: lanes, events, batch latencies."""

    __slots__ = ("shard", "lanes", "events_routed", "lane_events",
                 "fast_fraction", "p50_ms", "p90_ms", "p99_ms", "max_ms")

    def __init__(self, shard: int, lanes: int, events_routed: int,
                 lane_events: int, fast_fraction: float,
                 latencies_s: Sequence[float]) -> None:
        self.shard = shard
        self.lanes = lanes
        self.events_routed = events_routed
        self.lane_events = lane_events
        self.fast_fraction = fast_fraction
        ordered = sorted(latencies_s)
        self.p50_ms = _percentile(ordered, 0.50) * 1e3
        self.p90_ms = _percentile(ordered, 0.90) * 1e3
        self.p99_ms = _percentile(ordered, 0.99) * 1e3
        self.max_ms = (ordered[-1] if ordered else 0.0) * 1e3

    def summary(self) -> str:
        return (f"shard {self.shard}: {self.lanes} lanes, "
                f"{self.events_routed} events -> {self.lane_events} "
                f"lane-events ({self.fast_fraction:.0%} vectorized); "
                f"batch p50/p90/p99 = {self.p50_ms:.3f}/"
                f"{self.p90_ms:.3f}/{self.p99_ms:.3f} ms")


class ThroughputReport:
    """Sustained throughput of one harness run."""

    def __init__(self, n_lanes: int, n_shards: int, routing: str,
                 events_routed: int, lane_events: int, fired: int,
                 elapsed_s: float, shards: List[ShardReport]) -> None:
        self.n_lanes = n_lanes
        self.n_shards = n_shards
        self.routing = routing
        self.events_routed = events_routed
        self.lane_events = lane_events
        self.fired = fired
        self.elapsed_s = elapsed_s
        self.shards = shards

    @property
    def events_per_sec(self) -> float:
        """Sustained lane-events per second — the fleet throughput
        number (one stream event delivered to L lanes counts L)."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.lane_events / self.elapsed_s

    def summary(self) -> str:
        lines = [(f"{self.n_lanes} lanes / {self.n_shards} shard(s), "
                  f"{self.routing} routing: {self.lane_events} "
                  f"lane-events in {self.elapsed_s:.3f}s = "
                  f"{self.events_per_sec:,.0f} events/sec "
                  f"({self.fired} transitions fired)")]
        lines.extend(s.summary() for s in self.shards)
        return "\n".join(lines)


class _Shard:
    def __init__(self, fleets: List[Fleet], batch_size: int,
                 index: int = 0) -> None:
        self.fleets = fleets
        self.batch_size = batch_size
        self.index = index
        self.queue: List[str] = []
        self.events_routed = 0
        self.latencies_s: List[float] = []

    @property
    def lanes(self) -> int:
        return sum(f.n for f in self.fleets)

    def push(self, name: str) -> None:
        self.queue.append(name)
        if len(self.queue) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        if not self.queue:
            return
        batch, self.queue = self.queue, []
        sp = _span("fleet.batch")
        if sp.recording:
            sp.set(shard=self.index, events=len(batch))
        with sp:
            began = time.perf_counter()
            for name in batch:
                for fleet in self.fleets:
                    fleet.dispatch_all(name)
            self.latencies_s.append(time.perf_counter() - began)
        self.events_routed += len(batch)
        _FLEET_BATCHES.inc(shard=self.index)
        # Every dispatch_all delivers its event to each lane once.
        _FLEET_LANE_EVENTS.inc(len(batch) * self.lanes)


class FleetHarness:
    """N instances of one or more machines behind sharded event queues.

    Parameters
    ----------
    specs:
        What to instantiate: a machine (or precompiled
        :class:`TableProgram`), a ``(machine, n_instances)`` pair, or a
        list of those.  A bare machine takes the full *n_instances*
        default.
    n_instances:
        Default instance count for specs that do not carry their own.
    n_shards:
        Number of shards; each machine's lanes are split evenly across
        shards (first shards take the remainder).
    batch_size:
        Events buffered per shard queue before a dispatch flush.
    routing:
        ``"round-robin"`` sends each stream event to one shard in turn;
        ``"broadcast"`` delivers every event to every shard (so every
        lane sees the full stream — the apples-to-apples mode against
        per-instance execution).

    Every fleet keeps its semantics' run-to-completion step budget,
    which bounds one event's dispatch to a lane, not the stream: a
    livelocked machine raises
    :class:`~repro.fleet.table.FleetExecutionError` instead of spinning.
    """

    def __init__(self, specs: Union[MachineSpec, Sequence[MachineSpec]],
                 n_instances: int = 1024, n_shards: int = 4,
                 batch_size: int = 64, routing: str = "round-robin",
                 externals: Optional[Mapping[str, Callable]] = None,
                 semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS
                 ) -> None:
        if routing not in ("round-robin", "broadcast"):
            raise ValueError(f"unknown routing policy {routing!r}")
        self.routing = routing
        if isinstance(specs, (StateMachine, TableProgram, tuple)):
            specs = [specs]
        resolved: List[Tuple[TableProgram, int]] = []
        for spec in specs:
            count = n_instances
            if isinstance(spec, tuple):
                spec, count = spec
            if isinstance(spec, StateMachine):
                spec = compile_table(spec, semantics)
            if count < 1:
                raise ValueError("instance count must be >= 1")
            resolved.append((spec, count))
        n_shards = max(1, min(n_shards, min(c for _, c in resolved)))
        self.n_shards = n_shards
        self._shards: List[_Shard] = []
        for shard_index in range(n_shards):
            fleets = []
            for program, count in resolved:
                width = count // n_shards + \
                    (1 if shard_index < count % n_shards else 0)
                if width:
                    fleets.append(Fleet(program, width,
                                        externals=externals))
            self._shards.append(_Shard(fleets, batch_size,
                                       index=shard_index))
        self.n_lanes = sum(s.lanes for s in self._shards)
        self._started = False
        self._next_shard = 0

    def start(self) -> "FleetHarness":
        for shard in self._shards:
            for fleet in shard.fleets:
                fleet.start()
        self._started = True
        return self

    def route(self, event: object) -> None:
        """Queue one stream event according to the routing policy."""
        name = getattr(event, "name", None) or str(event)
        if self.routing == "broadcast":
            for shard in self._shards:
                shard.push(name)
        else:
            self._shards[self._next_shard].push(name)
            self._next_shard = (self._next_shard + 1) % self.n_shards

    def run(self, events: Sequence[object]) -> ThroughputReport:
        """Route a whole stream, flush every queue, report throughput."""
        if not self._started:
            self.start()
        sp = _span("fleet.run")
        if sp.recording:
            sp.set(lanes=self.n_lanes, shards=self.n_shards,
                   routing=self.routing, events=len(events))
        with sp:
            began = time.perf_counter()
            for event in events:
                self.route(event)
            for shard in self._shards:
                shard.flush()
            elapsed = time.perf_counter() - began
        reports = []
        lane_events = fired = routed = 0
        for shard in self._shards:
            stats = [f.stats for f in shard.fleets]
            shard_lane_events = sum(s.lane_events for s in stats)
            shard_fast = sum(s.fast_lane_events for s in stats)
            reports.append(ShardReport(
                len(reports),
                shard.lanes, shard.events_routed, shard_lane_events,
                shard_fast / shard_lane_events if shard_lane_events else 0.0,
                shard.latencies_s))
            lane_events += shard_lane_events
            fired += sum(s.fired for s in stats)
            routed += shard.events_routed
        return ThroughputReport(self.n_lanes, self.n_shards, self.routing,
                                routed, lane_events, fired, elapsed,
                                reports)

    def finals(self) -> int:
        """Lanes (across all shards and machines) in their final state."""
        return sum(f.finals() for s in self._shards for f in s.fleets)
