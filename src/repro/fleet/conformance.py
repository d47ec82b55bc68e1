"""Differential conformance: the fleet engine vs. the reference
semantics.

One :mod:`repro.exec` differential run covers both of the fleet's
execution paths:

* **traced lane** — the fleet executor's traced lane (scalar path) must
  match the interpreter by the runner's one rule: observable payloads,
  final state, termination;
* **vectorized fleet** — the executor's wide-lane extra: every lane of
  a wide, untraced fleet (routed cells advance by lane masks) fed
  the same events must land in the traced lane's final configuration
  with its attribute values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .table import FleetUnsupported

__all__ = ["FleetConformanceReport", "check_fleet_conformance"]


@dataclass
class FleetConformanceReport:
    """Interpreter-vs-fleet comparison over a scenario set."""

    machine_name: str
    scenarios_run: int = 0
    mismatches: List[Tuple[Tuple[str, ...], str]] = field(
        default_factory=list)
    unsupported: Optional[str] = None
    #: vectorized-path accounting over the wide runs
    wide_lanes: int = 0
    fast_lane_events: int = 0
    scalar_lane_events: int = 0

    @property
    def conformant(self) -> bool:
        return not self.mismatches and self.unsupported is None

    @property
    def fast_fraction(self) -> float:
        total = self.fast_lane_events + self.scalar_lane_events
        return self.fast_lane_events / total if total else 0.0

    def summary(self) -> str:
        if self.unsupported is not None:
            return (f"{self.machine_name}: fleet-unsupported "
                    f"({self.unsupported})")
        if self.conformant:
            return (f"{self.machine_name}: conformant on "
                    f"{self.scenarios_run} scenario(s); vectorized "
                    f"fraction {self.fast_fraction:.0%} over "
                    f"{self.wide_lanes} lanes")
        first = self.mismatches[0]
        return (f"{self.machine_name}: {len(self.mismatches)} of "
                f"{self.scenarios_run} scenario(s) diverge; first: "
                f"events={list(first[0])} ({first[1]})")


def check_fleet_conformance(machine: StateMachine,
                            semantics: SemanticsConfig =
                            UML_DEFAULT_SEMANTICS,
                            scenarios: Optional[Sequence[Tuple[str, ...]]]
                            = None,
                            wide_lanes: int = 64,
                            ) -> FleetConformanceReport:
    """Run every scenario on interpreter + fleet (both paths)."""
    # Imported here, not at module top: repro.exec adapts this package,
    # so a top-level import would be circular.
    from ..exec import FleetExecutor, InterpreterExecutor, diff, observe
    report = FleetConformanceReport(machine_name=machine.name,
                                    wide_lanes=wide_lanes)
    if scenarios is None:
        from ..vm.conformance import conformance_scenarios
        scenarios = conformance_scenarios(machine)
    executor = FleetExecutor(semantics, n_lanes=wide_lanes)
    try:
        executor.table_for(machine)
    except FleetUnsupported as exc:
        report.unsupported = str(exc)
        return report
    reference = observe(InterpreterExecutor(semantics), machine, scenarios)
    observed = observe(executor, machine, scenarios)
    report.scenarios_run = len(scenarios)
    mismatched = dict(diff(reference, observed))
    for index, (events, obs) in enumerate(zip(scenarios, observed)):
        reason = mismatched.get(index)
        if reason is None and obs.extra is not None:
            report.fast_lane_events += obs.extra.fast_lane_events
            report.scalar_lane_events += obs.extra.scalar_lane_events
            reason = obs.extra.disagreement
        if reason is not None:
            report.mismatches.append((tuple(events), reason))
    return report
