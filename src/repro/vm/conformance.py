"""Differential conformance: compiled code vs. the reference semantics.

The paper's refactoring argument needs the generated, compiled code to
*behave* like the model, not merely be smaller.  This module checks that
end to end with the :mod:`repro.exec` differential runner: for each
event scenario it observes the UML interpreter and the compiled machine
on the ISA simulator (:mod:`repro.vm.harness`) and compares them by the
runner's one rule — the **observable traces** (external calls with
argument values, context attribute assignments, events emitted to
self), plus final-state and termination agreement.  A machine passes
when every scenario matches for the chosen codegen pattern x
optimization level x target.

The generated runtimes implement the semantics the paper fixes before
generating code (UML defaults: FIFO-equivalent single-slot pool,
discard unconsumed, innermost-first, completion priority), so
conformance is asserted under :data:`UML_DEFAULT_SEMANTICS`; passing a
different config checks how far the fixed-code semantics diverge from
that variation instead.

Because the simulator also counts cycles, a conformance run doubles as
the dynamic measurement: every VM observation carries its cycle
accounting as the runner's per-executor extra, and the report
aggregates instructions, cycles per dispatched event and peak dispatch
latency over all scenarios — all deterministic, simulated quantities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from ..compiler.driver import OptLevel
from ..compiler.target.description import TargetDescription
from ..compiler.target.registry import resolve_target
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine

__all__ = ["ConformanceReport", "check_vm_conformance",
           "conformance_scenarios"]


@dataclass
class ConformanceReport:
    """Interpreter-vs-simulator comparison over a scenario set."""

    machine_name: str
    pattern: str
    level: OptLevel
    target_name: str
    scenarios_run: int = 0
    mismatches: List[Tuple[Tuple[str, ...], str]] = field(
        default_factory=list)
    # aggregate dynamic cost over all scenarios (simulated, deterministic)
    instructions: int = 0
    cycles: int = 0
    events_dispatched: int = 0
    peak_dispatch_cycles: int = 0
    init_cycles: int = 0
    text_bytes: int = 0

    @property
    def conformant(self) -> bool:
        return not self.mismatches

    @property
    def metrics(self) -> "VmMetrics":
        """The aggregate dynamic cost as one :class:`VmMetrics` (sums
        over all scenarios; peak is the worst single dispatch)."""
        from .harness import VmMetrics
        return VmMetrics(instructions=self.instructions,
                         cycles=self.cycles,
                         events_dispatched=self.events_dispatched,
                         peak_dispatch_cycles=self.peak_dispatch_cycles,
                         init_cycles=self.init_cycles,
                         text_bytes=self.text_bytes)

    @property
    def cycles_per_event(self) -> float:
        """Mean simulated cycles per dispatched event (init excluded)."""
        return self.metrics.cycles_per_event

    def summary(self) -> str:
        head = (f"{self.machine_name} [{self.pattern}, {self.level.value}, "
                f"{self.target_name}]")
        if self.conformant:
            return (f"{head}: conformant on {self.scenarios_run} "
                    f"scenario(s); {self.cycles_per_event:.1f} "
                    f"cycles/event, peak dispatch "
                    f"{self.peak_dispatch_cycles}")
        first = self.mismatches[0]
        return (f"{head}: {len(self.mismatches)} of {self.scenarios_run} "
                f"scenario(s) diverge; first: events={list(first[0])} "
                f"({first[1]})")


def conformance_scenarios(machine: StateMachine,
                          exhaustive_depth: int = 2,
                          n_random: int = 8,
                          random_length: int = 10,
                          seed: int = 0xFACE) -> List[Tuple[str, ...]]:
    """Scenario set for conformance runs.

    Same construction as :func:`repro.optim.equivalence.make_scenarios`
    but with smaller defaults: every scenario here costs a full
    instruction-level simulation, not just two interpreter runs.
    """
    from ..optim.equivalence import make_scenarios
    return make_scenarios(machine, exhaustive_depth=exhaustive_depth,
                          n_random=n_random, random_length=random_length,
                          seed=seed)


def check_vm_conformance(machine: StateMachine,
                         pattern: str = "nested-switch",
                         level: OptLevel = OptLevel.OS,
                         target: Union[TargetDescription, str, None] = None,
                         semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                         scenarios: Optional[Sequence[Tuple[str, ...]]]
                         = None,
                         ) -> ConformanceReport:
    """Execute compiled code against the interpreter on every scenario.

    One :mod:`repro.exec` differential run: the reference observed on
    :class:`~repro.exec.InterpreterExecutor`, the compiled code on
    :class:`~repro.exec.VMExecutor` (one compile, a fresh simulator
    boot per scenario), compared by :func:`repro.exec.diff`.  The
    dynamic metrics sum the VM observations' extras over the scenarios
    both sides completed.
    """
    from ..exec import InterpreterExecutor, VMExecutor, diff, observe
    tgt = resolve_target(target)
    report = ConformanceReport(machine_name=machine.name, pattern=pattern,
                               level=level, target_name=tgt.name)
    if scenarios is None:
        scenarios = conformance_scenarios(machine)
    executor = VMExecutor(pattern, level=level, target=tgt)
    try:
        program = executor.program_for(machine)
    except Exception as exc:   # codegen/compile/assemble failure
        report.mismatches.append(((), f"compile/assemble failed: {exc}"))
        return report
    report.text_bytes = len(program.image.text)

    reference = observe(InterpreterExecutor(semantics), machine, scenarios)
    observed = observe(executor, machine, scenarios)
    report.scenarios_run = len(scenarios)
    for ref, obs in zip(reference, observed):
        if ref.ok and obs.ok:
            metrics = obs.extra
            report.instructions += metrics.instructions
            report.cycles += metrics.cycles
            report.init_cycles += metrics.init_cycles
            report.events_dispatched += metrics.events_dispatched
            report.peak_dispatch_cycles = max(report.peak_dispatch_cycles,
                                              metrics.peak_dispatch_cycles)
    report.mismatches = [(tuple(scenarios[index]), reason)
                         for index, reason in diff(reference, observed)]
    return report
