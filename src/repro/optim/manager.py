"""Pass manager: selection, ordering, fixpoint, reporting.

Mirrors the workflow of the paper's Java tool: the user picks the
optimizations to perform, the tool runs them and *generates the optimized
model* (the input is never mutated).  ``optimize()`` is the high-level
entry point; ``PassManager`` gives full control.

The default pipeline runs, to fixpoint:

1. ``simplify-guards``        — may expose unguarded completion transitions
2. ``remove-shadowed-transitions`` — the hierarchical killer (UML priority)
3. ``remove-unreachable-states``   — Fig. 1 flat example + collected corpses
4. ``merge-final-states``
5. ``flatten-trivial-composites``
6. ``remove-unused-events``

Passes whose soundness depends on the UML completion-priority rule are
skipped automatically (with a note) when the chosen
:class:`~repro.semantics.variation.SemanticsConfig` disables that rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml import clone_machine
from ..uml.statemachine import StateMachine
from .pass_base import ModelPass, PassResult
from .passes.dead_composites import RemoveDeadComposites
from .passes.flatten import FlattenTrivialComposites
from .passes.guard_simplify import SimplifyGuards
from .passes.merge_final_states import MergeFinalStates
from .passes.remove_unused_events import RemoveUnusedEvents
from .passes.shadowed_transitions import RemoveShadowedTransitions
from .passes.unreachable_states import RemoveUnreachableStates

__all__ = ["OptimizationReport", "PassManager", "optimize",
           "default_pass_catalog", "DEFAULT_PIPELINE"]

#: Names of the default pipeline, in application order.
DEFAULT_PIPELINE: Sequence[str] = (
    "simplify-guards",
    "remove-shadowed-transitions",
    "remove-unreachable-states",
    "merge-final-states",
    "flatten-trivial-composites",
    "remove-unused-events",
)

#: The most times :meth:`PassManager.run` repeats the pass sequence.
_MAX_ITERATIONS = 25


def default_pass_catalog() -> Dict[str, ModelPass]:
    """Fresh instances of every built-in pass, keyed by name."""
    passes: List[ModelPass] = [
        SimplifyGuards(),
        RemoveShadowedTransitions(),
        RemoveUnreachableStates(),
        RemoveDeadComposites(),
        MergeFinalStates(),
        FlattenTrivialComposites(),
        RemoveUnusedEvents(),
    ]
    return {p.name: p for p in passes}


@dataclass
class OptimizationReport:
    """The outcome of one optimization run."""

    machine_name: str
    optimized: StateMachine
    pass_results: List[PassResult] = field(default_factory=list)
    skipped_passes: List[str] = field(default_factory=list)
    iterations: int = 0

    @property
    def changed(self) -> bool:
        return any(r.changed for r in self.pass_results)

    @property
    def removed_states(self) -> List[str]:
        return [s for r in self.pass_results for s in r.removed_states]

    @property
    def removed_transitions(self) -> List[str]:
        return [t for r in self.pass_results for t in r.removed_transitions]

    @property
    def removed_events(self) -> List[str]:
        return [e for r in self.pass_results for e in r.removed_events]

    def summary(self) -> str:
        lines = [f"optimization report for {self.machine_name!r} "
                 f"({self.iterations} iteration(s)):"]
        effective = [r for r in self.pass_results if r.changed]
        if not effective:
            lines.append("  no optimization opportunities found")
        for r in effective:
            lines.append("  " + r.summary())
        for name in self.skipped_passes:
            lines.append(f"  skipped {name} (unsound under the chosen "
                         "semantics)")
        return "\n".join(lines)


class PassManager:
    """Runs a selected sequence of passes over a *copy* of the model."""

    def __init__(self, passes: Optional[Iterable[ModelPass]] = None,
                 semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS) -> None:
        self.catalog = default_pass_catalog()
        if passes is not None:
            self.catalog = {p.name: p for p in passes}
        self.semantics = semantics

    def describe_catalog(self) -> str:
        width = max(len(n) for n in self.catalog)
        return "\n".join(f"{name:<{width}}  {p.description}"
                         for name, p in self.catalog.items())

    def run(self, machine: StateMachine,
            selection: Optional[Sequence[str]] = None
            ) -> OptimizationReport:
        """Apply the selected passes (default: the standard pipeline).

        Passes run in the given order, and the whole sequence repeats
        until no pass reports a change (each pass can expose
        opportunities for the others, e.g. removing a shadowed
        transition strands a composite for unreachable-state removal),
        at most 25 times.
        """
        names = list(selection if selection is not None
                     else [n for n in DEFAULT_PIPELINE if n in self.catalog])
        unknown = [n for n in names if n not in self.catalog]
        if unknown:
            raise KeyError(f"unknown optimization pass(es): {unknown}; "
                           f"available: {sorted(self.catalog)}")
        optimized = clone_machine(machine)
        report = OptimizationReport(machine_name=machine.name,
                                    optimized=optimized)
        runnable: List[ModelPass] = []
        for name in names:
            pass_ = self.catalog[name]
            if pass_.applicable(self.semantics):
                runnable.append(pass_)
            else:
                report.skipped_passes.append(name)
        while report.iterations < _MAX_ITERATIONS:
            report.iterations += 1
            changed = False
            for pass_ in runnable:
                result = pass_.run(optimized, self.semantics)
                report.pass_results.append(result)
                changed = changed or result.changed
            if not changed:
                break
        return report


def optimize(machine: StateMachine,
             selection: Optional[Sequence[str]] = None,
             semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
             ) -> OptimizationReport:
    """One-call interface: run the (selected) pipeline on *machine*."""
    return PassManager(semantics=semantics).run(machine, selection=selection)
