"""Model-size metrics.

Used by the experiment harness to report model complexity next to code
size, and by tests/benchmarks to characterize generated workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..uml.statemachine import (FinalState, Pseudostate, State, StateMachine)
from ..uml.transitions import TransitionKind

__all__ = ["ModelMetrics", "measure_model"]


@dataclass(frozen=True)
class ModelMetrics:
    """Structural counts of one state machine."""

    name: str
    simple_states: int
    composite_states: int
    final_states: int
    pseudostates: int
    regions: int
    transitions: int
    completion_transitions: int
    internal_transitions: int
    guarded_transitions: int
    events: int
    max_depth: int
    behavior_statements: int

    @property
    def total_states(self) -> int:
        return self.simple_states + self.composite_states

    def as_dict(self) -> Dict[str, int]:
        return {
            "states": self.total_states,
            "simple_states": self.simple_states,
            "composite_states": self.composite_states,
            "final_states": self.final_states,
            "pseudostates": self.pseudostates,
            "regions": self.regions,
            "transitions": self.transitions,
            "completion_transitions": self.completion_transitions,
            "internal_transitions": self.internal_transitions,
            "guarded_transitions": self.guarded_transitions,
            "events": self.events,
            "max_depth": self.max_depth,
            "behavior_statements": self.behavior_statements,
        }


def _depth_of(state: State) -> int:
    return 1 + sum(1 for _ in state.ancestors())


def measure_model(machine: StateMachine) -> ModelMetrics:
    """Compute :class:`ModelMetrics` for *machine*."""
    simple = composite = 0
    behavior_statements = 0
    max_depth = 0
    for state in machine.all_states():
        if state.is_composite:
            composite += 1
        else:
            simple += 1
        behavior_statements += (len(state.entry.statements)
                                + len(state.exit.statements)
                                + len(state.do_activity.statements))
        max_depth = max(max_depth, _depth_of(state))

    finals = pseudos = 0
    for vertex in machine.all_vertices():
        if isinstance(vertex, FinalState):
            finals += 1
        elif isinstance(vertex, Pseudostate):
            pseudos += 1

    transitions = list(machine.all_transitions())
    for tr in transitions:
        behavior_statements += len(tr.effect.statements)

    return ModelMetrics(
        name=machine.name,
        simple_states=simple,
        composite_states=composite,
        final_states=finals,
        pseudostates=pseudos,
        regions=sum(1 for _ in machine.all_regions()),
        transitions=len(transitions),
        completion_transitions=sum(1 for t in transitions if t.is_completion),
        internal_transitions=sum(
            1 for t in transitions if t.kind is TransitionKind.INTERNAL),
        guarded_transitions=sum(1 for t in transitions if t.guard is not None),
        events=len(machine.events),
        max_depth=max_depth,
        behavior_statements=behavior_statements,
    )
