"""Model-level dead-code report.

Aggregates the reachability and completion analyses into the report the
paper's optimization tool shows its user: which states, transitions,
regions and events are dead, and *why*.  The optimizer passes consume the
same primitives; this module exists so examples and tests can inspect a
human-readable diagnosis without running any transformation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from ..uml.statemachine import State, StateMachine
from ..uml.transitions import Transition
from .reachability import ReachabilityInfo, analyze_reachability

__all__ = ["DeadReason", "DeadState", "DeadTransition", "DeadCodeReport",
           "find_dead_code"]


class DeadReason(enum.Enum):
    """Why a model element can never execute."""

    NO_INCOMING = "no incoming transition"
    UNREACHABLE_SOURCE = "source state is unreachable"
    SHADOWED_BY_COMPLETION = "shadowed by an unguarded completion transition"
    FALSE_GUARD = "guard is statically false"
    UNREACHABLE = "not reachable from the initial state"


@dataclass(frozen=True)
class DeadState:
    """An unreachable state plus diagnosis."""

    name: str
    qualified_name: str
    reason: DeadReason
    is_composite: bool
    nested_state_count: int


@dataclass(frozen=True)
class DeadTransition:
    """A transition that can never fire plus diagnosis."""

    description: str
    reason: DeadReason


@dataclass(frozen=True)
class DeadCodeReport:
    """Everything dead in one model."""

    machine_name: str
    dead_states: Tuple[DeadState, ...]
    dead_transitions: Tuple[DeadTransition, ...]
    unused_events: Tuple[str, ...]
    reachability: ReachabilityInfo

    @property
    def is_clean(self) -> bool:
        return not (self.dead_states or self.dead_transitions
                    or self.unused_events)

    def summary(self) -> str:
        """Human-readable report (what the paper's tool shows the user)."""
        lines = [f"dead-code report for {self.machine_name!r}:"]
        if self.is_clean:
            lines.append("  model is clean - nothing to optimize")
            return "\n".join(lines)
        for ds in self.dead_states:
            extra = (f" (composite, {ds.nested_state_count} nested states)"
                     if ds.is_composite else "")
            lines.append(f"  dead state {ds.name}{extra}: {ds.reason.value}")
        for dt in self.dead_transitions:
            lines.append(f"  dead transition {dt.description}: "
                         f"{dt.reason.value}")
        for ev in self.unused_events:
            lines.append(f"  unused event {ev}: only triggers dead "
                         "transitions")
        return "\n".join(lines)


def _state_reason(state: State, info: ReachabilityInfo) -> DeadReason:
    incoming = [t for t in state.incoming() if t.source is not t.target]
    if not incoming:
        return DeadReason.NO_INCOMING
    if all(t in info.dead_transitions for t in state.incoming()):
        if any(t in info.completion.shadowed_transitions
               for t in state.incoming()):
            return DeadReason.SHADOWED_BY_COMPLETION
        return DeadReason.UNREACHABLE
    return DeadReason.UNREACHABLE


def _transition_reason(tr: Transition, info: ReachabilityInfo) -> DeadReason:
    if tr in info.completion.shadowed_transitions:
        return DeadReason.SHADOWED_BY_COMPLETION
    from ..uml.actions import BoolLit, const_fold
    if tr.guard is not None:
        folded = const_fold(tr.guard)
        if isinstance(folded, BoolLit) and folded.value is False:
            return DeadReason.FALSE_GUARD
    return DeadReason.UNREACHABLE_SOURCE


def find_dead_code(machine: StateMachine,
                   respect_completion_shadowing: bool = True,
                   ) -> DeadCodeReport:
    """Diagnose every dead element of *machine*."""
    info = analyze_reachability(
        machine, respect_completion_shadowing=respect_completion_shadowing)

    dead_states: List[DeadState] = []
    for state in machine.all_states():
        if info.is_reachable(state):
            continue
        dead_states.append(DeadState(
            name=state.name,
            qualified_name=state.qualified_name,
            reason=_state_reason(state, info),
            is_composite=state.is_composite,
            nested_state_count=len(list(state.descendant_states())),
        ))

    dead_transitions = tuple(
        DeadTransition(tr.describe(), _transition_reason(tr, info))
        for tr in info.dead_transitions)

    live_triggers = set()
    for tr in machine.all_transitions():
        if tr not in info.dead_transitions:
            for trig in tr.triggers:
                live_triggers.add(trig.key())
    unused_events = tuple(
        event.name for key, event in machine.events.items()
        if key not in live_triggers)

    return DeadCodeReport(
        machine_name=machine.name,
        dead_states=tuple(dead_states),
        dead_transitions=dead_transitions,
        unused_events=unused_events,
        reachability=info,
    )
