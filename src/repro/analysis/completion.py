"""Completion-transition shadowing analysis.

Paper §III.C: *"According to the UML semantic, the completion transition
is first fired whatever the received event is."*  Concretely, when a state
finishes its entry behavior a completion event is generated and dispatched
**before** any pooled event; if the state owns an un-guarded completion
transition, that transition always wins and the state's event-triggered
transitions can never fire.

This analysis computes, purely structurally (no execution):

* the set of *always-completing* states — states guaranteed to take a
  completion transition the moment they are entered;
* the set of *shadowed transitions* — event-triggered transitions whose
  source is always-completing, i.e. transitions that are dead under UML
  semantics.

A state is always-completing when

* it is a simple state (or a composite whose only region has no initial
  pseudostate — such a composite completes immediately, like a simple
  state), **and**
* the disjunction of its completion-transition guards is a tautology;
  in practice we check the common cases: some completion transition is
  un-guarded or constant-true after folding, or an exhaustive
  guard/else pair exists (``[g]`` and ``[!g]``).

Composites with a running region are *not* always-completing: their
completion waits for the region's final state, so their event transitions
remain live in the meantime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set

from ..uml.actions import BoolLit, UnaryOp, const_fold
from ..uml.statemachine import State, StateMachine
from ..uml.transitions import Transition

__all__ = ["CompletionInfo", "analyze_completion", "is_always_completing"]


def _completes_immediately_on_entry(state: State) -> bool:
    """True when the state's completion event is generated directly on
    entry (no nested region keeps running)."""
    if state.is_simple:
        return True
    region = state.regions[0] if state.regions else None
    return region is not None and region.initial is None


def _guards_exhaustive(transitions: List[Transition]) -> bool:
    """Check the guard disjunction for tautology (conservative).

    Recognized patterns: any true/absent guard, or a complementary pair
    ``g`` / ``!g`` (after folding).
    """
    folded = [const_fold(t.guard) if t.guard is not None else BoolLit(True)
              for t in transitions]
    if any(isinstance(g, BoolLit) and g.value for g in folded):
        return True
    for i, gi in enumerate(folded):
        for gj in folded[i + 1:]:
            if isinstance(gj, UnaryOp) and gj.op == "!" and gj.operand == gi:
                return True
            if isinstance(gi, UnaryOp) and gi.op == "!" and gi.operand == gj:
                return True
    return False


def is_always_completing(state: State) -> bool:
    """True when *state* always exits through a completion transition
    immediately after being entered (making its event transitions dead)."""
    completions = state.completion_transitions()
    if not completions:
        return False
    if not _completes_immediately_on_entry(state):
        return False
    return _guards_exhaustive(completions)


@dataclass(frozen=True)
class CompletionInfo:
    """Result of the shadowing analysis."""

    always_completing: FrozenSet[str]      # state names
    shadowed_transitions: tuple            # Transition objects (dead)


def analyze_completion(machine: StateMachine) -> CompletionInfo:
    """Run the shadowing analysis over every state of *machine*."""
    always: Set[str] = set()
    shadowed: List[Transition] = []
    for state in machine.all_states():
        if is_always_completing(state):
            always.add(state.name)
            shadowed.extend(state.event_transitions())
    return CompletionInfo(frozenset(always), tuple(shadowed))
