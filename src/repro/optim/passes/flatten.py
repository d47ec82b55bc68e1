"""Pass: flatten trivial composite states.

A composite whose region holds exactly one simple substate (entered via
the region's initial transition, with no other vertices and no internal
transitions beyond that initial arc) adds a full submachine class to the
generated code while contributing nothing behaviourally beyond
concatenated entry/exit actions.  The pass inlines the substate:

* the composite's entry behavior is extended with the initial transition's
  effect and the substate's entry behavior (preserving execution order
  *outer entry, initial effect, inner entry*);
* the substate's exit behavior is prepended to the composite's exit;
* transitions from the substate are re-sourced to the composite;
* the nested region disappears, turning the composite into a simple state.

Conditions are deliberately conservative — any history pseudostate, final
state, sibling vertex or completion subtlety disables the rewrite — so the
transformation is observationally sound under every semantics
configuration.
"""

from __future__ import annotations

from typing import Optional

from ...semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ...uml.actions import Behavior
from ...uml.statemachine import State, StateMachine
from ..pass_base import ModelPass, PassResult

__all__ = ["FlattenTrivialComposites"]


def _concat(*behaviors: Behavior) -> Behavior:
    statements = tuple(s for b in behaviors for s in b.statements)
    name = next((b.name for b in behaviors if b.name), "")
    return Behavior(name=name, statements=statements)


def _trivial_substate(composite: State) -> Optional[State]:
    """Return the single inlinable substate, or None if not flattenable."""
    if len(composite.regions) != 1:
        return None
    region = composite.regions[0]
    initial = region.initial
    if initial is None:
        return None
    states = region.states()
    if len(states) != 1 or states[0].is_composite:
        return None
    substate = states[0]
    # No finals, no extra pseudostates, no history.
    non_initial = [v for v in region.vertices
                   if v is not initial and v is not substate]
    if non_initial:
        return None
    # The only internal transition is the initial arc to the substate.
    internal = list(region.transitions)
    if len(internal) != 1 or internal[0].source is not initial or \
            internal[0].target is not substate:
        return None
    # External transitions may leave the substate, but none may target it
    # directly (a direct entry would bypass the composite's default entry
    # and is not expressible after flattening).
    for tr in substate.incoming():
        if tr is not internal[0]:
            return None
    # The substate must not defer completion: if the composite has
    # completion transitions their trigger condition changes (region never
    # completes -> after flattening the simple state completes on entry).
    if composite.completion_transitions():
        return None
    if substate.do_activity:
        return None
    return substate


class FlattenTrivialComposites(ModelPass):
    """Inline single-substate composites into simple states."""

    name = "flatten-trivial-composites"
    description = ("inline composites whose region holds a single simple "
                   "substate - the submachine class disappears")

    def run(self, machine: StateMachine,
            semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS) -> PassResult:
        result = PassResult(self.name)
        changed = True
        while changed:
            changed = False
            for composite in list(machine.all_states()):
                if not composite.is_composite:
                    continue
                substate = _trivial_substate(composite)
                if substate is None:
                    continue
                self._flatten(machine, composite, substate, result)
                changed = True
        return result

    @staticmethod
    def _flatten(machine: StateMachine, composite: State, substate: State,
                 result: PassResult) -> None:
        region = composite.regions[0]
        initial_arc = region.transitions[0]
        # Entry order: outer entry already first; append initial effect and
        # inner entry.  Exit order: inner exit first, then outer exit.
        composite.entry = _concat(composite.entry, initial_arc.effect,
                                  substate.entry)
        composite.exit = _concat(substate.exit, composite.exit)
        # Re-source transitions leaving the substate onto the composite.
        for tr in list(substate.outgoing()):
            if tr is initial_arc:
                continue
            tr.source = composite
        # Drop the nested region; transitions it still owns (cross-boundary
        # arcs created inside the sub-builder) move to the parent region so
        # they stay part of the machine.
        region.remove_transition(initial_arc)
        parent_region = composite.container
        assert parent_region is not None
        for tr in list(region.transitions):
            region.remove_transition(tr)
            parent_region.add_transition(tr)
        for vertex in region.vertices:
            vertex.owner = None
        region.vertices.clear()
        composite.regions.clear()
        region.owner = None
        result.changed = True
        result.record_state(substate.qualified_name or substate.label)
        result.note(f"flattened composite {composite.name}: inlined "
                    f"substate {substate.name}")
