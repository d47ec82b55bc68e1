"""Reachability analysis over the state graph.

This is the model-level counterpart of the compiler's unreachable-code
elimination — except that, as the paper demonstrates, it sees what the
compiler cannot: *"a state with no incoming transition is an unreachable
state, so its code is a dead code"* (§III.D).  The control-flow graph the
compiler would have to reconstruct is already explicit in the model
(§IV.A), so the analysis is one fixpoint traversal.

The analysis handles:

* the machine's (and each entered composite's) default entry via initial
  pseudostates;
* pseudostate chains (choice/junction/history/entry/exit points);
* hierarchical entries (a transition targeting a nested state also makes
  its enclosing composites active);
* event bubbling — a transition from a composite is fireable while any
  descendant is active;
* completion shadowing (optional): transitions proven dead by
  :mod:`repro.analysis.completion` do not propagate reachability;
* statically-false guards: transitions whose folded guard is ``false``
  do not propagate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from ..uml.actions import BoolLit, const_fold
from ..uml.statemachine import (Pseudostate, PseudostateKind, State,
                                StateMachine, Vertex)
from ..uml.transitions import Transition
from .completion import CompletionInfo, analyze_completion

__all__ = ["ReachabilityInfo", "analyze_reachability"]


def _guard_statically_false(transition: Transition) -> bool:
    if transition.guard is None:
        return False
    folded = const_fold(transition.guard)
    return isinstance(folded, BoolLit) and folded.value is False


@dataclass(frozen=True)
class ReachabilityInfo:
    """Result of the reachability fixpoint.

    ``reachable`` / ``unreachable`` hold vertex element ids;
    convenience name-based views are provided for states.
    """

    machine_name: str
    reachable_ids: FrozenSet[int]
    unreachable_states: Tuple[str, ...]
    dead_transitions: tuple  # Transition objects that can never fire
    completion: CompletionInfo

    def is_reachable(self, vertex: Vertex) -> bool:
        return vertex.element_id in self.reachable_ids


def analyze_reachability(machine: StateMachine,
                         respect_completion_shadowing: bool = True,
                         ) -> ReachabilityInfo:
    """Compute reachable vertices and dead transitions of *machine*."""
    completion = (analyze_completion(machine) if respect_completion_shadowing
                  else CompletionInfo(frozenset(), ()))
    shadowed = set(completion.shadowed_transitions)

    reachable: Set[int] = set()
    default_entered: Set[int] = set()  # composites entered via their boundary
    worklist: List[Vertex] = []

    def mark(vertex: Vertex, via_boundary: bool = False) -> None:
        """Mark a vertex reachable; entering a state also activates its
        enclosing composites (hierarchical entry)."""
        if isinstance(vertex, State) and via_boundary and \
                vertex.element_id not in default_entered:
            default_entered.add(vertex.element_id)
            # Default entry runs the nested region's initial chain.
            for region in vertex.regions:
                initial = region.initial
                if initial is not None and initial.element_id not in reachable:
                    reachable.add(initial.element_id)
                    worklist.append(initial)
        if vertex.element_id in reachable:
            return
        reachable.add(vertex.element_id)
        worklist.append(vertex)
        for anc in vertex.owner_chain():
            if isinstance(anc, State) and anc.element_id not in reachable:
                reachable.add(anc.element_id)
                worklist.append(anc)

    # Seed: the top region's initial pseudostate.
    for region in machine.regions:
        initial = region.initial
        if initial is not None:
            mark(initial)

    transitions = list(machine.all_transitions())

    def process(vertex: Vertex) -> None:
        if isinstance(vertex, (Pseudostate, State)):
            for tr in transitions:
                if tr.source is not vertex:
                    continue
                if tr in shadowed or _guard_statically_false(tr):
                    continue
                _mark_target(tr)
        if isinstance(vertex, Pseudostate) and vertex.kind in (
                PseudostateKind.SHALLOW_HISTORY, PseudostateKind.DEEP_HISTORY):
            # History without an explicit default falls back to the
            # region's initial chain.
            region = vertex.container
            if region is not None and not vertex.outgoing():
                initial = region.initial
                if initial is not None:
                    mark(initial)

    def _mark_target(tr: Transition) -> None:
        target = tr.target
        mark(target, via_boundary=isinstance(target, State))

    while worklist:
        process(worklist.pop())

    unreachable_states = tuple(
        s.name for s in machine.all_states() if s.element_id not in reachable)

    dead: List[Transition] = []
    for tr in transitions:
        if tr in shadowed:
            dead.append(tr)
        elif _guard_statically_false(tr):
            dead.append(tr)
        elif tr.source.element_id not in reachable:
            dead.append(tr)
    return ReachabilityInfo(
        machine_name=machine.name,
        reachable_ids=frozenset(reachable),
        unreachable_states=unreachable_states,
        dead_transitions=tuple(dead),
        completion=completion,
    )
