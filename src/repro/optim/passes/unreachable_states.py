"""Pass: remove unreachable states.

The paper's headline example (Figure 1, top row): state ``S2`` has no
incoming transition, GCC's dead-code elimination keeps its generated code,
the model level removes it trivially.  The pass deletes every state the
reachability analysis proves dead, together with incident transitions and
— for composites — the entire nested submachine.

Orphaned pseudostates and final states (left without any incident
transition inside an otherwise live region) are swept as well, since code
generators emit dispatch entries for them.
"""

from __future__ import annotations

from ...analysis.reachability import analyze_reachability
from ...semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ...uml.statemachine import FinalState, Pseudostate, StateMachine
from ..pass_base import ModelPass, PassResult, remove_vertex_with_transitions

__all__ = ["RemoveUnreachableStates"]


class RemoveUnreachableStates(ModelPass):
    """Delete states not reachable from the initial configuration."""

    name = "remove-unreachable-states"
    description = ("delete states with no path from the initial state "
                   "(paper Fig. 1: state S2 with no incoming transition)")

    def __init__(self, respect_completion_shadowing: bool = True) -> None:
        # When shadowing is respected the analysis is only sound under the
        # UML completion-priority rule, so soundness becomes conditional.
        self.respect_completion_shadowing = respect_completion_shadowing

    @property
    def requires_completion_priority(self) -> bool:  # type: ignore[override]
        return self.respect_completion_shadowing

    def run(self, machine: StateMachine,
            semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS) -> PassResult:
        result = PassResult(self.name)
        shadow = (self.respect_completion_shadowing
                  and semantics.completion_priority)
        # Iterate: removing a state can orphan others (chains of dead
        # states); recompute reachability until stable.
        while True:
            info = analyze_reachability(
                machine, respect_completion_shadowing=shadow)
            doomed = [s for s in machine.all_states()
                      if not info.is_reachable(s)
                      # skip states nested inside a doomed composite: the
                      # composite removal takes them along
                      and not any(not info.is_reachable(a)
                                  for a in s.ancestors())]
            if not doomed:
                break
            for state in doomed:
                remove_vertex_with_transitions(state, result)
        self._sweep_orphans(machine, result)
        return result

    @staticmethod
    def _sweep_orphans(machine: StateMachine, result: PassResult) -> None:
        """Remove final states / non-initial pseudostates left with no
        incident transitions."""
        for region in list(machine.all_regions()):
            for vertex in list(region.vertices):
                if isinstance(vertex, FinalState) or (
                        isinstance(vertex, Pseudostate)
                        and not vertex.is_initial):
                    if not vertex.incoming() and not vertex.outgoing():
                        region.remove_vertex(vertex)
                        result.changed = True
                        result.note(f"swept orphan vertex {vertex.label}")
