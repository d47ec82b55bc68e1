"""Model-optimization pass framework.

The paper's tool (§III.C) "gives the user the ability to choose the
optimization that he would perform" and "generates the optimized model
after running the selected optimization".  This module defines the pass
interface; :mod:`repro.optim.manager` provides selection, ordering and
fixpoint iteration; the passes themselves live in
:mod:`repro.optim.passes`.

A pass mutates the machine it is given **in place** and reports what it
changed.  The manager is responsible for cloning the input model first so
the user's original model is never touched (model optimization is a
refactoring: it produces a new, behaviorally-equivalent model).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List

from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import State, StateMachine, Vertex

__all__ = ["PassResult", "ModelPass", "remove_vertex_with_transitions"]


@dataclass
class PassResult:
    """What one pass application changed."""

    pass_name: str
    changed: bool = False
    removed_states: List[str] = field(default_factory=list)
    removed_transitions: List[str] = field(default_factory=list)
    removed_events: List[str] = field(default_factory=list)
    simplified_guards: int = 0
    notes: List[str] = field(default_factory=list)

    def record_state(self, name: str) -> None:
        self.removed_states.append(name)
        self.changed = True

    def record_transition(self, description: str) -> None:
        self.removed_transitions.append(description)
        self.changed = True

    def record_event(self, name: str) -> None:
        self.removed_events.append(name)
        self.changed = True

    def note(self, message: str) -> None:
        self.notes.append(message)

    def merge(self, other: "PassResult") -> None:
        self.changed = self.changed or other.changed
        self.removed_states.extend(other.removed_states)
        self.removed_transitions.extend(other.removed_transitions)
        self.removed_events.extend(other.removed_events)
        self.simplified_guards += other.simplified_guards
        self.notes.extend(other.notes)

    def summary(self) -> str:
        bits = []
        if self.removed_states:
            bits.append(f"{len(self.removed_states)} state(s)")
        if self.removed_transitions:
            bits.append(f"{len(self.removed_transitions)} transition(s)")
        if self.removed_events:
            bits.append(f"{len(self.removed_events)} event(s)")
        if self.simplified_guards:
            bits.append(f"{self.simplified_guards} guard(s) simplified")
        what = ", ".join(bits) if bits else "no changes"
        return f"{self.pass_name}: {what}"


class ModelPass(abc.ABC):
    """One behaviour-preserving model transformation.

    Subclasses set:

    * ``name`` — stable identifier used for user selection;
    * ``description`` — one-line explanation shown in catalogs;
    * ``requires_completion_priority`` — True when the transformation is
      only sound under the UML rule that completion events outrank pooled
      events (the paper's fixed semantics).  The manager refuses to apply
      such passes under a semantics configuration that drops the rule.
    """

    name: str = "abstract"
    description: str = ""
    requires_completion_priority: bool = False

    @abc.abstractmethod
    def run(self, machine: StateMachine,
            semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS) -> PassResult:
        """Apply the transformation to *machine* (mutating it)."""

    def applicable(self, semantics: SemanticsConfig) -> bool:
        """True when the pass is sound under *semantics*."""
        if self.requires_completion_priority:
            return semantics.completion_priority
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModelPass {self.name}>"


def remove_vertex_with_transitions(vertex: Vertex,
                                   result: PassResult) -> None:
    """Remove *vertex* and every transition incident to it or to anything
    nested inside it (composite states take their whole submachine along,
    which is what produces the paper's 45-52 % hierarchical gains)."""
    machine = vertex.machine
    if machine is None:
        raise ValueError(f"vertex {vertex.label!r} is not part of a machine")
    doomed_vertices = {vertex.element_id}
    if isinstance(vertex, State):
        for region in vertex.regions:
            for nested in region.all_vertices():
                doomed_vertices.add(nested.element_id)
    for region in list(machine.all_regions()):
        for tr in list(region.transitions):
            if tr.source.element_id in doomed_vertices or \
                    tr.target.element_id in doomed_vertices:
                region.remove_transition(tr)
                result.record_transition(tr.describe())
    container = vertex.container
    if container is None:
        raise ValueError(f"vertex {vertex.label!r} has no containing region")
    if isinstance(vertex, State):
        for nested_region in vertex.regions:
            for nested in nested_region.all_vertices():
                if isinstance(nested, State):
                    result.record_state(nested.qualified_name)
    container.remove_vertex(vertex)
    if isinstance(vertex, State):
        result.record_state(vertex.qualified_name)
    else:
        result.changed = True
        result.note(f"removed vertex {vertex.label}")
