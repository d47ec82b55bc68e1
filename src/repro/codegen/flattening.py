"""Region flattening: hierarchical machine -> flat transition relation.

The State-Transition-Table pattern in the literature the paper cites
(R.C. Martin's FSM article) describes a *flat* table; table-driven
implementations of hierarchical machines flatten the hierarchy at
generation time.  This module computes that flattening:

* the **leaf configurations** — one per stable configuration the machine
  can rest in: simple states, final states of nested regions, and
  composites whose region has no initial transition;
* for each (leaf, trigger) the **resolved transition** found by UML's
  innermost-first lookup along the leaf's ancestor chain;
* the full **action sequence** of each resolved transition: exit
  behaviors innermost-out up to the LCA, the transition effect, then
  entry behaviors (and initial-transition effects) outside-in down to
  the target leaf;
* **completion rows** for leaves whose configuration completes a
  composite (finals of nested regions) or that own completion
  transitions directly.

The result is consumed by the STT generator; it is also a reusable
analysis (the sweep benchmarks use it to count table rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..uml.actions import Behavior, Expr
from ..uml.elements import ModelError
from ..uml.statemachine import (FinalState, Pseudostate, State, StateMachine,
                                Vertex)
from ..uml.transitions import Transition, TransitionKind
from .base import CodegenError

__all__ = ["LeafConfig", "FlatTransition", "FlatMachine", "flatten_machine"]


@dataclass(frozen=True)
class LeafConfig:
    """One stable configuration, identified by its innermost vertex."""

    index: int
    name: str            # unique flat name, e.g. "S3.S31" or "S3.final"
    vertex_kind: str     # "state" | "final" | "top-final"
    active_states: Tuple[str, ...]  # active state names, outermost first


@dataclass(frozen=True)
class FlatTransition:
    """One row of the flattened relation."""

    source: int                     # leaf index
    trigger: Optional[str]          # event name; None = completion row
    guard: Optional[Expr]
    actions: Tuple[Behavior, ...]   # exits, effect, entries - in order
    target: int                     # leaf index
    internal: bool = False          # internal transition: actions only
    description: str = ""


@dataclass
class FlatMachine:
    """The flattening result."""

    machine: StateMachine
    leaves: List[LeafConfig] = field(default_factory=list)
    transitions: List[FlatTransition] = field(default_factory=list)
    initial_leaf: int = 0
    initial_actions: Tuple[Behavior, ...] = ()
    top_final_leaf: Optional[int] = None

    def leaf_by_name(self, name: str) -> LeafConfig:
        for leaf in self.leaves:
            if leaf.name == name:
                return leaf
        raise KeyError(f"no leaf {name!r}")


class _Flattener:
    def __init__(self, machine: StateMachine) -> None:
        self.machine = machine
        self.flat = FlatMachine(machine)
        self._leaf_of_vertex: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def run(self) -> FlatMachine:
        if len(self.machine.regions) != 1:
            raise CodegenError("flattening supports a single top region")
        for state in self.machine.all_states():
            if len(state.regions) > 1:
                raise CodegenError(
                    f"orthogonal regions unsupported ({state.label})")
            if state.do_activity:
                # Do-activities are carried in the metamodel but the
                # generated runtimes treat them as instantaneous; they are
                # appended to the entry behavior during flattening.
                pass
        self._collect_leaves()
        top = self.machine.regions[0]
        initial = top.initial
        if initial is None:
            raise CodegenError("machine has no initial pseudostate")
        arc = initial.outgoing()[0]
        actions, leaf = self._entry_chain_from_transition(arc, [])
        self.flat.initial_leaf = leaf
        self.flat.initial_actions = tuple(actions)
        self._collect_transitions()
        return self.flat

    # ------------------------------------------------------------------
    def _add_leaf(self, vertex: Vertex, kind: str) -> int:
        path = self._path_name(vertex)
        actives = tuple(s.name for s in self._active_chain(vertex))
        leaf = LeafConfig(len(self.flat.leaves), path, kind, actives)
        self.flat.leaves.append(leaf)
        self._leaf_of_vertex[vertex.element_id] = leaf.index
        return leaf.index

    @staticmethod
    def _path_name(vertex: Vertex) -> str:
        parts = [vertex.name or "final"]
        for anc in vertex.owner_chain():
            if isinstance(anc, State):
                parts.append(anc.name)
        return ".".join(reversed(parts))

    @staticmethod
    def _active_chain(vertex: Vertex) -> List[State]:
        chain = [anc for anc in vertex.owner_chain()
                 if isinstance(anc, State)]
        chain.reverse()
        if isinstance(vertex, State):
            chain.append(vertex)
        return chain

    def _collect_leaves(self) -> None:
        for vertex in self.machine.all_vertices():
            if isinstance(vertex, State):
                region = vertex.regions[0] if vertex.regions else None
                if region is None or region.initial is None:
                    self._add_leaf(vertex, "state")
            elif isinstance(vertex, FinalState):
                owner = vertex.container.owner if vertex.container else None
                if isinstance(owner, StateMachine):
                    idx = self._add_leaf(vertex, "top-final")
                    self.flat.top_final_leaf = idx
                else:
                    self._add_leaf(vertex, "final")

    # ------------------------------------------------------------------
    # entry chains
    # ------------------------------------------------------------------
    def _entry_chain_from_transition(
            self, transition: Transition,
            already_active: Sequence[State]) -> Tuple[List[Behavior], int]:
        """Actions + final leaf for taking *transition* (effect, entries,
        default entries, resolving pseudostate chains)."""
        actions: List[Behavior] = []
        if transition.effect:
            actions.append(transition.effect)
        return self._enter_vertex(transition.target, list(already_active),
                                  actions)

    def _enter_vertex(self, target: Vertex, active: List[State],
                      actions: List[Behavior]) -> Tuple[List[Behavior], int]:
        if isinstance(target, State):
            chain = self._active_chain(target)
            active_ids = {s.element_id for s in active}
            for state in chain:
                if state.element_id in active_ids:
                    continue
                if state.entry:
                    actions.append(state.entry)
                if state.do_activity:
                    actions.append(state.do_activity)
                active.append(state)
                active_ids.add(state.element_id)
            region = target.regions[0] if target.regions else None
            if region is not None and region.initial is not None:
                arc = region.initial.outgoing()[0]
                if arc.effect:
                    actions.append(arc.effect)
                return self._enter_vertex(arc.target, active, actions)
            return actions, self._leaf_of_vertex[target.element_id]
        if isinstance(target, FinalState):
            # Entering a nested final exits nothing further; the leaf
            # represents "composite with completed region".
            chain = self._active_chain(target)
            active_ids = {s.element_id for s in active}
            for state in chain:
                if state.element_id not in active_ids:
                    if state.entry:
                        actions.append(state.entry)
                    active.append(state)
                    active_ids.add(state.element_id)
            return actions, self._leaf_of_vertex[target.element_id]
        if isinstance(target, Pseudostate):
            raise CodegenError(
                f"flattening does not support transitions through "
                f"pseudostate {target.qualified_name!r} (kind "
                f"{target.kind.value}); generate from a model without "
                "choice/junction/history or use the nested-switch or "
                "state patterns")
        raise CodegenError(f"cannot enter vertex {target!r}")

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _collect_transitions(self) -> None:
        for leaf in self.flat.leaves:
            if leaf.vertex_kind == "top-final":
                continue
            vertex = self._vertex_of_leaf(leaf)
            chain = self._dispatch_chain(vertex)
            self._event_rows(leaf, vertex, chain)
            self._completion_rows(leaf, vertex, chain)

    def _vertex_of_leaf(self, leaf: LeafConfig) -> Vertex:
        for vertex in self.machine.all_vertices():
            if self._leaf_of_vertex.get(vertex.element_id) == leaf.index:
                return vertex
        raise ModelError(f"no vertex for leaf {leaf.name}")  # pragma: no cover

    @staticmethod
    def _dispatch_chain(vertex: Vertex) -> List[State]:
        """States whose transitions can fire in this configuration,
        innermost first (the UML conflict-resolution order)."""
        chain: List[State] = []
        if isinstance(vertex, State):
            chain.append(vertex)
        for anc in vertex.owner_chain():
            if isinstance(anc, State):
                chain.append(anc)
        return chain

    def _event_rows(self, leaf: LeafConfig, vertex: Vertex,
                    chain: List[State]) -> None:
        # Innermost-first: once an inner state handles (event, guard
        # unconditionally true), outer rows for that event are shadowed.
        # We emit rows in priority order; the generated engine scans in
        # table order, which reproduces the same resolution.
        for depth, state in enumerate(chain):
            for tr in state.event_transitions():
                for trig in tr.triggers:
                    self._emit_row(leaf, vertex, chain, depth, state, tr,
                                   trig.name)

    def _completion_rows(self, leaf: LeafConfig, vertex: Vertex,
                         chain: List[State]) -> None:
        # A completion row applies to the state that is "complete" in this
        # configuration: the leaf itself when it is a simple state (or an
        # initial-less composite), or the region owner when the leaf is a
        # nested final state.
        if isinstance(vertex, State):
            completing: Optional[State] = vertex
        else:
            owner = vertex.container.owner if vertex.container else None
            completing = owner if isinstance(owner, State) else None
        if completing is None:
            return
        for tr in completing.completion_transitions():
            depth = next(i for i, s in enumerate(chain)
                         if s is completing) if completing in chain else 0
            self._emit_row(leaf, vertex, chain, depth, completing, tr, None)

    def _emit_row(self, leaf: LeafConfig, vertex: Vertex,
                  chain: List[State], depth: int, source_state: State,
                  tr: Transition, trigger: Optional[str]) -> None:
        if tr.kind is TransitionKind.INTERNAL:
            actions = [tr.effect] if tr.effect else []
            self.flat.transitions.append(FlatTransition(
                source=leaf.index, trigger=trigger, guard=tr.guard,
                actions=tuple(actions), target=leaf.index, internal=True,
                description=f"{leaf.name}: {tr.describe()} (internal)"))
            return
        # Exits: from the innermost active state out to (and including)
        # the transition's source level; then continue to the LCA of the
        # target.
        exit_states = list(chain[:depth + 1])
        target_active = {s.element_id
                         for s in self._active_chain(tr.target)[:-1]} \
            if isinstance(tr.target, State) else {
                s.element_id for s in self._active_chain(tr.target)}
        # Extend exits past the source level while the remaining active
        # chain is not an ancestor of the target.
        for state in chain[depth + 1:]:
            if state.element_id in target_active:
                break
            exit_states.append(state)
        actions: List[Behavior] = []
        for state in exit_states:
            if state.exit:
                actions.append(state.exit)
        remaining = [s for s in reversed(chain) if s not in exit_states]
        entry_actions, target_leaf = self._entry_chain_from_transition(
            tr, remaining)
        actions.extend(entry_actions)
        self.flat.transitions.append(FlatTransition(
            source=leaf.index, trigger=trigger, guard=tr.guard,
            actions=tuple(actions), target=target_leaf,
            description=f"{leaf.name}: {tr.describe()}"))


def flatten_machine(machine: StateMachine) -> FlatMachine:
    """Flatten *machine* into a leaf-configuration transition relation."""
    return _Flattener(machine).run()
