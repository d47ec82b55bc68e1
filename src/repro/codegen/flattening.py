"""Region flattening: hierarchical machine -> flat transition relation.

The State-Transition-Table pattern in the literature the paper cites
(R.C. Martin's FSM article) describes a *flat* table; table-driven
implementations of hierarchical machines flatten the hierarchy at
generation time.  This module computes that flattening, the one
resolution of the hierarchy outside the reference interpreter: the STT
and flat-switch generators emit it as code, and the fleet's table
compiler (:mod:`repro.fleet.table`) turns it into dispatch cells.  It
computes:

* the **leaf configurations** — one per stable configuration the machine
  can rest in: simple states, final states of nested regions, and
  composites whose region has no initial transition;
* for each (leaf, trigger) the **resolved transition** found by UML's
  innermost-first lookup along the leaf's ancestor chain;
* the **steps** of each resolved transition, in the interpreter's order
  (:class:`repro.semantics.runtime.MachineInstance`): exit states
  innermost-out up to the LCA, run the transition effect, then enter
  states outside-in down to the target leaf, running each default
  entry's initial-transition effect on the way; entering a final state
  completes its region, which exits what the region still holds.  A
  row's **actions** are the non-empty behaviors those steps run (exit;
  effect; entry, then do-activity);
* **completion rows** for leaves whose configuration is complete: a
  simple state, or a final of a nested region (which completes its
  owner).  A composite whose region has no initial transition never
  completes — the interpreter never dispatches its completion event —
  so it gets none.

The result is also a reusable analysis (the sweep benchmarks use it to
count table rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from ..uml.actions import Behavior, Expr
from ..uml.statemachine import (FinalState, Pseudostate, Region, State,
                                StateMachine, Vertex)
from ..uml.transitions import Transition, TransitionKind
from .base import CodegenError

__all__ = ["LeafConfig", "FlatTransition", "FlatMachine", "Step",
           "flatten_machine"]


class Step(NamedTuple):
    """One step of a firing: ``kind`` is ``"exit"`` or ``"enter"`` (of
    the :class:`State` *element*), ``"effect"`` (run the
    :class:`Behavior` *element*) or ``"complete"`` (the :class:`Region`
    *element* reached a final state)."""

    kind: str
    element: Union[State, Behavior, Region]


def _actions(steps: Iterable[Step]) -> Tuple[Behavior, ...]:
    """The non-empty behaviors *steps* run, in order."""
    actions: List[Behavior] = []
    for kind, element in steps:
        if kind == "exit":
            actions.append(element.exit)
        elif kind == "enter":
            actions.extend((element.entry, element.do_activity))
        elif kind == "effect":
            actions.append(element)
    return tuple(b for b in actions if b)


@dataclass(frozen=True)
class LeafConfig:
    """One stable configuration, identified by its innermost vertex."""

    index: int
    name: str            # unique flat name, e.g. "S3.S31" or "S3.final"
    vertex_kind: str     # "state" | "final" | "top-final"
    active_states: Tuple[str, ...]  # active state names, outermost first
    vertex: Vertex = field(repr=False, compare=False)


@dataclass(frozen=True)
class FlatTransition:
    """One row of the flattened relation."""

    source: int                     # leaf index
    trigger: Optional[str]          # event name; None = completion row
    transition: Transition          # the model transition the row fires
    steps: Tuple[Step, ...]         # exits, effect, entries... in order
    target: int                     # leaf index
    internal: bool = False          # internal transition: effect only
    description: str = ""

    @property
    def guard(self) -> Optional[Expr]:
        return self.transition.guard

    @property
    def actions(self) -> Tuple[Behavior, ...]:
        return _actions(self.steps)


@dataclass
class FlatMachine:
    """The flattening result."""

    machine: StateMachine
    leaves: List[LeafConfig] = field(default_factory=list)
    transitions: List[FlatTransition] = field(default_factory=list)
    initial_leaf: int = 0
    initial_transition: Optional[Transition] = None
    initial_steps: Tuple[Step, ...] = ()
    top_final_leaf: Optional[int] = None

    @property
    def initial_actions(self) -> Tuple[Behavior, ...]:
        return _actions(self.initial_steps)

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
        self._collect_leaves()
        top = self.machine.regions[0]
        if top.initial is None:
            raise CodegenError("machine has no initial pseudostate")
        arc = self._initial_arc(top)
        steps: List[Step] = []
        leaf = self._take(arc, [], steps)
        self.flat.initial_leaf = leaf
        self.flat.initial_transition = arc
        self.flat.initial_steps = tuple(steps)
        self._collect_transitions()
        return self.flat

    # ------------------------------------------------------------------
    def _add_leaf(self, vertex: Vertex, kind: str) -> int:
        path = self._path_name(vertex)
        actives = tuple(s.name for s in self._active_chain(vertex))
        leaf = LeafConfig(len(self.flat.leaves), path, kind, actives, vertex)
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
    # entering (the interpreter's _enter_target, resolved statically)
    # ------------------------------------------------------------------
    @staticmethod
    def _initial_arc(region: Region) -> Transition:
        out = region.initial.outgoing()
        if not out:
            raise CodegenError(f"initial of region {region.label!r} has no "
                               "outgoing transition")
        return out[0]

    def _take(self, transition: Transition, active: List[State],
              steps: List[Step]) -> int:
        """Run *transition*'s effect and enter its target from the
        *active* path (outermost first); returns the target leaf."""
        if transition.effect:
            steps.append(Step("effect", transition.effect))
        return self._enter_vertex(transition.target, active, steps)

    def _enter_vertex(self, target: Vertex, active: List[State],
                      steps: List[Step]) -> int:
        entered = set()
        while isinstance(target, State):
            for state in self._active_chain(target):
                if state not in active:
                    steps.append(Step("enter", state))
                    active.append(state)
            region = target.regions[0] if target.regions else None
            if region is None or region.initial is None:
                return self._leaf_of_vertex[target.element_id]
            if target in entered:
                raise CodegenError(f"default entry of {target.label!r} does "
                                   "not terminate")
            entered.add(target)
            # Default entry: the nested region's initial transition.
            arc = self._initial_arc(region)
            if arc.effect:
                steps.append(Step("effect", arc.effect))
            target = arc.target
        if isinstance(target, FinalState):
            for state in self._active_chain(target):
                if state not in active:
                    steps.append(Step("enter", state))
                    active.append(state)
            self._complete(target, active, steps)
            return self._leaf_of_vertex[target.element_id]
        if isinstance(target, Pseudostate):
            raise CodegenError(
                f"flattening does not support transitions through "
                f"pseudostate {target.qualified_name!r} (kind "
                f"{target.kind.value}); generate from a model without "
                "choice/junction/history or use the nested-switch or "
                "state patterns")
        raise CodegenError(f"cannot enter vertex {target!r}")

    @staticmethod
    def _complete(final: FinalState, active: List[State],
                  steps: List[Step]) -> None:
        """Entering *final* completes its region: the top region exits
        every active state, a nested one what its owner still holds."""
        region = final.container
        steps.append(Step("complete", region))
        owner = region.owner
        while active and active[-1] is not owner:
            steps.append(Step("exit", active.pop()))

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def _collect_transitions(self) -> None:
        for leaf in self.flat.leaves:
            if leaf.vertex_kind == "top-final":
                continue
            chain = self._dispatch_chain(leaf.vertex)
            self._event_rows(leaf, chain)
            self._completion_rows(leaf, chain)

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

    def _event_rows(self, leaf: LeafConfig, chain: List[State]) -> None:
        # Innermost-first: once an inner state handles (event, guard
        # unconditionally true), outer rows for that event are shadowed.
        # We emit rows in priority order; the generated engine scans in
        # table order, which reproduces the same resolution.
        for depth, state in enumerate(chain):
            for tr in state.event_transitions():
                for trig in tr.triggers:
                    self._emit_row(leaf, chain, depth, tr, trig.name)

    def _completion_rows(self, leaf: LeafConfig,
                         chain: List[State]) -> None:
        # A completion row applies to the state that is complete in this
        # configuration: the leaf itself when it is a simple state, or
        # the region owner when the leaf is a nested final state.  The
        # completing state is innermost in the chain.
        vertex = leaf.vertex
        if isinstance(vertex, State):
            completing = vertex if vertex.is_simple else None
        else:
            completing = vertex.container.owner
        if completing is None:
            return
        for tr in completing.completion_transitions():
            self._emit_row(leaf, chain, 0, tr, None)

    def _emit_row(self, leaf: LeafConfig, chain: List[State], depth: int,
                  tr: Transition, trigger: Optional[str]) -> None:
        if tr.kind is TransitionKind.INTERNAL:
            steps = [Step("effect", tr.effect)] if tr.effect else []
            self.flat.transitions.append(FlatTransition(
                source=leaf.index, trigger=trigger, transition=tr,
                steps=tuple(steps), target=leaf.index, internal=True,
                description=f"{leaf.name}: {tr.describe()} (internal)"))
            return
        # Exits: from the innermost active state out to (and including)
        # the transition's source level, then on while the active state
        # does not enclose the target (the LCA).
        enclosing = {anc for anc in tr.target.owner_chain()
                     if isinstance(anc, State)}
        exits = chain[:depth + 1]
        for state in chain[depth + 1:]:
            if state in enclosing:
                break
            exits.append(state)
        steps = [Step("exit", state) for state in exits]
        remaining = [s for s in reversed(chain) if s not in exits]
        target_leaf = self._take(tr, remaining, steps)
        self.flat.transitions.append(FlatTransition(
            source=leaf.index, trigger=trigger, transition=tr,
            steps=tuple(steps), target=target_leaf,
            description=f"{leaf.name}: {tr.describe()}"))


def flatten_machine(machine: StateMachine) -> FlatMachine:
    """Flatten *machine* into a leaf-configuration transition relation."""
    return _Flattener(machine).run()
