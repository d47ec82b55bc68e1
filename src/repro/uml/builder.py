"""Fluent builder for state machines.

The builder keeps construction code close to how the paper's diagrams
read::

    b = StateMachineBuilder("Fig1Flat")
    b.state("S1"); b.state("S2"); b.state("S3")
    b.initial_to("S1")
    b.transition("S1", "S3", on="e1")
    b.transition("S3", "S1", on="e3")
    b.transition("S2", "S3", on="e2")      # S2 is unreachable
    b.transition("S3", "final", on="e4")
    machine = b.build()

Vertices are addressed by name; ``"final"`` denotes the final state of the
region being built (created on demand).  ``composite()`` returns a nested
builder scoped to a sub-region.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from .actions import Behavior, CallExpr, CallStmt, Expr, Stmt, parse_expr
from .elements import ModelError
from .events import Event, SignalEvent, TimeEvent
from .statemachine import (ContextClass, FinalState, Pseudostate,
                           PseudostateKind, Region, State, StateMachine)
from .transitions import Transition, TransitionKind
from .validate import validate_machine

__all__ = ["StateMachineBuilder", "RegionBuilder", "effect", "calls"]

GuardLike = Union[str, Expr, None]
BehaviorLike = Union[str, Behavior, Sequence[Stmt], None]


def effect(*statements: Stmt) -> Behavior:
    """Build a :class:`Behavior` from statements."""
    return Behavior(statements=tuple(statements))


def calls(*names: str) -> Behavior:
    """Build a behavior that calls each named external operation in order."""
    return Behavior(statements=tuple(CallStmt(CallExpr(n)) for n in names))


def _as_behavior(value: BehaviorLike) -> Optional[Behavior]:
    if value is None:
        return None
    if isinstance(value, Behavior):
        return value
    if isinstance(value, str):
        return calls(value)
    return Behavior(statements=tuple(value))


def _as_guard(value: GuardLike) -> Optional[Expr]:
    if value is None or isinstance(value, Expr):
        return value
    return parse_expr(value)


class RegionBuilder:
    """Builds the content of one region."""

    def __init__(self, region: Region, machine: StateMachine) -> None:
        self._region = region
        self._machine = machine
        self._final: Optional[FinalState] = None

    @property
    def region(self) -> Region:
        return self._region

    # -- vertices ------------------------------------------------------
    def state(self, name: str, entry: BehaviorLike = None,
              exit: BehaviorLike = None,
              do_activity: BehaviorLike = None) -> State:
        """Add a simple state to this region."""
        state = State(name,
                      entry=_as_behavior(entry),
                      exit=_as_behavior(exit),
                      do_activity=_as_behavior(do_activity))
        self._region.add_vertex(state)
        return state

    def composite(self, name: str, entry: BehaviorLike = None,
                  exit: BehaviorLike = None) -> "RegionBuilder":
        """Add a composite state and return a builder for its sub-region."""
        state = self.state(name, entry=entry, exit=exit)
        sub = state.region()
        return RegionBuilder(sub, self._machine)

    def pseudostate(self, kind: PseudostateKind, name: str = "") -> Pseudostate:
        ps = Pseudostate(kind, name)
        self._region.add_vertex(ps)
        return ps

    def choice(self, name: str = "choice") -> Pseudostate:
        return self.pseudostate(PseudostateKind.CHOICE, name)

    def junction(self, name: str = "junction") -> Pseudostate:
        return self.pseudostate(PseudostateKind.JUNCTION, name)

    @property
    def final(self) -> FinalState:
        """The region's final state (created on first access)."""
        if self._final is None:
            existing = self._region.final_states()
            if existing:
                self._final = existing[0]
            else:
                self._final = FinalState("final")
                self._region.add_vertex(self._final)
        return self._final

    def _initial(self) -> Pseudostate:
        existing = self._region.initial
        if existing is not None:
            return existing
        ps = Pseudostate(PseudostateKind.INITIAL, "initial")
        self._region.add_vertex(ps)
        return ps

    # -- lookup ----------------------------------------------------------
    def vertex(self, ref: Union[str, "State", FinalState, Pseudostate]):
        """Resolve a vertex reference (object, name, or ``"final"``)."""
        if not isinstance(ref, str):
            return ref
        if ref == "final":
            return self.final
        if ref == "initial":
            return self._initial()
        for v in self._region.vertices:
            if v.name == ref:
                return v
        # Allow targeting vertices in nested regions (inter-level
        # transitions into composites are resolved machine-wide).
        for v in self._region.all_vertices():
            if v.name == ref:
                return v
        raise ModelError(f"no vertex named {ref!r} in region "
                         f"{self._region.label!r}")

    # -- transitions -------------------------------------------------------
    def _event(self, name_or_event: Union[str, Event]) -> Event:
        if isinstance(name_or_event, Event):
            return self._machine.declare_event(name_or_event)
        return self._machine.declare_event(SignalEvent(name_or_event))

    def initial_to(self, target: Union[str, State],
                   effect: BehaviorLike = None) -> Transition:
        """Add the region's initial transition."""
        tr = Transition(self._initial(), self.vertex(target),
                        effect=_as_behavior(effect))
        self._region.add_transition(tr)
        return tr

    def transition(self, source, target, on: Union[str, Event, Sequence, None] = None,
                   guard: GuardLike = None, effect: BehaviorLike = None,
                   kind: TransitionKind = TransitionKind.EXTERNAL,
                   name: str = "") -> Transition:
        """Add a transition.

        ``on=None`` builds a *completion transition* (no trigger), matching
        the paper's unlabeled arcs.  ``on`` may be an event name, an
        :class:`Event`, or a sequence of either (multiple triggers).
        """
        triggers: List[Event] = []
        if on is not None:
            items = on if isinstance(on, (list, tuple)) else [on]
            triggers = [self._event(item) for item in items]
        tr = Transition(self.vertex(source), self.vertex(target),
                        triggers=triggers, guard=_as_guard(guard),
                        effect=_as_behavior(effect), kind=kind, name=name)
        self._region.add_transition(tr)
        return tr

    def completion(self, source, target, guard: GuardLike = None,
                   effect: BehaviorLike = None) -> Transition:
        """Add an explicit completion transition (no trigger)."""
        return self.transition(source, target, on=None, guard=guard,
                               effect=effect)

    def internal(self, state, on, guard: GuardLike = None,
                 effect: BehaviorLike = None) -> Transition:
        """Add an internal transition on *state*."""
        vertex = self.vertex(state)
        return self.transition(vertex, vertex, on=on, guard=guard,
                               effect=effect, kind=TransitionKind.INTERNAL)


class StateMachineBuilder(RegionBuilder):
    """Builds a whole state machine (delegates to the top region)."""

    def __init__(self, name: str, context: Optional[ContextClass] = None) -> None:
        machine = StateMachine(name, context=context)
        super().__init__(machine.top, machine)
        self._machine = machine

    @property
    def machine(self) -> StateMachine:
        return self._machine

    @property
    def context(self) -> ContextClass:
        return self._machine.context

    def attribute(self, name: str, initial: int = 0) -> "StateMachineBuilder":
        self._machine.context.attribute(name, initial)
        return self

    def operation(self, name: str) -> "StateMachineBuilder":
        self._machine.context.operation(name)
        return self

    def event(self, name: str) -> Event:
        """Declare a signal event without attaching it to a transition."""
        return self._event(name)

    def time_event(self, duration_ms: int) -> Event:
        return self._machine.declare_event(TimeEvent(duration_ms=duration_ms))

    def build(self, validate: bool = True) -> StateMachine:
        """Finish construction; optionally run well-formedness checks."""
        if validate:
            validate_machine(self._machine)
        return self._machine
