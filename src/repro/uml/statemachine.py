"""State machine, region and vertex classes of the UML subset.

Structure follows the UML 2.x superstructure: a :class:`StateMachine` owns
one or more :class:`Region` objects; a region owns :class:`Vertex` objects
(states, pseudostates, final states) and :class:`Transition` objects; a
composite :class:`State` owns nested regions.  The subset covers what the
paper's experiments need — simple and composite states, initial and final
(pseudo)states, choice/junction/history pseudostates for metamodel
completeness, signal/completion triggers, guards, and entry/exit/effect
behaviors — without the concurrency-oriented fork/join machinery.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, List, Optional

from .actions import Behavior
from .elements import Element, ModelError, NamedElement
from .events import Event
from .transitions import Transition

__all__ = [
    "Vertex",
    "PseudostateKind",
    "Pseudostate",
    "FinalState",
    "State",
    "Region",
    "StateMachine",
    "ContextClass",
]


class Vertex(NamedElement):
    """Abstract node of the state graph (source/target of transitions)."""

    @property
    def container(self) -> Optional["Region"]:
        """The region that directly owns this vertex."""
        return self.owner if isinstance(self.owner, Region) else None

    def incoming(self) -> List[Transition]:
        """Transitions (anywhere in the machine) targeting this vertex."""
        machine = self.machine
        if machine is None:
            return []
        return [t for t in machine.all_transitions() if t.target is self]

    def outgoing(self) -> List[Transition]:
        """Transitions (anywhere in the machine) leaving this vertex."""
        machine = self.machine
        if machine is None:
            return []
        return [t for t in machine.all_transitions() if t.source is self]

    @property
    def machine(self) -> Optional["StateMachine"]:
        root = self.root()
        return root if isinstance(root, StateMachine) else None


class PseudostateKind(enum.Enum):
    """Kinds of pseudostates in the supported subset."""

    INITIAL = "initial"
    CHOICE = "choice"
    JUNCTION = "junction"
    SHALLOW_HISTORY = "shallowHistory"
    DEEP_HISTORY = "deepHistory"
    TERMINATE = "terminate"
    ENTRY_POINT = "entryPoint"
    EXIT_POINT = "exitPoint"


class Pseudostate(Vertex):
    """Transient vertex: control passes through without resting."""

    def __init__(self, kind: PseudostateKind, name: str = "") -> None:
        super().__init__(name or kind.value)
        self.kind = kind

    @property
    def is_initial(self) -> bool:
        return self.kind is PseudostateKind.INITIAL


class FinalState(Vertex):
    """A region's final state.  Entering it completes the region."""


class State(Vertex):
    """A simple or composite state.

    A state is *composite* when it owns at least one region.  Entry and
    exit behaviors run on entering/leaving.  ``do_activity`` is not
    interruptible: the interpreter, the fleet and every generated
    pattern run it to its end right after the entry behavior of each
    entry, matching the paper's code-size experiments, which never rely
    on interruptible activities.
    """

    def __init__(self, name: str = "",
                 entry: Optional[Behavior] = None,
                 exit: Optional[Behavior] = None,
                 do_activity: Optional[Behavior] = None) -> None:
        super().__init__(name)
        self.entry: Behavior = entry or Behavior()
        self.exit: Behavior = exit or Behavior()
        self.do_activity: Behavior = do_activity or Behavior()
        self.regions: List[Region] = []

    # -- composition ----------------------------------------------------
    @property
    def is_composite(self) -> bool:
        return bool(self.regions)

    @property
    def is_simple(self) -> bool:
        return not self.regions

    def add_region(self, region: "Region") -> "Region":
        if region.owner is not None:
            raise ModelError(f"region {region.label!r} already owned")
        region.owner = self
        self.regions.append(region)
        return region

    def region(self, name: str = "") -> "Region":
        """Create (or return the single) nested region, making this state
        composite."""
        if not name and len(self.regions) == 1:
            return self.regions[0]
        return self.add_region(Region(name or f"{self.name}_region"))

    def owned_elements(self) -> Iterator[Element]:
        return iter(self.regions)

    # -- hierarchy helpers ----------------------------------------------
    def ancestors(self) -> Iterator["State"]:
        """Enclosing composite states, innermost first."""
        for anc in self.owner_chain():
            if isinstance(anc, State):
                yield anc

    def descendant_states(self) -> Iterator["State"]:
        """All states nested (transitively) inside this one."""
        for region in self.regions:
            yield from region.all_states()

    def completion_transitions(self) -> List[Transition]:
        return [t for t in self.outgoing() if t.is_completion]

    def event_transitions(self) -> List[Transition]:
        return [t for t in self.outgoing() if t.triggers]


class Region(NamedElement):
    """A container of vertices and transitions.

    Owned by a state machine (top region) or by a composite state.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.vertices: List[Vertex] = []
        self.transitions: List[Transition] = []

    # -- construction ----------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> Vertex:
        if vertex.owner is not None:
            raise ModelError(f"vertex {vertex.label!r} already owned")
        vertex.owner = self
        self.vertices.append(vertex)
        return vertex

    def add_transition(self, transition: Transition) -> Transition:
        if transition.owner is not None:
            raise ModelError("transition already owned")
        transition.owner = self
        self.transitions.append(transition)
        return transition

    def remove_vertex(self, vertex: Vertex) -> None:
        """Detach *vertex* (must have no incident transitions left)."""
        if vertex not in self.vertices:
            raise ModelError(f"{vertex.label!r} is not in region {self.label!r}")
        machine = vertex.machine
        if machine is not None:
            dangling = [t for t in machine.all_transitions()
                        if t.source is vertex or t.target is vertex]
            if dangling:
                raise ModelError(
                    f"cannot remove {vertex.label!r}: "
                    f"{len(dangling)} incident transition(s) remain")
        self.vertices.remove(vertex)
        vertex.owner = None

    def remove_transition(self, transition: Transition) -> None:
        if transition not in self.transitions:
            raise ModelError("transition is not owned by this region")
        self.transitions.remove(transition)
        transition.owner = None

    # -- queries ----------------------------------------------------------
    def owned_elements(self) -> Iterator[Element]:
        yield from self.vertices
        yield from self.transitions

    @property
    def initial(self) -> Optional[Pseudostate]:
        """The region's initial pseudostate, if any."""
        for v in self.vertices:
            if isinstance(v, Pseudostate) and v.is_initial:
                return v
        return None

    def states(self) -> List[State]:
        """Directly owned (non-pseudo, non-final) states."""
        return [v for v in self.vertices if isinstance(v, State)]

    def final_states(self) -> List[FinalState]:
        return [v for v in self.vertices if isinstance(v, FinalState)]

    def all_states(self) -> Iterator[State]:
        """States in this region and (transitively) in nested regions."""
        for vertex in self.vertices:
            if isinstance(vertex, State):
                yield vertex
                for sub in vertex.regions:
                    yield from sub.all_states()

    def all_vertices(self) -> Iterator[Vertex]:
        for vertex in self.vertices:
            yield vertex
            if isinstance(vertex, State):
                for sub in vertex.regions:
                    yield from sub.all_vertices()

    def all_regions(self) -> Iterator["Region"]:
        yield self
        for vertex in self.vertices:
            if isinstance(vertex, State):
                for sub in vertex.regions:
                    yield from sub.all_regions()

    def all_transitions(self) -> Iterator[Transition]:
        for region in self.all_regions():
            yield from region.transitions


class ContextClass(NamedElement):
    """The class whose behavior the state machine specifies.

    Carries integer attributes (with initial values) referenced by guards
    and effects, and the names of external operations (opaque platform
    calls) the behaviors may invoke.
    """

    def __init__(self, name: str = "Context") -> None:
        super().__init__(name)
        self.attributes: Dict[str, int] = {}
        self.operations: List[str] = []

    def attribute(self, name: str, initial: int = 0) -> "ContextClass":
        self.attributes[name] = initial
        return self

    def operation(self, name: str) -> "ContextClass":
        if name not in self.operations:
            self.operations.append(name)
        return self


class StateMachine(NamedElement):
    """Top-level state machine: behavior of a :class:`ContextClass`."""

    def __init__(self, name: str = "", context: Optional[ContextClass] = None) -> None:
        super().__init__(name)
        self.regions: List[Region] = []
        self.context: ContextClass = context or ContextClass(f"{name or 'SM'}Context")
        self.events: Dict[str, Event] = {}

    # -- construction ----------------------------------------------------
    def add_region(self, region: Region) -> Region:
        if region.owner is not None:
            raise ModelError(f"region {region.label!r} already owned")
        region.owner = self
        self.regions.append(region)
        return region

    @property
    def top(self) -> Region:
        """The (single) top region, created on demand."""
        if not self.regions:
            self.add_region(Region("top"))
        return self.regions[0]

    def declare_event(self, event: Event) -> Event:
        """Register an event in the machine's alphabet (idempotent)."""
        existing = self.events.get(event.key())
        if existing is not None:
            return existing
        event.owner = self
        self.events[event.key()] = event
        return event

    # -- queries ----------------------------------------------------------
    def owned_elements(self) -> Iterator[Element]:
        yield from self.regions

    def all_regions(self) -> Iterator[Region]:
        for region in self.regions:
            yield from region.all_regions()

    def all_states(self) -> Iterator[State]:
        for region in self.regions:
            yield from region.all_states()

    def all_vertices(self) -> Iterator[Vertex]:
        for region in self.regions:
            yield from region.all_vertices()

    def all_transitions(self) -> Iterator[Transition]:
        for region in self.regions:
            yield from region.all_transitions()

    def find_state(self, name: str) -> State:
        for state in self.all_states():
            if state.name == name:
                return state
        raise ModelError(f"no state named {name!r} in machine {self.label!r}")

    def signal_alphabet(self) -> List[Event]:
        """Signal-like events in deterministic declaration order."""
        return [e for e in self.events.values()]
