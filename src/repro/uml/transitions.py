"""Transitions of the UML state machine subset."""

from __future__ import annotations

import enum
from typing import List, Optional, TYPE_CHECKING

from .actions import Behavior, Expr
from .elements import ModelError, NamedElement
from .events import CompletionEvent, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle breaker
    from .statemachine import Vertex

__all__ = ["Transition", "TransitionKind"]


class TransitionKind(enum.Enum):
    """UML transition kinds.

    * ``EXTERNAL`` — exits the source (and possibly more), the default;
    * ``INTERNAL`` — no exit/entry, source must equal target (a State);
    * ``LOCAL``    — within a composite state, does not exit it.
    """

    EXTERNAL = "external"
    INTERNAL = "internal"
    LOCAL = "local"


class Transition(NamedElement):
    """A transition between two vertices.

    A transition with an empty ``triggers`` list whose source is a State is
    a *completion transition*: it is dispatched on the source state's
    implicit completion event and — per UML semantics — takes priority over
    every event-triggered transition from the same state.  This priority is
    exactly what makes the composite state in the paper's Figure 1 (second
    row) dead code at the model level.
    """

    def __init__(self, source: "Vertex", target: "Vertex",
                 triggers: Optional[List[Event]] = None,
                 guard: Optional[Expr] = None,
                 effect: Optional[Behavior] = None,
                 kind: TransitionKind = TransitionKind.EXTERNAL,
                 name: str = "") -> None:
        super().__init__(name)
        if source is None or target is None:
            raise ModelError("transition requires both a source and a target")
        self.source = source
        self.target = target
        self.triggers: List[Event] = list(triggers or [])
        self.guard: Optional[Expr] = guard
        self.effect: Behavior = effect or Behavior()
        self.kind = kind
        for trig in self.triggers:
            if isinstance(trig, CompletionEvent):
                raise ModelError(
                    "completion events may not be used as explicit triggers; "
                    "leave the trigger list empty instead")
        if kind is TransitionKind.INTERNAL and source is not target:
            raise ModelError("internal transitions must have source == target")

    # -- classification ------------------------------------------------
    @property
    def is_completion(self) -> bool:
        """True if this is a completion transition (no explicit trigger)."""
        from .statemachine import State  # local import: cycle breaker
        return not self.triggers and isinstance(self.source, State)

    def describe(self) -> str:
        """Human-readable ``src -[trigger/guard]-> dst`` description."""
        trig = ",".join(t.name for t in self.triggers) if self.triggers else "ε"
        guard = " [guarded]" if self.guard is not None else ""
        return f"{self.source.label} -{trig}{guard}-> {self.target.label}"
