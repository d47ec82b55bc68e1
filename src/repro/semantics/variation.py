"""Semantic variation points for state machine execution.

UML intentionally leaves parts of the state-machine semantics open
("semantic variation points", paper §III.B, citing Chauvel & Jézéquel).
The paper fixes one execution semantics before generating code; we make
the choice explicit and configurable so the same model can be executed —
and code-generated — under different, documented interpretations.

The variation points modeled here are the ones the paper calls out
(event handling and transition selection policy):

* ``event_pool`` — dispatch order of pooled events (FIFO is the common
  choice for RTES runtimes, LIFO and PRIORITY are offered);
* ``unconsumed_events`` — what happens to an event no transition accepts
  (DISCARD, the usual RTES choice, or DEFER);
* ``conflict_resolution`` — which transition wins when several are
  enabled at different nesting depths (INNERMOST_FIRST is the UML
  default);
* ``completion_priority`` — whether completion events outrank pooled
  events (UML mandates True; turning it off demonstrates how the paper's
  "S3 is never active" conclusion *depends* on this variation point).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

__all__ = ["EventPoolPolicy", "UnconsumedPolicy", "ConflictPolicy",
           "SemanticsConfig", "UML_DEFAULT_SEMANTICS"]


class EventPoolPolicy(enum.Enum):
    """Order in which pooled events are dequeued."""

    FIFO = "fifo"
    LIFO = "lifo"
    PRIORITY = "priority"  # uses Event priority attribute via env mapping


class UnconsumedPolicy(enum.Enum):
    """Fate of an event that enables no transition."""

    DISCARD = "discard"
    DEFER = "defer"


class ConflictPolicy(enum.Enum):
    """Priority among enabled transitions at different nesting depths."""

    INNERMOST_FIRST = "innermost_first"  # UML default
    OUTERMOST_FIRST = "outermost_first"


@dataclass(frozen=True)
class SemanticsConfig:
    """A fixed choice for every variation point.

    Instances are immutable; derive variants with :meth:`with_`.
    """

    event_pool: EventPoolPolicy = EventPoolPolicy.FIFO
    unconsumed_events: UnconsumedPolicy = UnconsumedPolicy.DISCARD
    conflict_resolution: ConflictPolicy = ConflictPolicy.INNERMOST_FIRST
    completion_priority: bool = True
    #: Steps one ``start()`` or ``dispatch()`` may take (the event plus
    #: the completion and emitted events it causes) before the run
    #: raises as a livelock: an unguarded completion cycle or an emit
    #: storm.  The count restarts with each call, so a long stream never
    #: exhausts it.
    max_run_to_completion_steps: int = 10_000

    def with_(self, **changes) -> "SemanticsConfig":
        """Return a copy with the given variation points changed."""
        return replace(self, **changes)

    def describe(self) -> str:
        return (f"pool={self.event_pool.value}, "
                f"unconsumed={self.unconsumed_events.value}, "
                f"conflict={self.conflict_resolution.value}, "
                f"completion_priority={self.completion_priority}")


#: The semantics the paper fixes before generating code: UML defaults.
UML_DEFAULT_SEMANTICS = SemanticsConfig()
