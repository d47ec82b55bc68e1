"""Execution traces and observational equivalence.

A trace records what an external observer of the running system can see:
opaque platform calls (with evaluated arguments), events emitted to self,
and — for debugging — state entries/exits and fired transitions.

*Observational equivalence* compares only the observable prefix of two
traces (calls + emissions); state entries/exits are internal bookkeeping
that model optimizations are allowed to change (e.g. removing a state
nobody can enter).  This is the correctness criterion used by
:mod:`repro.optim.equivalence` to check that model transformations are
behaviour-preserving, the property the paper's refactoring framing
requires (§V: "keeping unchanged its behavior").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["TraceKind", "TraceRecord", "Trace", "observable_equal"]


class TraceKind(enum.Enum):
    """Kinds of trace records."""

    CALL = "call"              # observable: external operation invoked
    EMIT = "emit"              # observable: event sent to self
    ASSIGN = "assign"          # observable: context attribute updated
    STATE_ENTER = "enter"      # internal
    STATE_EXIT = "exit"        # internal
    TRANSITION = "transition"  # internal
    EVENT_DISPATCH = "dispatch"  # internal
    EVENT_DROPPED = "dropped"    # internal
    COMPLETED = "completed"      # internal: region reached final state


_OBSERVABLE = {TraceKind.CALL, TraceKind.EMIT, TraceKind.ASSIGN}


@dataclass(frozen=True)
class TraceRecord:
    """One timestamped trace entry.

    ``detail`` holds the payload: call name + argument values, state name,
    transition description, ... always plain data, never model objects,
    so traces survive model mutation and can be compared across models.
    """

    step: int
    kind: TraceKind
    detail: Tuple

    @property
    def is_observable(self) -> bool:
        return self.kind in _OBSERVABLE

    def __str__(self) -> str:
        payload = ", ".join(str(d) for d in self.detail)
        return f"{self.step:4d} {self.kind.value:10s} {payload}"


class Trace:
    """An append-only sequence of :class:`TraceRecord`."""

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []
        self._step = 0

    def append(self, kind: TraceKind, *detail) -> TraceRecord:
        record = TraceRecord(self._step, kind, tuple(detail))
        self.records.append(record)
        self._step += 1
        return record

    def copy(self) -> "Trace":
        """An independent trace holding the same records (which are
        immutable) and continuing from the same step counter."""
        clone = Trace()
        clone.records = list(self.records)
        clone._step = self._step
        return clone

    # -- views -----------------------------------------------------------
    def observable(self) -> List[TraceRecord]:
        """Only the records an external observer can see."""
        return [r for r in self.records if r.is_observable]

    def observable_payloads(self) -> List[Tuple]:
        """Kind+detail pairs of observable records (step numbers dropped,
        so traces with different amounts of internal bookkeeping still
        compare equal)."""
        return [(r.kind, r.detail) for r in self.records if r.is_observable]

    def calls(self) -> List[Tuple]:
        return [r.detail for r in self.records if r.kind is TraceKind.CALL]

    def entered_states(self) -> List[str]:
        return [r.detail[0] for r in self.records
                if r.kind is TraceKind.STATE_ENTER]

    def fired_transitions(self) -> List[str]:
        return [r.detail[0] for r in self.records
                if r.kind is TraceKind.TRANSITION]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def dump(self) -> str:
        """Multi-line textual rendering (model-debugger style)."""
        return "\n".join(str(r) for r in self.records)


def observable_equal(a: Trace, b: Trace) -> bool:
    """True when two traces are observationally equivalent."""
    return a.observable_payloads() == b.observable_payloads()
