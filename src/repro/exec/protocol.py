"""The Executor/Instance protocol and the canonical scenario runner.

Design rule: everything scenario-*independent* (code generation,
compilation, table building) belongs to :meth:`Executor.load`, which
adapters memoize per machine; everything scenario-*dependent* lives on
the :class:`Instance`.  Callers that used to thread pattern/level/
target/semantics through every helper now configure an executor once
and pass it around as a value.
"""

from __future__ import annotations

import abc
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple, Type)

from ..semantics.trace import Trace
from ..uml.events import Event
from ..uml.statemachine import StateMachine

__all__ = ["Executor", "Instance", "run_scenario", "normalize_stimuli"]

#: One stimulus event, normalized: (event name, integer payload).
PlainEvent = Tuple[str, int]


def normalize_stimuli(stimuli: Iterable[object]) -> List[PlainEvent]:
    """Normalize a stimulus sequence to ``[(name, payload), ...]``.

    Accepts the spellings that grew across the repo: plain names,
    :class:`~repro.uml.events.Event` objects, ``(name, payload)``
    pairs, and objects with an ``events`` attribute of pairs (the fuzz
    layer's ``Stimulus``).
    """
    if hasattr(stimuli, "events"):
        stimuli = stimuli.events   # fuzz Stimulus
    out: List[PlainEvent] = []
    for item in stimuli:
        if isinstance(item, str):
            out.append((item, 0))
        elif isinstance(item, Event):
            out.append((item.name, 0))
        elif isinstance(item, tuple) and len(item) == 2:
            out.append((str(item[0]), int(item[1])))
        else:
            raise TypeError(f"cannot normalize stimulus event {item!r}")
    return out


class Instance(abc.ABC):
    """One executing machine instance behind some backend."""

    machine: StateMachine

    @abc.abstractmethod
    def start(self) -> "Instance":
        """Take the initial transition and run to completion."""

    @abc.abstractmethod
    def dispatch(self, event: object, payload: int = 0) -> "Instance":
        """Queue one event (name or Event) and run to completion."""

    @property
    @abc.abstractmethod
    def trace(self) -> Trace:
        """Everything this instance did (grows monotonically)."""

    @property
    @abc.abstractmethod
    def in_final(self) -> bool:
        """True when the top region reached its final state."""

    @property
    @abc.abstractmethod
    def is_terminated(self) -> bool:
        """True after a terminate pseudostate (backends without
        terminate support always report False)."""

    @abc.abstractmethod
    def attributes(self) -> Dict[str, int]:
        """Current context-attribute values."""

    @property
    def extra(self) -> Any:
        """What the backend measured beside the behaviour: carried on
        the differential runner's observations, never compared
        (``None`` when the backend measures nothing more)."""
        return None

    def run_scenario(self, stimuli: Iterable[object]) -> "Instance":
        """Start (if needed) and dispatch every stimulus event in
        order, stopping early on termination — the contract every
        backend shares."""
        if not self.is_started:
            self.start()
        for name, payload in normalize_stimuli(stimuli):
            if self.is_terminated:
                break
            self.dispatch(name, payload)
        return self

    @property
    def is_started(self) -> bool:
        return True   # adapters that distinguish override this


class Executor(abc.ABC):
    """A way of executing state machines.

    Adapters memoize compilation per machine, so loading many instances
    of one machine — or many scenarios against one machine — pays for
    the backend's compile step once.
    """

    #: Short stable name ("interp", "vm", "fleet") used in oracle cell
    #: ids and reports.
    name: str = "?"
    #: Typed errors a run may raise (step budget exceeded, simulator
    #: fault); the differential runner observes them as the run's
    #: ``error`` instead of raising.
    run_errors: Tuple[Type[Exception], ...] = ()
    #: Errors :meth:`load` raises for a machine shape the backend
    #: documents as outside its subset; the runner observes them as
    #: ``unsupported: ...``, a feature gap rather than a divergence.
    shape_errors: Tuple[Type[Exception], ...] = ()

    @abc.abstractmethod
    def load(self, machine: StateMachine, *,
             externals: Optional[Mapping[str, Callable]] = None
             ) -> Instance:
        """Prepare one fresh instance of *machine* (not yet started)."""

    def describe(self) -> str:
        return self.name


def run_scenario(executor: Executor, machine: StateMachine,
                 stimuli: Iterable[object], *,
                 externals: Optional[Mapping[str, Callable]] = None
                 ) -> Instance:
    """THE scenario entry point: load, start, dispatch, return — one
    argument order for every backend."""
    instance = executor.load(machine, externals=externals)
    return instance.run_scenario(stimuli)
