"""Code generator interface.

Paper §III.B: "There are number of patterns that may be used to implement
a UML state machine.  Most popular ones are: the State Pattern, the State
Table Transition (STT), and the Nested Switch Case statements."  Each
pattern is one :class:`CodeGenerator` producing a
:class:`~repro.cpp.ast.TranslationUnit` for the same machine under the
same fixed execution semantics.

Shared conventions of all four generators (nested switch, state
pattern, state table and flattened switch):

* one ``enum Event`` over the machine's alphabet, in declaration order;
* context attributes become ``int`` fields of the machine class;
* opaque operations become ``extern "C"`` functions;
* every pattern exposes one runtime: a global instance
  :func:`instance_name` of the machine class, ``init()`` (store the
  attribute defaults, take the initial transition), ``dispatch(int ev)``
  (run-to-completion steps until the ``pending`` event slot holds
  :data:`NO_EVENT`) and ``is_final()`` (top-region completion);
  :mod:`.common` builds these pieces once for every pattern, and both
  harnesses that boot generated code read this contract from here;
* completion transitions are evaluated eagerly after every state entry,
  with priority over pooled events — the UML rule the paper's
  optimization relies on.
"""

from __future__ import annotations

import abc

from ..cpp import ast as cpp
from ..uml.statemachine import StateMachine

__all__ = ["CodeGenerator", "CodegenError", "EVENT_ENUM",
           "event_enumerator", "instance_name", "NO_EVENT",
           "COMPLETION_EVENT"]

EVENT_ENUM = "Event"
#: Sentinel used by generated runtimes for "no pending event".
NO_EVENT = -1
#: Sentinel row-event used by the table pattern for completion rows.
COMPLETION_EVENT = -2


class CodegenError(Exception):
    """Raised when a machine uses a feature the pattern cannot express."""


def event_enumerator(event_name: str) -> str:
    return f"EV_{event_name}"


def instance_name(cls_name: str) -> str:
    """The global instance generated code defines for class *cls_name*:
    the machine a harness boots, a submachine or a state singleton."""
    return f"g_{cls_name}"


class CodeGenerator(abc.ABC):
    """One implementation pattern."""

    #: stable identifier used by experiments/benchmarks ("nested-switch",
    #: "state-pattern", "state-table", "flat-switch")
    name: str = "abstract"
    #: human-readable pattern name as the paper spells it
    display_name: str = ""

    @abc.abstractmethod
    def generate(self, machine: StateMachine) -> cpp.TranslationUnit:
        """Generate the translation unit implementing *machine*."""

    def class_name(self, machine: StateMachine) -> str:
        """Name of the generated machine class."""
        return machine.name
