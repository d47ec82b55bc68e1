"""Code generators: the paper's three implementation patterns, plus the
flattened-switch hybrid.

Each pattern is a :class:`CodeGenerator` producing a
:class:`repro.cpp.ast.TranslationUnit` for the same machine under the
same fixed execution semantics, and every generated class exposes one
runtime (:mod:`.base` names it, :mod:`.common` builds it).  Main public
names: :func:`generator_by_name` (``"state-table"``,
``"nested-switch"``, ``"state-pattern"``, ``"flat-switch"``), the
generator classes themselves, :data:`ALL_GENERATORS` (the paper's
three, Table 1 order) / :data:`ALL_PATTERNS` (all four), the flattening
relation (:func:`flatten_machine` -> :class:`FlatMachine`), the runtime
contract harnesses boot generated code by (:func:`instance_name`,
:data:`NO_EVENT`, :func:`dispatch_number`), and — in :mod:`.harness` —
:class:`~.harness.GeneratedMachine`, which runs generated code on the
GIMPLE interpreter (the instruction-level counterpart is
:mod:`repro.vm`).
"""

from typing import List, Type

from .base import (CodeGenerator, CodegenError, NO_EVENT, COMPLETION_EVENT,
                   EVENT_ENUM, event_enumerator, instance_name)
from .common import dispatch_number, event_index
from .flat_switch import FlatSwitchGenerator
from .flattening import (FlatMachine, FlatTransition, LeafConfig,
                         flatten_machine)
from .nested_switch import NestedSwitchGenerator
from .state_pattern import StatePatternGenerator
from .state_table import StateTableGenerator

__all__ = [
    "CodeGenerator", "CodegenError", "NO_EVENT",
    "COMPLETION_EVENT", "EVENT_ENUM", "event_enumerator", "event_index",
    "dispatch_number", "instance_name",
    "FlatMachine", "FlatTransition", "LeafConfig", "flatten_machine",
    "FlatSwitchGenerator", "NestedSwitchGenerator", "StatePatternGenerator",
    "StateTableGenerator", "ALL_GENERATORS", "ALL_PATTERNS",
    "generator_by_name",
]

#: The three patterns of the paper's Table 1, in its row order (the
#: experiment harnesses that reproduce the paper iterate these).
ALL_GENERATORS: List[Type[CodeGenerator]] = [
    StateTableGenerator,
    NestedSwitchGenerator,
    StatePatternGenerator,
]

#: Every implementation pattern the reproduction ships, including the
#: flattened-switch hybrid that goes beyond the paper's three.
ALL_PATTERNS: List[Type[CodeGenerator]] = ALL_GENERATORS + [
    FlatSwitchGenerator,
]


def generator_by_name(name: str) -> CodeGenerator:
    """Instantiate a generator by its stable name."""
    for gen_cls in ALL_PATTERNS:
        if gen_cls.name == name:
            return gen_cls()
    raise KeyError(f"unknown generator {name!r}; available: "
                   f"{[g.name for g in ALL_PATTERNS]}")
