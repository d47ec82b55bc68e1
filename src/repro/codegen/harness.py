"""Execution harness for generated machines.

Bridges the three worlds of the reproduction:

* generate C++ from a model (any pattern),
* lower/optimize it with MGCC (any ``-O`` level),
* execute it on the GIMPLE interpreter,

so tests can assert that *the generated, compiled code behaves exactly
like the UML model* — the refactoring guarantee the paper's optimization
claims rest on, extended down to the implementation.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from ..compiler.driver import OptLevel, compile_unit
from ..compiler.frontend.lower import lower_unit, mangle
from ..compiler.gimple.interp import GimpleInterpreter
from ..uml.statemachine import StateMachine
from .base import CodeGenerator, instance_name
from .common import dispatch_number

__all__ = ["GeneratedMachine", "observable_calls_of_model"]


class GeneratedMachine:
    """One generated machine instance running on the GIMPLE interpreter."""

    def __init__(self, machine: StateMachine, generator: CodeGenerator,
                 level: Optional[OptLevel] = None,
                 externals: Optional[Mapping[str, Callable]] = None) -> None:
        self.model = machine
        self.generator = generator
        self.unit = generator.generate(machine)
        self.cls_name = generator.class_name(machine)
        if level is None or level is OptLevel.O0:
            self.program = lower_unit(self.unit)
        else:
            result = compile_unit(self.unit, level)
            self.program = result.program
        self.interp = GimpleInterpreter(self.program, externals)
        self.instance = instance_name(self.cls_name)
        self.this = self.interp.address_of(self.instance)
        self.interp.call(mangle(self.cls_name, "init"), (self.this,))

    # ------------------------------------------------------------------
    def dispatch(self, event_name: str) -> None:
        """Run one event to completion.  An event outside the machine's
        alphabet is discarded, as the model discards it (see
        :func:`~.common.dispatch_number`)."""
        self.interp.call(mangle(self.cls_name, "dispatch"),
                         (self.this, dispatch_number(self.model, event_name)))

    def send_all(self, events: Sequence[str]) -> "GeneratedMachine":
        for event in events:
            self.dispatch(event)
        return self

    def is_final(self) -> bool:
        return bool(self.interp.call(mangle(self.cls_name, "is_final"),
                                     (self.this,)))

    @property
    def calls(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """External calls performed so far, in execution order."""
        return list(self.interp.call_log)

    def read_attribute(self, name: str) -> int:
        """Read a context attribute from the machine object's memory."""
        from ..compiler.frontend.lower import ClassLayout, _UnitContext
        ctx = _UnitContext(self.unit)
        layout = ctx.layout(self.cls_name)
        return self.interp.load_word(self.this + layout.offset_of(name))


def observable_calls_of_model(machine: StateMachine,
                              events: Sequence[str]
                              ) -> List[Tuple[str, Tuple[int, ...]]]:
    """Reference call sequence: run the model interpreter on *events* and
    return the opaque calls it performed."""
    from ..exec.adapters import InterpreterExecutor
    from ..exec.protocol import run_scenario
    instance = run_scenario(InterpreterExecutor(), machine, events).inner
    return [(name, args) for name, args in instance.trace.calls()]
