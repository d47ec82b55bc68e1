"""Shared lowering of model behaviors/guards into C++ fragments.

Guards and behaviors reference context attributes (``VarRef``) and opaque
operations (``CallExpr``); the generated C++ stores the attributes as
fields of the machine object, so the translation rewrites attribute
references through an *attribute holder* expression (``this`` in machine
methods, ``m->owner`` in submachine methods, a parameter in table-pattern
thunks).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..cpp import ast as cpp
from ..uml import actions as uact
from ..uml.events import AnyEvent
from ..uml.statemachine import StateMachine
from .base import CodegenError, EVENT_ENUM, event_enumerator

__all__ = ["guard_to_cpp", "behavior_to_cpp", "event_enum_decl",
           "extern_decls", "attribute_fields", "event_index",
           "check_codegen_subset"]


def check_codegen_subset(machine: StateMachine) -> None:
    """Decline the two shapes no pattern can express.

    * A composite whose region has no initial pseudostate: the
      interpreter never enters such a region, so the composite never
      completes; every pattern's runtime would complete it (or, in the
      state pattern, jump through a null state).
    * A wildcard trigger (:class:`~repro.uml.events.AnyEvent`, ``*``):
      the interpreter and the fleet fire it on any event, while every
      pattern would compile it as an ordinary event named ``*`` that
      never arrives.

    Every pattern calls this, so such a machine is a documented feature
    gap (a :class:`CodegenError`) rather than wrong code.
    """
    for state in machine.all_states():
        for region in state.regions:
            if region.initial is None:
                raise CodegenError(
                    f"composite state {state.label!r} has a region without "
                    "an initial pseudostate; generated code cannot leave "
                    "it uncompleted")
    for transition in machine.all_transitions():
        if any(isinstance(trig, AnyEvent) for trig in transition.triggers):
            raise CodegenError(
                f"transition {transition.describe()!r} has a wildcard "
                "trigger; generated code dispatches named events only")


def guard_to_cpp(expr: uact.Expr, holder: Callable[[], cpp.Expr]) -> cpp.Expr:
    """Translate a model guard expression to C++.

    *holder* produces a fresh pointer expression to the object carrying
    the context attributes (called per reference so shared AST nodes are
    never aliased).
    """
    if isinstance(expr, uact.IntLit):
        return cpp.IntLit(expr.value)
    if isinstance(expr, uact.BoolLit):
        return cpp.BoolLit(expr.value)
    if isinstance(expr, uact.VarRef):
        return cpp.FieldAccess(holder(), expr.name)
    if isinstance(expr, uact.UnaryOp):
        return cpp.Unary(expr.op, guard_to_cpp(expr.operand, holder))
    if isinstance(expr, uact.BinOp):
        return cpp.Binary(expr.op, guard_to_cpp(expr.lhs, holder),
                          guard_to_cpp(expr.rhs, holder))
    if isinstance(expr, uact.CallExpr):
        return cpp.Call(expr.func,
                        tuple(guard_to_cpp(a, holder) for a in expr.args))
    raise CodegenError(f"cannot translate guard expression {expr!r}")


def behavior_to_cpp(behavior: uact.Behavior, holder: Callable[[], cpp.Expr],
                    emit_event: Optional[Callable[[int], cpp.Stmt]] = None,
                    machine: Optional[StateMachine] = None,
                    ) -> List[cpp.Stmt]:
    """Translate a model behavior into C++ statements.

    ``emit_event(index)`` builds the statement posting an event to self;
    required only when the behavior contains :class:`~repro.uml.EmitStmt`.
    """
    statements: List[cpp.Stmt] = []
    for stmt in behavior.statements:
        if isinstance(stmt, uact.Assign):
            statements.append(cpp.Assign(
                cpp.FieldAccess(holder(), stmt.target),
                guard_to_cpp(stmt.value, holder)))
        elif isinstance(stmt, uact.CallStmt):
            statements.append(cpp.ExprStmt(
                guard_to_cpp(stmt.call, holder)))
        elif isinstance(stmt, uact.EmitStmt):
            if emit_event is None or machine is None:
                raise CodegenError(
                    "behavior emits an event but the pattern provided no "
                    "event-posting hook")
            statements.append(emit_event(event_index(machine,
                                                     stmt.event_name)))
        else:
            raise CodegenError(f"cannot translate statement {stmt!r}")
    return statements


def event_enum_decl(machine: StateMachine) -> cpp.EnumDecl:
    """The ``enum Event`` declaration, in alphabet declaration order."""
    return cpp.EnumDecl(EVENT_ENUM, [event_enumerator(e.name)
                                     for e in machine.events.values()])


def event_index(machine: StateMachine, event_name: str) -> int:
    for i, event in enumerate(machine.events.values()):
        if event.name == event_name:
            return i
    raise CodegenError(f"machine {machine.name!r} has no event "
                       f"{event_name!r}")


def extern_decls(machine: StateMachine) -> List[cpp.ExternFunction]:
    """``extern "C"`` declarations for every context operation."""
    from ..cpp.types import INT
    return [cpp.ExternFunction(op) for op in machine.context.operations]


def attribute_fields(machine: StateMachine) -> List[cpp.Field]:
    """One int field per context attribute (initial values are applied by
    the generated ``init()``)."""
    from ..cpp.types import INT
    return [cpp.Field(name, INT, cpp.IntLit(init))
            for name, init in machine.context.attributes.items()]
