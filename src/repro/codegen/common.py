"""What every pattern generates alike: the shared runtime and the
lowering of model behaviors/guards into C++ fragments.

Every generated machine class exposes one runtime (see :mod:`.base`):
:func:`init_prelude` opens its ``init()``, :func:`dispatch_method`
drains the pending-event slot, :func:`is_final_method` reports
completion, and the two hierarchical patterns point their submachine
singletons at each other with :func:`wire_submachines`.  Only the
encoding of state differs between patterns, so only that stays in the
generators.

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
from ..cpp.types import INT, VOID
from ..uml import actions as uact
from ..uml.events import AnyEvent
from ..uml.statemachine import Pseudostate, StateMachine
from .base import (CodegenError, EVENT_ENUM, NO_EVENT, event_enumerator,
                   instance_name)

__all__ = ["guard_to_cpp", "behavior_to_cpp", "event_enum_decl",
           "extern_decls", "attribute_fields", "event_index",
           "dispatch_number", "check_codegen_subset", "check_region_local",
           "guarded", "init_prelude", "dispatch_method", "is_final_method",
           "wire_submachines"]


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


def check_region_local(machine: StateMachine, pattern: str) -> None:
    """The shape gate of the two hierarchical patterns, which give every
    region its own class: no pseudostate but initials, no transition
    across a region boundary, no orthogonal regions, one top region —
    then :func:`check_codegen_subset`."""
    for vertex in machine.all_vertices():
        if isinstance(vertex, Pseudostate) and not vertex.is_initial:
            raise CodegenError(
                f"{pattern} cannot express pseudostate "
                f"{vertex.qualified_name} ({vertex.kind.value})")
    for tr in machine.all_transitions():
        if tr.source.container is not tr.target.container:
            raise CodegenError(
                f"{pattern} requires region-local transitions; "
                f"{tr.describe()} crosses a region boundary")
    for state in machine.all_states():
        if len(state.regions) > 1:
            raise CodegenError("orthogonal regions unsupported")
    if len(machine.regions) != 1:
        raise CodegenError(f"{pattern} needs one top region")
    check_codegen_subset(machine)


def _pending() -> cpp.Expr:
    return cpp.FieldAccess(cpp.ThisExpr(), "pending")


def init_prelude(machine: StateMachine) -> cpp.Block:
    """The opening of every ``init()``: empty the pending-event slot and
    store each context attribute's default (the one store per attribute
    the VM harness skips as the constructor's)."""
    body = cpp.Block([cpp.Assign(_pending(), cpp.IntLit(NO_EVENT))])
    for name, init in machine.context.attributes.items():
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), name),
                            cpp.IntLit(init)))
    return body


def dispatch_method(step: Callable[[cpp.Expr], cpp.Expr]) -> cpp.Method:
    """``dispatch(int ev)``: post *ev* to the pending slot, then run
    ``step(e)`` on each pending event until an event's step posts none
    (a behavior's emission reposts to the slot)."""
    loop = cpp.While(cpp.Binary("!=", _pending(), cpp.IntLit(NO_EVENT)))
    loop.body.add(cpp.VarDecl("e", INT, _pending()))
    loop.body.add(cpp.Assign(_pending(), cpp.IntLit(NO_EVENT)))
    loop.body.add(cpp.ExprStmt(step(cpp.Var("e"))))
    body = cpp.Block([cpp.Assign(_pending(), cpp.Var("ev")), loop])
    return cpp.Method("dispatch", [cpp.Param("ev", INT)], VOID, body)


def is_final_method(final_test: Optional[cpp.Expr]) -> cpp.Method:
    """``is_final()``: *final_test*, or 0 for a machine whose top region
    has no final state."""
    value = cpp.IntLit(0) if final_test is None else final_test
    return cpp.Method("is_final", [], INT, cpp.Block([cpp.Return(value)]))


def guarded(fire: cpp.Block, guard: Optional[uact.Expr],
            holder: Callable[[], cpp.Expr],
            precondition: Optional[cpp.Expr] = None) -> cpp.Stmt:
    """*fire* under ``precondition && guard``, either part optional."""
    cond = precondition
    if guard is not None:
        test = guard_to_cpp(guard, holder)
        cond = test if cond is None else cpp.Binary("&&", cond, test)
    return fire if cond is None else cpp.If(cond, fire)


def wire_submachines(plan, body: cpp.Block, parent: cpp.Expr) -> None:
    """Append to the root machine's ``init`` *body* the wiring of *plan*
    (a region plan with ``states``, ``subplans`` and ``cls_name``),
    reached through *parent*: point every composite's ``sub_<S>`` field
    at its submachine's global instance and that instance's ``owner`` at
    the root machine (``this``), then wire the submachine.

    Wiring is static, so ``init`` performs it flatly over the whole plan
    tree: the root's own fields go through ``this``, deeper levels
    through the global instances.
    """
    for state in plan.states:
        if not state.is_composite:
            continue
        sub = plan.subplans[state.element_id]
        instance = instance_name(sub.cls_name)
        body.add(cpp.Assign(cpp.FieldAccess(parent, f"sub_{state.name}"),
                            cpp.AddrOf(cpp.Var(instance))))
        body.add(cpp.Assign(cpp.FieldAccess(cpp.Var(instance), "owner"),
                            cpp.ThisExpr()))
        wire_submachines(sub, body, cpp.Var(instance))


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


def dispatch_number(machine: StateMachine, event_name: str) -> int:
    """The number a harness passes to generated ``dispatch(ev)``: the
    event's enumerator value, or one past the alphabet for an event
    outside it.  No arm, row or handler matches that number, so the
    generated runtime discards the event, as the model does an event
    nothing can consume."""
    for i, event in enumerate(machine.events.values()):
        if event.name == event_name:
            return i
    return len(machine.events)


def event_index(machine: StateMachine, event_name: str) -> int:
    """The enumerator value of an event of *machine*'s alphabet."""
    index = dispatch_number(machine, event_name)
    if index == len(machine.events):
        raise CodegenError(f"machine {machine.name!r} has no event "
                           f"{event_name!r}")
    return index


def extern_decls(machine: StateMachine) -> List[cpp.ExternFunction]:
    """``extern "C"`` declarations for every context operation."""
    return [cpp.ExternFunction(op) for op in machine.context.operations]


def attribute_fields(machine: StateMachine) -> List[cpp.Field]:
    """One int field per context attribute (initial values are applied by
    the generated ``init()``)."""
    return [cpp.Field(name, INT, cpp.IntLit(init))
            for name, init in machine.context.attributes.items()]
