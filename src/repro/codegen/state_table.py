"""State Transition Table generator (R.C. Martin, the paper's ref. [9]).

"The State Table Transition (STT) ... consists in building a 2 dimensions
table describing the relation between states and events" (§III.B).

Generated shape for machine ``M``:

* the hierarchy is **flattened** at generation time
  (:mod:`repro.codegen.flattening`) — the published STT pattern describes
  a flat FSM, and table implementations of hierarchical machines flatten;
* one ``const M_Row M_rows[]`` table: ``{state, event, guard_fn,
  action_start, action_count, target}`` — 24 bytes of *data* per
  transition, no per-transition code;
* the action sequence of each row (exits, effect, entries) is a slice of
  a shared function-pointer pool ``M_actions[]``; every distinct
  entry/exit/effect behavior becomes **one** shared function and rows
  reference it — the factoring that makes this pattern's absolute size
  by far the smallest in the paper's Table 1 (13 885 B vs ~49 000 B,
  where the other two patterns duplicate the action code into every
  transition arm) and its optimization rate the lowest (30.8 %): removing
  a state deletes rows and pool slices, but the generic engine remains;
* a single generic engine (``scan``) matches (state, event), evaluates
  the optional guard, runs the pool slice and retargets;
* completion rows use the reserved event id ``COMPLETION_EVENT`` and are
  scanned after every fired transition — the UML priority rule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..cpp import ast as cpp
from ..cpp.types import (ArrayType, ClassRefType, FuncPtrType, INT,
                         PointerType, VOID)
from ..uml.actions import Behavior
from ..uml.statemachine import StateMachine
from .base import COMPLETION_EVENT, CodeGenerator, NO_EVENT
from .common import (attribute_fields, behavior_to_cpp, event_enum_decl,
                     event_index, extern_decls, guard_to_cpp)
from .flattening import FlatMachine, FlatTransition, flatten_machine

__all__ = ["StateTableGenerator"]


class StateTableGenerator(CodeGenerator):
    """Table-driven implementation over the flattened machine."""

    name = "state-table"
    display_name = "STT"

    def generate(self, machine: StateMachine) -> cpp.TranslationUnit:
        self.machine = machine
        self.flat: FlatMachine = flatten_machine(machine)
        cls_name = self.class_name(machine)
        self.cls_name = cls_name
        self.machine_ptr = PointerType(ClassRefType(cls_name))
        unit = cpp.TranslationUnit(f"{machine.name}_state_table")
        unit.enums.append(event_enum_decl(machine))
        unit.enums.append(self._state_enum())
        unit.externs.extend(extern_decls(machine))

        self._behavior_fns: Dict[Behavior, str] = {}
        self._behavior_decls: List[cpp.Function] = []
        self._guard_fns: List[cpp.Function] = []
        self._pool: List[str] = []          # function names, in pool order
        self._pool_slices: Dict[Tuple[str, ...], int] = {}

        rows = [self._build_row(i, tr)
                for i, tr in enumerate(self.flat.transitions)]
        self._init_slice = self._pool_slice(tuple(
            fn for fn in (self._behavior_fn(b)
                          for b in self.flat.initial_actions)
            if fn is not None))

        unit.classes.append(self._row_class())
        unit.classes.append(self._machine_class())
        unit.functions.extend(self._behavior_decls)
        unit.functions.extend(self._guard_fns)
        unit.globals.append(self._pool_global())
        unit.globals.append(self._table_global(rows))
        unit.globals.append(cpp.GlobalVar(
            f"g_{cls_name}", ClassRefType(cls_name)))
        return unit

    # ------------------------------------------------------------------
    # naming / shared pieces
    # ------------------------------------------------------------------
    def _state_enum(self) -> cpp.EnumDecl:
        enumerators = [self._leaf_enumerator(leaf.index)
                       for leaf in self.flat.leaves]
        return cpp.EnumDecl(f"{self.cls_name}_State", enumerators)

    def _leaf_enumerator(self, index: int) -> str:
        name = self.flat.leaves[index].name.replace(".", "_")
        return f"LS_{name}"

    def _holder(self) -> Callable[[], cpp.Expr]:
        return lambda: cpp.Var("m")

    def _emit_event(self) -> Callable[[int], cpp.Stmt]:
        return lambda index: cpp.Assign(
            cpp.FieldAccess(cpp.Var("m"), "pending"), cpp.IntLit(index))

    def _behavior_fn(self, behavior: Behavior) -> Optional[str]:
        """Shared function implementing one behavior (deduplicated)."""
        if not behavior:
            return None
        if behavior in self._behavior_fns:
            return self._behavior_fns[behavior]
        name = f"{self.cls_name}_beh_{len(self._behavior_fns)}"
        body = cpp.Block()
        for stmt in behavior_to_cpp(behavior, self._holder(),
                                    self._emit_event(), self.machine):
            body.add(stmt)
        self._behavior_fns[behavior] = name
        self._behavior_decls.append(cpp.Function(
            name, [cpp.Param("m", self.machine_ptr)], VOID, body))
        return name

    def _pool_slice(self, fns: Tuple[str, ...]) -> Tuple[int, int]:
        """Allocate (or reuse) a pool slice for an action sequence."""
        if not fns:
            return (0, 0)
        if fns in self._pool_slices:
            return (self._pool_slices[fns], len(fns))
        start = len(self._pool)
        self._pool_slices[fns] = start
        self._pool.extend(fns)
        return (start, len(fns))

    # ------------------------------------------------------------------
    # rows
    # ------------------------------------------------------------------
    def _build_row(self, index: int, tr: FlatTransition
                   ) -> Tuple[int, int, Optional[str], int, int, int]:
        """Returns (state, event_id, guard_fn, start, count, target)."""
        event_id = (COMPLETION_EVENT if tr.trigger is None
                    else event_index(self.machine, tr.trigger))
        guard_name: Optional[str] = None
        if tr.guard is not None:
            guard_name = f"{self.cls_name}_grd_{index}"
            body = cpp.Block([cpp.Return(
                guard_to_cpp(tr.guard, self._holder()))])
            self._guard_fns.append(cpp.Function(
                guard_name, [cpp.Param("m", self.machine_ptr)], INT, body))
        fns = tuple(fn for fn in (self._behavior_fn(b) for b in tr.actions)
                    if fn is not None)
        start, count = self._pool_slice(fns)
        return (tr.source, event_id, guard_name, start, count, tr.target)

    def _row_class(self) -> cpp.ClassDecl:
        cls = cpp.ClassDecl(f"{self.cls_name}_Row")
        cls.fields.append(cpp.Field("state", INT))
        cls.fields.append(cpp.Field("event", INT))
        cls.fields.append(cpp.Field(
            "guard", FuncPtrType(INT, (self.machine_ptr,))))
        cls.fields.append(cpp.Field("action_start", INT))
        cls.fields.append(cpp.Field("action_count", INT))
        cls.fields.append(cpp.Field("target", INT))
        return cls

    def _pool_global(self) -> cpp.GlobalVar:
        pool_type = ArrayType(FuncPtrType(VOID, (self.machine_ptr,)),
                              max(len(self._pool), 1))
        elements: List[cpp.Expr] = [cpp.FuncRef(fn) for fn in self._pool]
        if not elements:
            elements = [cpp.NullPtr()]
        return cpp.GlobalVar(f"{self.cls_name}_actions", pool_type,
                             cpp.ArrayInit(elements), is_const=True)

    def _table_global(self, rows) -> cpp.GlobalVar:
        elements = []
        for state, event_id, guard_name, start, count, target in rows:
            values: List[cpp.Expr] = [
                cpp.IntLit(state), cpp.IntLit(event_id),
                cpp.FuncRef(guard_name) if guard_name else cpp.NullPtr(),
                cpp.IntLit(start), cpp.IntLit(count), cpp.IntLit(target),
            ]
            elements.append(cpp.StructInit(values))
        table_type = ArrayType(ClassRefType(f"{self.cls_name}_Row"),
                               max(len(rows), 1))
        if not elements:
            elements = [cpp.StructInit([cpp.IntLit(-1), cpp.IntLit(-1),
                                        cpp.NullPtr(), cpp.IntLit(0),
                                        cpp.IntLit(0), cpp.IntLit(0)])]
        return cpp.GlobalVar(f"{self.cls_name}_rows", table_type,
                             cpp.ArrayInit(elements), is_const=True)

    # ------------------------------------------------------------------
    # machine class + engine
    # ------------------------------------------------------------------
    def _machine_class(self) -> cpp.ClassDecl:
        cls = cpp.ClassDecl(self.cls_name)
        cls.fields.append(cpp.Field("state", INT))
        cls.fields.append(cpp.Field("pending", INT))
        cls.fields.extend(attribute_fields(self.machine))
        cls.methods.append(self._gen_init())
        cls.methods.append(self._gen_dispatch())
        cls.methods.append(self._gen_run_actions())
        cls.methods.append(self._gen_scan())
        cls.methods.append(self._gen_step())
        cls.methods.append(self._gen_completions())
        cls.methods.append(self._gen_is_final())
        return cls

    def _gen_init(self) -> cpp.Method:
        body = cpp.Block()
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "pending"),
                            cpp.IntLit(NO_EVENT)))
        for name, init in self.machine.context.attributes.items():
            body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), name),
                                cpp.IntLit(init)))
        start, count = self._init_slice
        if count:
            body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.ThisExpr(), self.cls_name, "run_actions",
                (cpp.IntLit(start), cpp.IntLit(count)))))
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "state"),
                            cpp.IntLit(self.flat.initial_leaf)))
        body.add(cpp.ExprStmt(cpp.MethodCall(
            cpp.ThisExpr(), self.cls_name, "completions")))
        return cpp.Method("init", [], VOID, body)

    def _gen_dispatch(self) -> cpp.Method:
        body = cpp.Block()
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "pending"),
                            cpp.Var("ev")))
        loop = cpp.While(cpp.Binary(
            "!=", cpp.FieldAccess(cpp.ThisExpr(), "pending"),
            cpp.IntLit(NO_EVENT)))
        loop.body.add(cpp.VarDecl("e", INT,
                                  cpp.FieldAccess(cpp.ThisExpr(), "pending")))
        loop.body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "pending"),
                                 cpp.IntLit(NO_EVENT)))
        loop.body.add(cpp.ExprStmt(cpp.MethodCall(
            cpp.ThisExpr(), self.cls_name, "step", (cpp.Var("e"),))))
        body.add(loop)
        return cpp.Method("dispatch", [cpp.Param("ev", INT)], VOID, body)

    def _gen_run_actions(self) -> cpp.Method:
        """``run_actions(start, count)`` — call a pool slice in order."""
        body = cpp.Block()
        body.add(cpp.VarDecl("j", INT, cpp.Var("start")))
        body.add(cpp.VarDecl("end", INT, cpp.Binary(
            "+", cpp.Var("start"), cpp.Var("count"))))
        loop = cpp.While(cpp.Binary("<", cpp.Var("j"), cpp.Var("end")))
        loop.body.add(cpp.ExprStmt(cpp.IndirectCall(
            cpp.Index(cpp.Var(f"{self.cls_name}_actions"), cpp.Var("j")),
            (cpp.ThisExpr(),), FuncPtrType(VOID, (self.machine_ptr,)))))
        loop.body.add(cpp.Assign(cpp.Var("j"), cpp.Binary(
            "+", cpp.Var("j"), cpp.IntLit(1))))
        body.add(loop)
        return cpp.Method("run_actions",
                          [cpp.Param("start", INT), cpp.Param("count", INT)],
                          VOID, body)

    def _row_expr(self, field: str) -> cpp.Expr:
        return cpp.FieldAccess(
            cpp.Index(cpp.Var(f"{self.cls_name}_rows"), cpp.Var("i")), field)

    def _gen_scan(self) -> cpp.Method:
        """``scan(eventId) -> fired`` — the generic table engine."""
        n_rows = max(len(self.flat.transitions), 1)
        body = cpp.Block()
        body.add(cpp.VarDecl("i", INT, cpp.IntLit(0)))
        loop = cpp.While(cpp.Binary("<", cpp.Var("i"), cpp.IntLit(n_rows)))
        match = cpp.Binary(
            "&&",
            cpp.Binary("==", self._row_expr("state"),
                       cpp.FieldAccess(cpp.ThisExpr(), "state")),
            cpp.Binary("==", self._row_expr("event"), cpp.Var("eid")))
        guard_ok = cpp.Binary(
            "||",
            cpp.Binary("==", cpp.Cast(INT, self._row_expr("guard")),
                       cpp.IntLit(0)),
            cpp.IndirectCall(self._row_expr("guard"), (cpp.ThisExpr(),),
                             FuncPtrType(INT, (self.machine_ptr,))))
        fire = cpp.Block([
            cpp.ExprStmt(cpp.MethodCall(
                cpp.ThisExpr(), self.cls_name, "run_actions",
                (self._row_expr("action_start"),
                 self._row_expr("action_count")))),
            cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "state"),
                       self._row_expr("target")),
            cpp.Return(cpp.IntLit(1)),
        ])
        loop.body.add(cpp.If(match, cpp.Block([cpp.If(guard_ok, fire)])))
        loop.body.add(cpp.Assign(cpp.Var("i"),
                                 cpp.Binary("+", cpp.Var("i"), cpp.IntLit(1))))
        body.add(loop)
        body.add(cpp.Return(cpp.IntLit(0)))
        return cpp.Method("scan", [cpp.Param("eid", INT)], INT, body)

    def _gen_step(self) -> cpp.Method:
        body = cpp.Block()
        fired = cpp.MethodCall(cpp.ThisExpr(), self.cls_name, "scan",
                               (cpp.Var("ev"),))
        body.add(cpp.If(fired, cpp.Block([cpp.ExprStmt(cpp.MethodCall(
            cpp.ThisExpr(), self.cls_name, "completions"))])))
        body.add(cpp.Return())
        return cpp.Method("step", [cpp.Param("ev", INT)], VOID, body)

    def _gen_completions(self) -> cpp.Method:
        body = cpp.Block()
        loop = cpp.While(cpp.MethodCall(
            cpp.ThisExpr(), self.cls_name, "scan",
            (cpp.IntLit(COMPLETION_EVENT),)))
        loop.body = cpp.Block()
        body.add(loop)
        return cpp.Method("completions", [], VOID, body)

    def _gen_is_final(self) -> cpp.Method:
        if self.flat.top_final_leaf is None:
            return cpp.Method("is_final", [], INT,
                              cpp.Block([cpp.Return(cpp.IntLit(0))]))
        cmp = cpp.Binary("==", cpp.FieldAccess(cpp.ThisExpr(), "state"),
                         cpp.IntLit(self.flat.top_final_leaf))
        return cpp.Method("is_final", [], INT,
                          cpp.Block([cpp.Return(cmp)]))
