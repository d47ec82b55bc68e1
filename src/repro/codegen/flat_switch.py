"""Flattened Switch generator: the fourth implementation pattern.

A hybrid of the STT and Nested Switch shapes the embedded literature
also uses: the hierarchy is **flattened at generation time** (the same
:mod:`repro.codegen.flattening` relation the table pattern consumes),
but instead of a data table with a generic scan engine, the generator
emits **one flat two-level switch** — outer case on the leaf
configuration, inner case on the event — with every resolved
transition's full exit/effect/entry sequence inlined into its arm.

Compared to the other patterns:

* unlike Nested Switch there are no submachine classes and no runtime
  hierarchy walk: one class, one state variable over leaf configs;
* unlike STT there is no rodata table and no engine: dispatch is pure
  code, so the compiler's switch lowering (jump table vs compare chain)
  sees the whole machine at once;
* the price is the same action duplication Nested Switch pays, amplified
  by flattening (a row per (leaf, trigger) resolution).

Generated shape for machine ``M``: ``enum M_State`` over leaf configs,
class ``M`` with the context attributes, ``init``/``dispatch``/``step``/
``completions``/``is_final``, and the global instance ``g_M``.
"""

from __future__ import annotations

from typing import Dict, List

from ..cpp import ast as cpp
from ..cpp.types import INT, VOID, ClassRefType
from ..uml.statemachine import StateMachine
from .base import CodeGenerator, event_enumerator, instance_name
from .common import (attribute_fields, behavior_to_cpp,
                     check_codegen_subset, dispatch_method, event_enum_decl,
                     extern_decls, guarded, init_prelude, is_final_method)
from .flattening import FlatMachine, FlatTransition, flatten_machine

__all__ = ["FlatSwitchGenerator"]


class FlatSwitchGenerator(CodeGenerator):
    """Outer switch on leaf configuration, inner switch on event, all
    action sequences inlined."""

    name = "flat-switch"
    display_name = "Flattened Switch"

    def generate(self, machine: StateMachine) -> cpp.TranslationUnit:
        self.machine = machine
        self.flat: FlatMachine = flatten_machine(machine)
        check_codegen_subset(machine)
        self.cls_name = self.class_name(machine)
        self.enum_name = f"{self.cls_name}_State"
        unit = cpp.TranslationUnit(f"{machine.name}_flat_switch")
        unit.enums.append(event_enum_decl(machine))
        unit.enums.append(cpp.EnumDecl(
            self.enum_name, [self._leaf_enumerator(leaf.index)
                             for leaf in self.flat.leaves]))
        unit.externs.extend(extern_decls(machine))

        cls = cpp.ClassDecl(self.cls_name)
        cls.fields.append(cpp.Field("state", INT))
        cls.fields.append(cpp.Field("pending", INT))
        cls.fields.extend(attribute_fields(machine))
        cls.methods.append(self._gen_init())
        cls.methods.append(dispatch_method(
            lambda ev: cpp.MethodCall(cpp.ThisExpr(), self.cls_name, "step",
                                      (ev,))))
        cls.methods.append(self._gen_step())
        cls.methods.append(self._gen_completions())
        final = self.flat.top_final_leaf
        cls.methods.append(is_final_method(
            None if final is None else
            cpp.Binary("==", cpp.FieldAccess(cpp.ThisExpr(), "state"),
                       self._leaf_ref(final))))
        unit.classes.append(cls)
        unit.globals.append(cpp.GlobalVar(
            instance_name(self.cls_name), ClassRefType(self.cls_name)))
        return unit

    # ------------------------------------------------------------------
    # shared pieces
    # ------------------------------------------------------------------
    def _leaf_enumerator(self, index: int) -> str:
        name = self.flat.leaves[index].name.replace(".", "_")
        return f"LS_{name}"

    def _leaf_ref(self, index: int) -> cpp.Expr:
        return cpp.EnumRef(self.enum_name, self._leaf_enumerator(index))

    def _emit_event(self, index: int) -> cpp.Stmt:
        return cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "pending"),
                          cpp.IntLit(index))

    def _fire_stmts(self, tr: FlatTransition, body: cpp.Block) -> None:
        """Inline one row: actions, then the state change (non-internal)."""
        for behavior in tr.actions:
            for stmt in behavior_to_cpp(behavior, cpp.ThisExpr,
                                        self._emit_event, self.machine):
                body.add(stmt)
        if not tr.internal:
            body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "state"),
                                self._leaf_ref(tr.target)))

    # ------------------------------------------------------------------
    # methods
    # ------------------------------------------------------------------
    def _gen_init(self) -> cpp.Method:
        body = init_prelude(self.machine)
        for behavior in self.flat.initial_actions:
            for stmt in behavior_to_cpp(behavior, cpp.ThisExpr,
                                        self._emit_event, self.machine):
                body.add(stmt)
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "state"),
                            self._leaf_ref(self.flat.initial_leaf)))
        body.add(cpp.ExprStmt(cpp.MethodCall(
            cpp.ThisExpr(), self.cls_name, "completions")))
        return cpp.Method("init", [], VOID, body)

    def _gen_step(self) -> cpp.Method:
        outer = cpp.Switch(cpp.FieldAccess(cpp.ThisExpr(), "state"))
        for leaf in self.flat.leaves:
            rows = [tr for tr in self.flat.transitions
                    if tr.source == leaf.index and tr.trigger is not None]
            if not rows:
                continue
            arm = cpp.SwitchCase([self._leaf_ref(leaf.index)])
            inner = cpp.Switch(cpp.Var("ev"))
            by_event: Dict[str, List[FlatTransition]] = {}
            for tr in rows:
                by_event.setdefault(tr.trigger, []).append(tr)
            for event_name, trs in by_event.items():
                case = cpp.SwitchCase([cpp.EnumRef(
                    "Event", event_enumerator(event_name))])
                for tr in trs:
                    fire = cpp.Block()
                    self._fire_stmts(tr, fire)
                    if not tr.internal:
                        fire.add(cpp.ExprStmt(cpp.MethodCall(
                            cpp.ThisExpr(), self.cls_name, "completions")))
                    fire.add(cpp.Return(cpp.IntLit(1)))
                    case.body.add(guarded(fire, tr.guard, cpp.ThisExpr))
                inner.cases.append(case)
            arm.body.add(inner)
            outer.cases.append(arm)
        body = cpp.Block([outer, cpp.Return(cpp.IntLit(0))])
        return cpp.Method("step", [cpp.Param("ev", INT)], INT, body)

    def _gen_completions(self) -> cpp.Method:
        body = cpp.Block()
        body.add(cpp.VarDecl("again", INT, cpp.IntLit(1)))
        loop = cpp.While(cpp.Var("again"))
        loop.body.add(cpp.Assign(cpp.Var("again"), cpp.IntLit(0)))
        sw = cpp.Switch(cpp.FieldAccess(cpp.ThisExpr(), "state"))
        for leaf in self.flat.leaves:
            rows = [tr for tr in self.flat.transitions
                    if tr.source == leaf.index and tr.trigger is None]
            if not rows:
                continue
            arm = cpp.SwitchCase([self._leaf_ref(leaf.index)])
            for tr in rows:
                fire = cpp.Block()
                self._fire_stmts(tr, fire)
                fire.add(cpp.Assign(cpp.Var("again"), cpp.IntLit(1)))
                arm.body.add(guarded(fire, tr.guard, cpp.ThisExpr))
            sw.cases.append(arm)
        if sw.cases:
            loop.body.add(sw)
            body.add(loop)
        return cpp.Method("completions", [], VOID, body)
