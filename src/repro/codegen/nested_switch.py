"""Nested Switch Case generator (the paper's main measurement pattern).

Paper §III.B: "the Nested Switch Case statements ... is the most commonly
used pattern.  The latter pattern consists in having an outer case
statement that selects the current state and an inner case statement that
selects the appropriate behavior given the type of the received event."

Generated shape for machine ``M``:

* ``enum M_State`` over the top region's states (+ ``ST_FINAL``);
* class ``M`` with the context attributes, the state variable, a pending
  event slot and the nested-switch ``step``; public ``init``/``dispatch``;
* **one submachine class per composite state** ("each composite state has
  a reference to a C++ class that implements the submachine", §III.C),
  generated recursively, holding its own state enum/variable, its nested
  switch, and an ``owner`` pointer back to the root machine for attribute
  access;
* exit/effect/entry sequences are **inlined into every transition arm**
  — the duplication characteristic of this pattern (and the reason the
  paper's nested-switch code is large);
* completion transitions are evaluated by a generated ``completions``
  loop after every entry, implementing the UML priority rule.

Constraints: transitions must not cross region boundaries (UML entry/exit
points would be needed; the paper's models never do this).  Pseudostates
other than initial are not expressible in this pattern.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..cpp import ast as cpp
from ..cpp.types import INT, PointerType, ClassRefType, VOID
from ..uml.statemachine import FinalState, Region, State, StateMachine
from ..uml.transitions import Transition, TransitionKind
from .base import CodeGenerator, CodegenError, event_enumerator, instance_name
from .common import (attribute_fields, behavior_to_cpp, check_region_local,
                     dispatch_method, event_enum_decl, extern_decls, guarded,
                     init_prelude, is_final_method, wire_submachines)

__all__ = ["NestedSwitchGenerator"]


def _state_enumerator(state_name: str) -> str:
    return f"ST_{state_name}"

FINAL_ENUMERATOR = "ST_FINAL"


class _RegionPlan:
    """Everything needed to generate one machine class for one region."""

    def __init__(self, cls_name: str, region: Region, is_top: bool) -> None:
        self.cls_name = cls_name
        self.region = region
        self.is_top = is_top
        self.enum_name = f"{cls_name}_State"
        self.states: List[State] = region.states()
        self.has_final = bool(region.final_states())
        self.subplans: Dict[int, "_RegionPlan"] = {}  # state id -> plan

    @property
    def enumerators(self) -> List[str]:
        names = [_state_enumerator(s.name) for s in self.states]
        if self.has_final:
            names.append(FINAL_ENUMERATOR)
        return names


class NestedSwitchGenerator(CodeGenerator):
    """Outer switch on state, inner switch on event."""

    name = "nested-switch"
    display_name = "Nested Switch"

    def generate(self, machine: StateMachine) -> cpp.TranslationUnit:
        self.machine = machine
        check_region_local(machine, self.name)
        unit = cpp.TranslationUnit(f"{machine.name}_nested_switch")
        unit.enums.append(event_enum_decl(machine))
        unit.externs.extend(extern_decls(machine))
        self.root_cls = self.class_name(machine)
        top_plan = self._plan_region(self.root_cls, machine.regions[0], True)
        # Sub classes must be declared before the classes that point at
        # them only for layout of by-value fields; pointers are fine in
        # any order, but we emit innermost-first for readability.
        self._emit_plans_postorder(unit, top_plan)
        return unit

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _plan_region(self, cls_name: str, region: Region,
                     is_top: bool) -> _RegionPlan:
        plan = _RegionPlan(cls_name, region, is_top)
        for state in plan.states:
            if state.is_composite:
                sub_cls = f"{cls_name}_{state.name}"
                plan.subplans[state.element_id] = self._plan_region(
                    sub_cls, state.regions[0], False)
        return plan

    def _emit_plans_postorder(self, unit: cpp.TranslationUnit,
                              plan: _RegionPlan) -> None:
        for sub in plan.subplans.values():
            self._emit_plans_postorder(unit, sub)
        self._emit_machine_class(unit, plan)

    # ------------------------------------------------------------------
    # holders
    # ------------------------------------------------------------------
    def _holder(self, plan: _RegionPlan) -> Callable[[], cpp.Expr]:
        """Expression producing the attribute-holding object pointer."""
        if plan.is_top:
            return cpp.ThisExpr
        return lambda: cpp.FieldAccess(cpp.ThisExpr(), "owner")

    def _emit_event(self, plan: _RegionPlan) -> Callable[[int], cpp.Stmt]:
        holder = self._holder(plan)
        return lambda index: cpp.Assign(
            cpp.FieldAccess(holder(), "pending"), cpp.IntLit(index))

    # ------------------------------------------------------------------
    # class emission
    # ------------------------------------------------------------------
    def _emit_machine_class(self, unit: cpp.TranslationUnit,
                            plan: _RegionPlan) -> None:
        unit.enums.append(cpp.EnumDecl(plan.enum_name, plan.enumerators))
        cls = cpp.ClassDecl(plan.cls_name)
        cls.fields.append(cpp.Field("state", INT))
        if plan.is_top:
            cls.fields.append(cpp.Field("pending", INT))
            cls.fields.extend(attribute_fields(self.machine))
        else:
            cls.fields.append(cpp.Field("done", INT))
            cls.fields.append(cpp.Field(
                "owner", PointerType(ClassRefType(self.root_cls))))
        for state in plan.states:
            if state.is_composite:
                sub_cls = plan.subplans[state.element_id].cls_name
                cls.fields.append(cpp.Field(
                    f"sub_{state.name}", PointerType(ClassRefType(sub_cls))))
        if plan.is_top:
            cls.methods.append(self._gen_init(plan))
            cls.methods.append(dispatch_method(
                lambda ev: cpp.MethodCall(cpp.ThisExpr(), plan.cls_name,
                                          "step", (ev,))))
            cls.methods.append(self._gen_step(plan))
            cls.methods.append(self._gen_completions(plan))
            cls.methods.append(is_final_method(
                cpp.Binary("==", cpp.FieldAccess(cpp.ThisExpr(), "state"),
                           cpp.EnumRef(plan.enum_name, FINAL_ENUMERATOR))
                if plan.has_final else None))
        else:
            cls.methods.append(self._gen_reset(plan))
            cls.methods.append(self._gen_step(plan))
            cls.methods.append(self._gen_completions(plan))
            cls.methods.append(self._gen_exit_all(plan))
        unit.classes.append(cls)
        # One global instance per submachine; the root instance is the
        # user's to define, but we emit one for benchmarks/examples.
        unit.globals.append(cpp.GlobalVar(
            instance_name(plan.cls_name), ClassRefType(plan.cls_name)))

    # -- sequences ---------------------------------------------------------
    def _entry_stmts(self, plan: _RegionPlan, state: State,
                     body: cpp.Block) -> None:
        holder = self._holder(plan)
        for stmt in behavior_to_cpp(state.entry, holder,
                                    self._emit_event(plan), self.machine):
            body.add(stmt)
        for stmt in behavior_to_cpp(state.do_activity, holder,
                                    self._emit_event(plan), self.machine):
            body.add(stmt)
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "state"),
                            cpp.EnumRef(plan.enum_name,
                                        _state_enumerator(state.name))))
        if state.is_composite:
            body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.FieldAccess(cpp.ThisExpr(), f"sub_{state.name}"),
                plan.subplans[state.element_id].cls_name, "reset")))

    def _exit_stmts(self, plan: _RegionPlan, state: State,
                    body: cpp.Block) -> None:
        if state.is_composite:
            body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.FieldAccess(cpp.ThisExpr(), f"sub_{state.name}"),
                plan.subplans[state.element_id].cls_name, "exit_all")))
        holder = self._holder(plan)
        for stmt in behavior_to_cpp(state.exit, holder,
                                    self._emit_event(plan), self.machine):
            body.add(stmt)

    def _effect_stmts(self, plan: _RegionPlan, tr: Transition,
                      body: cpp.Block) -> None:
        for stmt in behavior_to_cpp(tr.effect, self._holder(plan),
                                    self._emit_event(plan), self.machine):
            body.add(stmt)

    def _enter_target(self, plan: _RegionPlan, tr: Transition,
                      body: cpp.Block) -> None:
        target = tr.target
        if isinstance(target, State):
            self._entry_stmts(plan, target, body)
        elif isinstance(target, FinalState):
            body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "state"),
                                cpp.EnumRef(plan.enum_name,
                                            FINAL_ENUMERATOR)))
            if not plan.is_top:
                body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "done"),
                                    cpp.IntLit(1)))
        else:  # pragma: no cover - rejected by check_region_local
            raise CodegenError(f"cannot enter {target!r}")

    def _transition_arm(self, plan: _RegionPlan, source: State,
                        tr: Transition, body: cpp.Block,
                        completions_after: bool) -> None:
        """Inline exit/effect/entry of one transition into *body*."""
        if tr.kind is TransitionKind.INTERNAL:
            self._effect_stmts(plan, tr, body)
            return
        self._exit_stmts(plan, source, body)
        self._effect_stmts(plan, tr, body)
        self._enter_target(plan, tr, body)
        if completions_after:
            body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.ThisExpr(), plan.cls_name, "completions")))

    # -- methods -------------------------------------------------------------
    def _gen_init(self, plan: _RegionPlan) -> cpp.Method:
        body = init_prelude(self.machine)
        wire_submachines(plan, body, cpp.ThisExpr())
        initial = plan.region.initial
        if initial is None:
            raise CodegenError("top region has no initial pseudostate")
        arc = initial.outgoing()[0]
        self._effect_stmts(plan, arc, body)
        self._enter_target(plan, arc, body)
        body.add(cpp.ExprStmt(cpp.MethodCall(cpp.ThisExpr(), plan.cls_name,
                                             "completions")))
        return cpp.Method("init", [], VOID, body)

    def _gen_step(self, plan: _RegionPlan) -> cpp.Method:
        outer = cpp.Switch(cpp.FieldAccess(cpp.ThisExpr(), "state"))
        for state in plan.states:
            arm = cpp.SwitchCase([cpp.EnumRef(plan.enum_name,
                                              _state_enumerator(state.name))])
            if state.is_composite:
                sub = plan.subplans[state.element_id]
                handled = cpp.If(
                    cpp.MethodCall(
                        cpp.FieldAccess(cpp.ThisExpr(), f"sub_{state.name}"),
                        sub.cls_name, "step", (cpp.Var("ev"),)),
                    cpp.Block([
                        cpp.If(cpp.FieldAccess(
                            cpp.FieldAccess(cpp.ThisExpr(),
                                            f"sub_{state.name}"), "done"),
                            cpp.Block([cpp.ExprStmt(cpp.MethodCall(
                                cpp.ThisExpr(), plan.cls_name,
                                "completions"))])),
                        cpp.Return(cpp.IntLit(1)),
                    ]))
                arm.body.add(handled)
            inner = cpp.Switch(cpp.Var("ev"))
            by_event: Dict[str, List[Transition]] = {}
            for tr in state.event_transitions():
                for trig in tr.triggers:
                    by_event.setdefault(trig.name, []).append(tr)
            for event_name, trs in by_event.items():
                case = cpp.SwitchCase([cpp.EnumRef(
                    "Event", event_enumerator(event_name))])
                for tr in trs:
                    fire = cpp.Block()
                    self._transition_arm(plan, state, tr, fire,
                                         completions_after=True)
                    fire.add(cpp.Return(cpp.IntLit(1)))
                    case.body.add(guarded(fire, tr.guard,
                                          self._holder(plan)))
                inner.cases.append(case)
            if inner.cases:
                arm.body.add(inner)
            outer.cases.append(arm)
        if plan.has_final:
            final_arm = cpp.SwitchCase([cpp.EnumRef(plan.enum_name,
                                                    FINAL_ENUMERATOR)])
            outer.cases.append(final_arm)
        body = cpp.Block([outer, cpp.Return(cpp.IntLit(0))])
        return cpp.Method("step", [cpp.Param("ev", INT)], INT, body)

    def _gen_completions(self, plan: _RegionPlan) -> cpp.Method:
        """``while (again) switch (state) { ... }`` over the states that
        own completion transitions."""
        body = cpp.Block()
        body.add(cpp.VarDecl("again", INT, cpp.IntLit(1)))
        loop = cpp.While(cpp.Var("again"))
        loop.body.add(cpp.Assign(cpp.Var("again"), cpp.IntLit(0)))
        sw = cpp.Switch(cpp.FieldAccess(cpp.ThisExpr(), "state"))
        for state in plan.states:
            completions = [t for t in state.completion_transitions()
                           if t.source.container is plan.region]
            if not completions:
                continue
            arm = cpp.SwitchCase([cpp.EnumRef(plan.enum_name,
                                              _state_enumerator(state.name))])
            for tr in completions:
                fire = cpp.Block()
                self._transition_arm(plan, state, tr, fire,
                                     completions_after=False)
                fire.add(cpp.Assign(cpp.Var("again"), cpp.IntLit(1)))
                # A composite completes only when its region is done.
                sub_done = cpp.FieldAccess(
                    cpp.FieldAccess(cpp.ThisExpr(), f"sub_{state.name}"),
                    "done") if state.is_composite else None
                arm.body.add(guarded(fire, tr.guard, self._holder(plan),
                                     sub_done))
            sw.cases.append(arm)
        if sw.cases:
            loop.body.add(sw)
            body.add(loop)
        return cpp.Method("completions", [], VOID, body)

    # -- submachine-only methods ----------------------------------------------
    def _gen_reset(self, plan: _RegionPlan) -> cpp.Method:
        body = cpp.Block()
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "done"),
                            cpp.IntLit(0)))
        arc = plan.region.initial.outgoing()[0]
        self._effect_stmts(plan, arc, body)
        self._enter_target(plan, arc, body)
        body.add(cpp.ExprStmt(cpp.MethodCall(
            cpp.ThisExpr(), plan.cls_name, "completions")))
        return cpp.Method("reset", [], VOID, body)

    def _gen_exit_all(self, plan: _RegionPlan) -> cpp.Method:
        sw = cpp.Switch(cpp.FieldAccess(cpp.ThisExpr(), "state"))
        for state in plan.states:
            arm = cpp.SwitchCase([cpp.EnumRef(plan.enum_name,
                                              _state_enumerator(state.name))])
            self._exit_stmts(plan, state, arm.body)
            sw.cases.append(arm)
        return cpp.Method("exit_all", [], VOID, cpp.Block([sw]))
