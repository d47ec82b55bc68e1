"""State Pattern generator (Gamma et al., the paper's reference [8]).

"Each state is implemented as a whole class" (§III.B).  Generated shape
for machine ``M``:

* abstract base ``M_State`` with virtual ``handle(M*, int ev) -> int``,
  ``entry(M*)``, ``exit_(M*)`` and ``completion(M*) -> int``;
* one concrete class per state overriding those methods, plus one global
  singleton instance per class (embedded style: no heap);
* the machine class ``M`` holds ``M_State* current`` plus the context
  attributes and delegates: ``dispatch`` → ``current->handle`` through
  the vtable;
* completion transitions live in each state's ``completion`` override;
  the machine loops ``while (current->completion(this))`` after entries —
  UML completion priority;
* **composite states** get a submachine: their class carries a reference
  to a nested machine object with its own state classes ("each composite
  state has a reference to a C++ class that implements the submachine"),
  delegating events inner-first.

Every handler is reachable through a vtable, so MGCC (like GCC) must keep
all of them: address-taken functions are roots for dead-code elimination.
This is why the paper's biggest optimization rate (52.5 %) appears in
this pattern — only the model level can delete a state class.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..cpp import ast as cpp
from ..cpp.types import INT, PointerType, ClassRefType, VOID
from ..uml.statemachine import FinalState, Region, State, StateMachine
from ..uml.transitions import Transition, TransitionKind
from .base import CodeGenerator, event_enumerator, instance_name
from .common import (attribute_fields, behavior_to_cpp, check_region_local,
                     dispatch_method, event_enum_decl, extern_decls, guarded,
                     init_prelude, is_final_method, wire_submachines)

__all__ = ["StatePatternGenerator"]


class _MachinePlan:
    """One machine class + its state classes, for one region."""

    def __init__(self, cls_name: str, region: Region, is_top: bool) -> None:
        self.cls_name = cls_name
        self.region = region
        self.is_top = is_top
        self.base_cls = f"{cls_name}_State"
        self.states: List[State] = region.states()
        self.has_final = bool(region.final_states())
        self.subplans: Dict[int, "_MachinePlan"] = {}

    def state_cls(self, state: State) -> str:
        return f"{self.cls_name}_{state.name}"

    @property
    def final_cls(self) -> str:
        return f"{self.cls_name}_Final"


class StatePatternGenerator(CodeGenerator):
    """One class per state, virtual dispatch through a vtable."""

    name = "state-pattern"
    display_name = "State Pattern"

    def generate(self, machine: StateMachine) -> cpp.TranslationUnit:
        self.machine = machine
        check_region_local(machine, self.name)
        unit = cpp.TranslationUnit(f"{machine.name}_state_pattern")
        unit.enums.append(event_enum_decl(machine))
        unit.externs.extend(extern_decls(machine))
        self.root_cls = self.class_name(machine)
        top_plan = self._plan(self.root_cls, machine.regions[0], True)
        self._emit_postorder(unit, top_plan)
        return unit

    def _plan(self, cls_name: str, region: Region,
              is_top: bool) -> _MachinePlan:
        plan = _MachinePlan(cls_name, region, is_top)
        for state in plan.states:
            if state.is_composite:
                plan.subplans[state.element_id] = self._plan(
                    f"{cls_name}_{state.name}Sub", state.regions[0], False)
        return plan

    def _emit_postorder(self, unit: cpp.TranslationUnit,
                        plan: _MachinePlan) -> None:
        for sub in plan.subplans.values():
            self._emit_postorder(unit, sub)
        self._emit_plan(unit, plan)

    # ------------------------------------------------------------------
    def _holder(self, plan: _MachinePlan) -> Callable[[], cpp.Expr]:
        """Attribute holder inside *state-class* methods: parameter ``m``
        (top machine) or ``m->owner`` (submachine)."""
        if plan.is_top:
            return lambda: cpp.Var("m")
        return lambda: cpp.FieldAccess(cpp.Var("m"), "owner")

    def _emit_event(self, plan: _MachinePlan) -> Callable[[int], cpp.Stmt]:
        holder = self._holder(plan)
        return lambda index: cpp.Assign(
            cpp.FieldAccess(holder(), "pending"), cpp.IntLit(index))

    def _machine_ptr(self, plan: _MachinePlan):
        return PointerType(ClassRefType(plan.cls_name))

    # ------------------------------------------------------------------
    def _emit_plan(self, unit: cpp.TranslationUnit,
                   plan: _MachinePlan) -> None:
        self._emit_state_base(unit, plan)
        for state in plan.states:
            self._emit_state_class(unit, plan, state)
        if plan.has_final:
            self._emit_final_class(unit, plan)
        self._emit_machine_class(unit, plan)

    def _emit_state_base(self, unit: cpp.TranslationUnit,
                         plan: _MachinePlan) -> None:
        base = cpp.ClassDecl(plan.base_cls)
        m = cpp.Param("m", self._machine_ptr(plan))
        # Default implementations: unhandled event, no actions, never
        # completes.  Concrete states override what they use.
        base.methods.append(cpp.Method(
            "handle", [m, cpp.Param("ev", INT)], INT,
            cpp.Block([cpp.Return(cpp.IntLit(0))]), is_virtual=True))
        base.methods.append(cpp.Method(
            "entry", [m], VOID, cpp.Block(), is_virtual=True))
        base.methods.append(cpp.Method(
            "exit_", [m], VOID, cpp.Block(), is_virtual=True))
        base.methods.append(cpp.Method(
            "completion", [m], INT,
            cpp.Block([cpp.Return(cpp.IntLit(0))]), is_virtual=True))
        unit.classes.append(base)

    # -- transition bodies --------------------------------------------------
    def _set_state(self, plan: _MachinePlan, target_cls: str,
                   body: cpp.Block) -> None:
        body.add(cpp.Assign(
            cpp.FieldAccess(cpp.Var("m"), "current"),
            cpp.Cast(PointerType(ClassRefType(plan.base_cls)),
                     cpp.AddrOf(cpp.Var(instance_name(target_cls))))))

    def _transition_body(self, plan: _MachinePlan, source: State,
                         tr: Transition) -> cpp.Block:
        """exit; effect; retarget; entry; completions — inlined."""
        body = cpp.Block()
        holder = self._holder(plan)
        emit = self._emit_event(plan)
        if tr.kind is TransitionKind.INTERNAL:
            for stmt in behavior_to_cpp(tr.effect, holder, emit,
                                        self.machine):
                body.add(stmt)
            body.add(cpp.Return(cpp.IntLit(1)))
            return body
        # exit self (virtual not needed: we are inside the class)
        body.add(cpp.ExprStmt(cpp.MethodCall(
            cpp.FieldAccess(cpp.Var("m"), "current"), plan.base_cls,
            "exit_", (cpp.Var("m"),), virtual_dispatch=True)))
        for stmt in behavior_to_cpp(tr.effect, holder, emit, self.machine):
            body.add(stmt)
        target = tr.target
        if isinstance(target, State):
            target_cls = plan.state_cls(target)
            self._set_state(plan, target_cls, body)
            body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.FieldAccess(cpp.Var("m"), "current"), plan.base_cls,
                "entry", (cpp.Var("m"),), virtual_dispatch=True)))
        elif isinstance(target, FinalState):
            self._set_state(plan, plan.final_cls, body)
            if not plan.is_top:
                body.add(cpp.Assign(cpp.FieldAccess(cpp.Var("m"), "done"),
                                    cpp.IntLit(1)))
        body.add(cpp.ExprStmt(cpp.MethodCall(
            cpp.Var("m"), plan.cls_name, "run_completions")))
        body.add(cpp.Return(cpp.IntLit(1)))
        return body

    # -- state classes --------------------------------------------------------
    def _emit_state_class(self, unit: cpp.TranslationUnit,
                          plan: _MachinePlan, state: State) -> None:
        cls = cpp.ClassDecl(plan.state_cls(state), base=plan.base_cls)
        m = cpp.Param("m", self._machine_ptr(plan))
        holder = self._holder(plan)
        emit = self._emit_event(plan)

        # entry(): entry actions (+ submachine reset for composites).
        entry_body = cpp.Block()
        for stmt in behavior_to_cpp(state.entry, holder, emit, self.machine):
            entry_body.add(stmt)
        for stmt in behavior_to_cpp(state.do_activity, holder, emit,
                                    self.machine):
            entry_body.add(stmt)
        if state.is_composite:
            sub = plan.subplans[state.element_id]
            entry_body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.FieldAccess(cpp.Var("m"), f"sub_{state.name}"),
                sub.cls_name, "reset")))
        if entry_body.statements:
            cls.methods.append(cpp.Method("entry", [m], VOID, entry_body,
                                          is_virtual=True, is_override=True))

        # exit_(): submachine unwind + exit actions.
        exit_body = cpp.Block()
        if state.is_composite:
            sub = plan.subplans[state.element_id]
            exit_body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.FieldAccess(cpp.Var("m"), f"sub_{state.name}"),
                sub.cls_name, "exit_current")))
        for stmt in behavior_to_cpp(state.exit, holder, emit, self.machine):
            exit_body.add(stmt)
        if exit_body.statements:
            cls.methods.append(cpp.Method("exit_", [m], VOID, exit_body,
                                          is_virtual=True, is_override=True))

        # handle(): composite delegates inner-first, then own switch.
        handle_body = cpp.Block()
        if state.is_composite:
            sub = plan.subplans[state.element_id]
            handled = cpp.If(
                cpp.MethodCall(cpp.FieldAccess(cpp.Var("m"),
                                               f"sub_{state.name}"),
                               sub.cls_name, "dispatch", (cpp.Var("ev"),)),
                cpp.Block([
                    cpp.If(cpp.FieldAccess(
                        cpp.FieldAccess(cpp.Var("m"), f"sub_{state.name}"),
                        "done"),
                        cpp.Block([cpp.ExprStmt(cpp.MethodCall(
                            cpp.Var("m"), plan.cls_name,
                            "run_completions"))])),
                    cpp.Return(cpp.IntLit(1)),
                ]))
            handle_body.add(handled)
        by_event: Dict[str, List[Transition]] = {}
        for tr in state.event_transitions():
            for trig in tr.triggers:
                by_event.setdefault(trig.name, []).append(tr)
        if by_event:
            sw = cpp.Switch(cpp.Var("ev"))
            for event_name, trs in by_event.items():
                case = cpp.SwitchCase([cpp.EnumRef(
                    "Event", event_enumerator(event_name))])
                for tr in trs:
                    case.body.add(guarded(
                        self._transition_body(plan, state, tr), tr.guard,
                        holder))
                sw.cases.append(case)
            handle_body.add(sw)
        handle_body.add(cpp.Return(cpp.IntLit(0)))
        cls.methods.append(cpp.Method(
            "handle", [m, cpp.Param("ev", INT)], INT, handle_body,
            is_virtual=True, is_override=True))

        # completion(): fires this state's completion transitions.
        completions = state.completion_transitions()
        if completions:
            comp_body = cpp.Block()
            for tr in completions:
                sub_done = cpp.FieldAccess(
                    cpp.FieldAccess(cpp.Var("m"), f"sub_{state.name}"),
                    "done") if state.is_composite else None
                comp_body.add(guarded(self._transition_body(plan, state, tr),
                                      tr.guard, holder, sub_done))
            comp_body.add(cpp.Return(cpp.IntLit(0)))
            cls.methods.append(cpp.Method(
                "completion", [m], INT, comp_body,
                is_virtual=True, is_override=True))
        unit.classes.append(cls)
        unit.globals.append(cpp.GlobalVar(
            instance_name(cls.name), ClassRefType(cls.name)))

    def _emit_final_class(self, unit: cpp.TranslationUnit,
                          plan: _MachinePlan) -> None:
        cls = cpp.ClassDecl(plan.final_cls, base=plan.base_cls)
        unit.classes.append(cls)
        unit.globals.append(cpp.GlobalVar(
            instance_name(cls.name), ClassRefType(cls.name)))

    # -- machine class ----------------------------------------------------------
    def _emit_machine_class(self, unit: cpp.TranslationUnit,
                            plan: _MachinePlan) -> None:
        cls = cpp.ClassDecl(plan.cls_name)
        cls.fields.append(cpp.Field(
            "current", PointerType(ClassRefType(plan.base_cls))))
        if plan.is_top:
            cls.fields.append(cpp.Field("pending", INT))
            cls.fields.extend(attribute_fields(self.machine))
        else:
            cls.fields.append(cpp.Field("done", INT))
            cls.fields.append(cpp.Field(
                "owner", PointerType(ClassRefType(self.root_cls))))
        for state in plan.states:
            if state.is_composite:
                sub = plan.subplans[state.element_id]
                cls.fields.append(cpp.Field(
                    f"sub_{state.name}",
                    PointerType(ClassRefType(sub.cls_name))))

        if plan.is_top:
            cls.methods.append(self._gen_init(plan))
            cls.methods.append(dispatch_method(
                lambda ev: cpp.MethodCall(
                    cpp.FieldAccess(cpp.ThisExpr(), "current"),
                    plan.base_cls, "handle", (cpp.ThisExpr(), ev),
                    virtual_dispatch=True)))
            cls.methods.append(is_final_method(cpp.Binary(
                "==",
                cpp.Cast(INT, cpp.FieldAccess(cpp.ThisExpr(), "current")),
                cpp.Cast(INT, cpp.AddrOf(cpp.Var(instance_name(
                    plan.final_cls))))) if plan.has_final else None))
        else:
            cls.methods.append(self._gen_reset(plan))
            cls.methods.append(self._gen_sub_dispatch(plan))
            cls.methods.append(self._gen_exit_current(plan))
        cls.methods.append(self._gen_run_completions(plan))
        unit.classes.append(cls)
        unit.globals.append(cpp.GlobalVar(
            instance_name(plan.cls_name), ClassRefType(plan.cls_name)))

    def _initial_entry(self, plan: _MachinePlan, body: cpp.Block,
                       self_expr: Callable[[], cpp.Expr]) -> None:
        initial = plan.region.initial
        if initial is None:     # the top region (composites have one)
            return
        arc = initial.outgoing()[0]
        holder = (cpp.ThisExpr if plan.is_top
                  else (lambda: cpp.FieldAccess(cpp.ThisExpr(), "owner")))
        for stmt in behavior_to_cpp(arc.effect, holder,
                                    None, self.machine):
            body.add(stmt)
        target = arc.target
        if isinstance(target, State):
            target_cls = plan.state_cls(target)
            body.add(cpp.Assign(
                cpp.FieldAccess(cpp.ThisExpr(), "current"),
                cpp.Cast(PointerType(ClassRefType(plan.base_cls)),
                         cpp.AddrOf(cpp.Var(instance_name(target_cls))))))
            body.add(cpp.ExprStmt(cpp.MethodCall(
                cpp.FieldAccess(cpp.ThisExpr(), "current"), plan.base_cls,
                "entry", (self_expr(),), virtual_dispatch=True)))
        elif isinstance(target, FinalState):
            body.add(cpp.Assign(
                cpp.FieldAccess(cpp.ThisExpr(), "current"),
                cpp.Cast(PointerType(ClassRefType(plan.base_cls)),
                         cpp.AddrOf(cpp.Var(instance_name(plan.final_cls))))))
            if not plan.is_top:
                body.add(cpp.Assign(
                    cpp.FieldAccess(cpp.ThisExpr(), "done"), cpp.IntLit(1)))
        body.add(cpp.ExprStmt(cpp.MethodCall(
            cpp.ThisExpr(), plan.cls_name, "run_completions")))

    def _gen_init(self, plan: _MachinePlan) -> cpp.Method:
        body = init_prelude(self.machine)
        wire_submachines(plan, body, cpp.ThisExpr())
        self._initial_entry(plan, body, cpp.ThisExpr)
        return cpp.Method("init", [], VOID, body)

    def _gen_sub_dispatch(self, plan: _MachinePlan) -> cpp.Method:
        body = cpp.Block([cpp.Return(cpp.MethodCall(
            cpp.FieldAccess(cpp.ThisExpr(), "current"), plan.base_cls,
            "handle", (cpp.ThisExpr(), cpp.Var("ev")),
            virtual_dispatch=True))])
        return cpp.Method("dispatch", [cpp.Param("ev", INT)], INT, body)

    def _gen_run_completions(self, plan: _MachinePlan) -> cpp.Method:
        body = cpp.Block()
        loop = cpp.While(cpp.MethodCall(
            cpp.FieldAccess(cpp.ThisExpr(), "current"), plan.base_cls,
            "completion", (cpp.ThisExpr(),), virtual_dispatch=True))
        loop.body = cpp.Block()
        body.add(loop)
        return cpp.Method("run_completions", [], VOID, body)

    def _gen_reset(self, plan: _MachinePlan) -> cpp.Method:
        body = cpp.Block()
        body.add(cpp.Assign(cpp.FieldAccess(cpp.ThisExpr(), "done"),
                            cpp.IntLit(0)))
        self._initial_entry(plan, body, cpp.ThisExpr)
        return cpp.Method("reset", [], VOID, body)

    def _gen_exit_current(self, plan: _MachinePlan) -> cpp.Method:
        body = cpp.Block([cpp.ExprStmt(cpp.MethodCall(
            cpp.FieldAccess(cpp.ThisExpr(), "current"), plan.base_cls,
            "exit_", (cpp.ThisExpr(),), virtual_dispatch=True))])
        return cpp.Method("exit_current", [], VOID, body)
