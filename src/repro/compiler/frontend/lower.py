"""MGCC frontend: C++ subset AST -> GIMPLE.

The lowering performs what the GCC C++ frontend + gimplifier do for the
constructs generated state-machine code uses:

* **class layout** — single inheritance, word-sized fields, a vptr in
  slot 0 of any class with virtual methods;
* **vtables** — one rodata object per dynamic class, slots resolved to
  the most-derived override;
* **methods** — lowered to free functions with an explicit ``this``
  parameter (mangled ``Class::method``);
* **virtual calls** — vptr load, slot load, indirect call: the pattern
  that makes every state-pattern handler address-taken and therefore
  invisible to compiler dead-code elimination (paper §III);
* **switch** — kept as a GIMPLE switch terminator for the backend to
  lower (jump table vs. compare chain);
* **short-circuit** ``&&``/``||`` — lowered to control flow;
* **globals** — statically initialized word images (transition tables,
  vtable-pointing state singletons, context objects).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...cpp import ast as cpp
from ...cpp.types import (ArrayType, BoolType, ClassRefType, EnumType, IntType,
                          PointerType, Type, VoidType)
from ..gimple.ir import (BasicBlock, BinOp, Branch, Call, CallIndirect, Const,
                         DataObject, GimpleFunction, Jump, Load, LoadAddr,
                         LoadGlobal, Move, Operand, Program, Reg, Ret, Store,
                         StoreGlobal, SwitchTerm, SymbolRef, UnOp)

__all__ = ["LoweringError", "ClassLayout", "lower_unit", "mangle"]

WORD = 4


class LoweringError(Exception):
    """Raised when the frontend meets an unsupported construct."""


def mangle(class_name: str, method: str) -> str:
    return f"{class_name}::{method}"


class ClassLayout:
    """Field offsets, size and vtable layout of one class."""

    def __init__(self, decl: cpp.ClassDecl,
                 base: Optional["ClassLayout"]) -> None:
        self.decl = decl
        self.base = base
        self.name = decl.name
        self.field_offsets: Dict[str, int] = dict(base.field_offsets) \
            if base else {}
        self.has_vtable = (base.has_vtable if base else False) or \
            any(m.is_virtual for m in decl.methods)
        offset = base.size if base else (WORD if self.has_vtable else 0)
        if base and self.has_vtable and not base.has_vtable:
            raise LoweringError(
                f"{decl.name}: introducing virtuals below a non-dynamic "
                "base is unsupported")
        if not base and self.has_vtable:
            offset = WORD  # vptr occupies slot 0
        for fld in decl.fields:
            self.field_offsets[fld.name] = offset
            offset += WORD  # every field is word-sized in the subset
        self.size = max(offset, WORD)
        # vtable slots: base slots first, then newly introduced virtuals;
        # overrides replace the inherited slot's implementation.
        self.vtable_slots: List[str] = list(base.vtable_slots) if base else []
        self.vtable_impl: Dict[str, str] = dict(base.vtable_impl) \
            if base else {}
        for method in decl.methods:
            if method.is_virtual or (base and method.name in self.vtable_impl):
                if method.name not in self.vtable_slots:
                    self.vtable_slots.append(method.name)
                if method.body is not None:
                    self.vtable_impl[method.name] = mangle(decl.name,
                                                           method.name)

    def offset_of(self, field_name: str) -> int:
        try:
            return self.field_offsets[field_name]
        except KeyError:
            raise LoweringError(
                f"class {self.name} has no field {field_name!r}") from None

    def slot_of(self, method_name: str) -> int:
        try:
            return self.vtable_slots.index(method_name)
        except ValueError:
            raise LoweringError(
                f"class {self.name} has no virtual slot {method_name!r}"
            ) from None

    def find_method(self, name: str) -> Tuple[str, cpp.Method]:
        """Resolve a (possibly inherited) method to (defining class, decl)."""
        layout: Optional[ClassLayout] = self
        while layout is not None:
            for method in layout.decl.methods:
                if method.name == name and method.body is not None:
                    return layout.name, method
            layout = layout.base
        raise LoweringError(f"no implementation of {self.name}.{name}")

    @property
    def vtable_symbol(self) -> str:
        return f"vtbl.{self.name}"


class _UnitContext:
    """Shared lowering context: layouts, enums, globals, functions."""

    def __init__(self, unit: cpp.TranslationUnit) -> None:
        self.unit = unit
        self.layouts: Dict[str, ClassLayout] = {}
        for decl in unit.classes:
            base = self.layouts.get(decl.base) if decl.base else None
            if decl.base and base is None:
                raise LoweringError(
                    f"class {decl.name}: unknown base {decl.base!r} "
                    "(classes must be declared before use)")
            self.layouts[decl.name] = ClassLayout(decl, base)
        self.enum_values: Dict[Tuple[str, str], int] = {}
        for enum in unit.enums:
            for i, enumerator in enumerate(enum.enumerators):
                self.enum_values[(enum.name, enumerator)] = i
        self.global_types: Dict[str, Type] = {
            gv.name: gv.var_type for gv in unit.globals}
        self.function_rets: Dict[str, Type] = {}
        for ext in unit.externs:
            self.function_rets[ext.name] = ext.ret
        for fn in unit.functions:
            self.function_rets[fn.name] = fn.ret
        for decl in unit.classes:
            for method in decl.methods:
                self.function_rets[mangle(decl.name, method.name)] = method.ret

    def layout(self, class_name: str) -> ClassLayout:
        try:
            return self.layouts[class_name]
        except KeyError:
            raise LoweringError(f"unknown class {class_name!r}") from None

    def enum_value(self, ref: cpp.EnumRef) -> int:
        try:
            return self.enum_values[(ref.enum_name, ref.enumerator)]
        except KeyError:
            raise LoweringError(
                f"unknown enumerator {ref.enum_name}::{ref.enumerator}"
            ) from None


class _FunctionLowerer:
    """Lowers one function/method body."""

    def __init__(self, ctx: _UnitContext, name: str,
                 params: List[cpp.Param], body: cpp.Block,
                 this_class: Optional[str] = None) -> None:
        self.ctx = ctx
        self.this_class = this_class
        self.fn = GimpleFunction(name)
        self.var_regs: Dict[str, Reg] = {}
        self.var_types: Dict[str, Type] = {}
        self.break_targets: List[str] = []
        if this_class is not None:
            this_reg = Reg("this")
            self.fn.params.append(this_reg)
            self.var_regs["this"] = this_reg
            self.var_types["this"] = PointerType(ClassRefType(this_class))
        for param in params:
            reg = Reg(param.name)
            self.fn.params.append(reg)
            self.var_regs[param.name] = reg
            self.var_types[param.name] = param.param_type
        self.block = self.fn.new_block("entry")
        self.body = body

    # ------------------------------------------------------------------
    def run(self) -> GimpleFunction:
        self.lower_block(self.body)
        if self.block.terminator is None:
            self.block.terminator = Ret()
        # Any other unterminated block (e.g. after break) falls to ret.
        for block in self.fn.blocks.values():
            if block.terminator is None:
                block.terminator = Ret()
        return self.fn

    def _start_block(self, hint: str) -> BasicBlock:
        block = self.fn.new_block(hint)
        return block

    def _seal(self, terminator) -> None:
        if self.block.terminator is None:
            self.block.terminator = terminator

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------
    def type_of(self, expr: cpp.Expr) -> Optional[Type]:
        if isinstance(expr, cpp.Var):
            if expr.name in self.var_types:
                return self.var_types[expr.name]
            return self.ctx.global_types.get(expr.name)
        if isinstance(expr, cpp.ThisExpr):
            return self.var_types.get("this")
        if isinstance(expr, cpp.FieldAccess):
            layout, _ = self._field_target(expr)
            field_type = self._field_type(layout, expr.field_name)
            return field_type
        if isinstance(expr, cpp.Index):
            array_type = self.type_of(expr.array)
            if isinstance(array_type, ArrayType):
                return array_type.element
            if isinstance(array_type, PointerType):
                return array_type.pointee
            return None
        if isinstance(expr, cpp.AddrOf):
            inner = self.type_of(expr.operand)
            return PointerType(inner) if inner is not None else None
        if isinstance(expr, cpp.Call):
            return self.ctx.function_rets.get(expr.func)
        if isinstance(expr, cpp.MethodCall):
            layout = self._object_layout(expr.obj, expr.class_name)
            _, method = layout.find_method(expr.method)
            return method.ret
        if isinstance(expr, cpp.Cast):
            return expr.to
        if isinstance(expr, (cpp.IntLit, cpp.Binary, cpp.Unary)):
            return IntType()
        if isinstance(expr, cpp.BoolLit):
            return BoolType()
        if isinstance(expr, cpp.EnumRef):
            return EnumType(expr.enum_name)
        return None

    def _field_type(self, layout: ClassLayout, field_name: str) -> Type:
        probe: Optional[ClassLayout] = layout
        while probe is not None:
            for fld in probe.decl.fields:
                if fld.name == field_name:
                    return fld.field_type
            probe = probe.base
        raise LoweringError(
            f"class {layout.name} has no field {field_name!r}")

    def _object_layout(self, obj: cpp.Expr,
                       declared: Optional[str] = None) -> ClassLayout:
        if declared:
            return self.ctx.layout(declared)
        obj_type = self.type_of(obj)
        if isinstance(obj_type, PointerType) and \
                isinstance(obj_type.pointee, ClassRefType):
            return self.ctx.layout(obj_type.pointee.name)
        if isinstance(obj_type, ClassRefType):
            # Class-typed globals decay to their address, so ``g.field``
            # behaves like ``(&g)->field``.
            return self.ctx.layout(obj_type.name)
        raise LoweringError(f"cannot infer class of object {obj!r}")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def lower_expr(self, expr: cpp.Expr) -> Operand:
        if isinstance(expr, cpp.IntLit):
            return expr.value
        if isinstance(expr, cpp.BoolLit):
            return 1 if expr.value else 0
        if isinstance(expr, cpp.NullPtr):
            return 0
        if isinstance(expr, cpp.EnumRef):
            return self.ctx.enum_value(expr)
        if isinstance(expr, cpp.ThisExpr):
            return self.var_regs["this"]
        if isinstance(expr, cpp.Var):
            if expr.name in self.var_regs:
                return self.var_regs[expr.name]
            if expr.name in self.ctx.global_types:
                gtype = self.ctx.global_types[expr.name]
                if isinstance(gtype, (ArrayType, ClassRefType)):
                    # Arrays/objects decay to their address.
                    dst = self.fn.new_reg("ga")
                    self.block.add(LoadAddr(dst, expr.name))
                    return dst
                dst = self.fn.new_reg("g")
                self.block.add(LoadGlobal(dst, expr.name))
                return dst
            raise LoweringError(f"unknown variable {expr.name!r}")
        if isinstance(expr, cpp.FieldAccess):
            base, offset = self.lower_field_address(expr)
            dst = self.fn.new_reg("f")
            self.block.add(Load(dst, base, offset))
            return dst
        if isinstance(expr, cpp.Unary):
            if expr.op == "!":
                operand = self.lower_expr(expr.operand)
                dst = self.fn.new_reg("n")
                self.block.add(BinOp(dst, "==", operand, 0))
                return dst
            operand = self.lower_expr(expr.operand)
            dst = self.fn.new_reg("m")
            self.block.add(UnOp(dst, "-", _as_reg_or_int(operand)))
            return dst
        if isinstance(expr, cpp.Binary):
            if expr.op in ("&&", "||"):
                return self.lower_short_circuit(expr)
            a = self.lower_expr(expr.lhs)
            b = self.lower_expr(expr.rhs)
            dst = self.fn.new_reg("b")
            self.block.add(BinOp(dst, expr.op, a, b))
            return dst
        if isinstance(expr, cpp.Call):
            args = tuple(self.lower_expr(a) for a in expr.args)
            ret = self.ctx.function_rets.get(expr.func)
            dst = None if isinstance(ret, VoidType) or ret is None \
                else self.fn.new_reg("r")
            self.block.add(Call(dst, expr.func, args))
            return dst if dst is not None else 0
        if isinstance(expr, cpp.MethodCall):
            return self.lower_method_call(expr)
        if isinstance(expr, cpp.IndirectCall):
            target = self.lower_expr(expr.target)
            if not isinstance(target, Reg):
                raise LoweringError("indirect call target must be a value")
            args = tuple(self.lower_expr(a) for a in expr.args)
            ret = expr.signature.ret if expr.signature else IntType()
            dst = None if isinstance(ret, VoidType) else self.fn.new_reg("r")
            self.block.add(CallIndirect(dst, target, args))
            return dst if dst is not None else 0
        if isinstance(expr, cpp.Index):
            base, offset_reg, const_off = self.lower_index_address(expr)
            dst = self.fn.new_reg("e")
            if offset_reg is None:
                self.block.add(Load(dst, base, const_off))
            else:
                addr = self.fn.new_reg("ea")
                self.block.add(BinOp(addr, "+", base, offset_reg))
                self.block.add(Load(dst, addr, const_off))
            return dst
        if isinstance(expr, cpp.AddrOf):
            return self.lower_address_of(expr.operand)
        if isinstance(expr, cpp.FuncRef):
            dst = self.fn.new_reg("fp")
            self.block.add(LoadAddr(dst, expr.func))
            return dst
        if isinstance(expr, cpp.Cast):
            return self.lower_expr(expr.operand)
        raise LoweringError(f"cannot lower expression {expr!r}")

    def lower_short_circuit(self, expr: cpp.Binary) -> Reg:
        """Lower ``a && b`` / ``a || b`` via control flow."""
        result_name = self.fn.new_reg("sc").name
        rhs_block = self._start_block("sc_rhs")
        join_block = self._start_block("sc_join")
        lhs = self.lower_expr(expr.lhs)
        lhs_bool = self.fn.new_reg("scl")
        self.block.add(BinOp(lhs_bool, "!=", lhs, 0))
        result = Reg(result_name)
        self.block.add(Move(result, lhs_bool))
        if expr.op == "&&":
            self._seal(Branch(lhs_bool, rhs_block.label, join_block.label))
        else:
            self._seal(Branch(lhs_bool, join_block.label, rhs_block.label))
        self.block = rhs_block
        rhs = self.lower_expr(expr.rhs)
        rhs_bool = self.fn.new_reg("scr")
        self.block.add(BinOp(rhs_bool, "!=", rhs, 0))
        self.block.add(Move(result, rhs_bool))
        self._seal(Jump(join_block.label))
        self.block = join_block
        return result

    def lower_method_call(self, expr: cpp.MethodCall) -> Operand:
        layout = self._object_layout(expr.obj, expr.class_name)
        this_val = self.lower_expr(expr.obj)
        if not isinstance(this_val, Reg):
            raise LoweringError("method receiver must be an object pointer")
        args = tuple([this_val] +
                     [self.lower_expr(a) for a in expr.args])
        if expr.virtual_dispatch:
            slot = layout.slot_of(expr.method)
            vptr = self.fn.new_reg("vp")
            self.block.add(Load(vptr, this_val, 0))
            fnptr = self.fn.new_reg("vf")
            self.block.add(Load(fnptr, vptr, slot * WORD))
            ret_type = self.ctx.function_rets.get(
                layout.vtable_impl.get(expr.method, ""), VoidType())
            dst = None if isinstance(ret_type, VoidType) \
                else self.fn.new_reg("r")
            self.block.add(CallIndirect(dst, fnptr, args))
            return dst if dst is not None else 0
        defining_class, method_decl = layout.find_method(expr.method)
        symbol = mangle(defining_class, expr.method)
        dst = None if isinstance(method_decl.ret, VoidType) \
            else self.fn.new_reg("r")
        self.block.add(Call(dst, symbol, args))
        return dst if dst is not None else 0

    # -- addresses ----------------------------------------------------------
    def _field_target(self, expr: cpp.FieldAccess) -> Tuple[ClassLayout, cpp.Expr]:
        obj = expr.obj
        if isinstance(obj, cpp.Index):
            array_type = self.type_of(obj.array)
            if isinstance(array_type, ArrayType) and \
                    isinstance(array_type.element, ClassRefType):
                return self.ctx.layout(array_type.element.name), obj
        return self._object_layout(obj), obj

    def lower_field_address(self, expr: cpp.FieldAccess) -> Tuple[Reg, int]:
        """Compute (base register, byte offset) of a field lvalue."""
        layout, obj = self._field_target(expr)
        offset = layout.offset_of(expr.field_name)
        if isinstance(obj, cpp.Index):
            base, offset_reg, const_off = self.lower_index_address(
                obj, element_size=layout.size)
            if offset_reg is not None:
                addr = self.fn.new_reg("fa")
                self.block.add(BinOp(addr, "+", base, offset_reg))
                return addr, const_off + offset
            return base, const_off + offset
        base_val = self.lower_expr(obj)
        if not isinstance(base_val, Reg):
            raise LoweringError("field base must be a pointer value")
        return base_val, offset

    def lower_index_address(self, expr: cpp.Index, element_size: int = WORD
                            ) -> Tuple[Reg, Optional[Reg], int]:
        """Compute the address of ``array[index]``.

        Returns (base, offset_register_or_None, constant_offset).
        """
        array_type = self.type_of(expr.array)
        if isinstance(array_type, ArrayType):
            if isinstance(array_type.element, ClassRefType):
                element_size = self.ctx.layout(array_type.element.name).size
            else:
                element_size = WORD
        base_val = self.lower_expr(expr.array)
        if not isinstance(base_val, Reg):
            raise LoweringError("array base must be an address")
        index_val = self.lower_expr(expr.index)
        if isinstance(index_val, int):
            return base_val, None, index_val * element_size
        scaled = self.fn.new_reg("ix")
        self.block.add(BinOp(scaled, "*", index_val, element_size))
        return base_val, scaled, 0

    def lower_address_of(self, expr: cpp.Expr) -> Reg:
        if isinstance(expr, cpp.Var) and expr.name in self.ctx.global_types:
            dst = self.fn.new_reg("ga")
            self.block.add(LoadAddr(dst, expr.name))
            return dst
        if isinstance(expr, cpp.Index):
            base, offset_reg, const_off = self.lower_index_address(expr)
            addr = self.fn.new_reg("ad")
            if offset_reg is not None:
                self.block.add(BinOp(addr, "+", base, offset_reg))
                if const_off:
                    addr2 = self.fn.new_reg("ad")
                    self.block.add(BinOp(addr2, "+", addr, const_off))
                    return addr2
                return addr
            self.block.add(BinOp(addr, "+", base, const_off))
            return addr
        if isinstance(expr, cpp.FieldAccess):
            base, offset = self.lower_field_address(expr)
            addr = self.fn.new_reg("ad")
            self.block.add(BinOp(addr, "+", base, offset))
            return addr
        raise LoweringError(f"cannot take the address of {expr!r}")

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def lower_block(self, block: cpp.Block) -> None:
        for stmt in block.statements:
            if self.block.terminator is not None:
                return  # dead code after break/return: drop at lowering
            self.lower_stmt(stmt)

    def lower_stmt(self, stmt: cpp.Stmt) -> None:
        if isinstance(stmt, cpp.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, cpp.ExprStmt):
            self.lower_expr(stmt.expr)
        elif isinstance(stmt, cpp.Assign):
            self.lower_assign(stmt)
        elif isinstance(stmt, cpp.VarDecl):
            reg = Reg(self.fn.new_reg(stmt.name).name)
            self.var_regs[stmt.name] = reg
            self.var_types[stmt.name] = stmt.var_type
            if stmt.init is not None:
                value = self.lower_expr(stmt.init)
                self.block.add(Move(reg, value))
            else:
                self.block.add(Const(reg, 0))
        elif isinstance(stmt, cpp.If):
            self.lower_if(stmt)
        elif isinstance(stmt, cpp.While):
            self.lower_while(stmt)
        elif isinstance(stmt, cpp.Switch):
            self.lower_switch(stmt)
        elif isinstance(stmt, cpp.Break):
            if not self.break_targets:
                raise LoweringError("break outside switch/loop")
            self._seal(Jump(self.break_targets[-1]))
        elif isinstance(stmt, cpp.Return):
            value = self.lower_expr(stmt.value) \
                if stmt.value is not None else None
            self._seal(Ret(value))
        else:
            raise LoweringError(f"cannot lower statement {stmt!r}")

    def lower_assign(self, stmt: cpp.Assign) -> None:
        lhs = stmt.lhs
        if isinstance(lhs, cpp.Var):
            if lhs.name in self.var_regs:
                value = self.lower_expr(stmt.rhs)
                self.block.add(Move(self.var_regs[lhs.name], value))
                return
            if lhs.name in self.ctx.global_types:
                value = self.lower_expr(stmt.rhs)
                self.block.add(StoreGlobal(lhs.name, 0, value))
                return
            raise LoweringError(f"assignment to unknown variable "
                                f"{lhs.name!r}")
        if isinstance(lhs, cpp.FieldAccess):
            base, offset = self.lower_field_address(lhs)
            value = self.lower_expr(stmt.rhs)
            self.block.add(Store(base, offset, value))
            return
        if isinstance(lhs, cpp.Index):
            base, offset_reg, const_off = self.lower_index_address(lhs)
            value = self.lower_expr(stmt.rhs)
            if offset_reg is not None:
                addr = self.fn.new_reg("sa")
                self.block.add(BinOp(addr, "+", base, offset_reg))
                self.block.add(Store(addr, const_off, value))
            else:
                self.block.add(Store(base, const_off, value))
            return
        raise LoweringError(f"unsupported assignment target {lhs!r}")

    def lower_if(self, stmt: cpp.If) -> None:
        cond = self.lower_expr(stmt.cond)
        then_block = self._start_block("then")
        join_block = self._start_block("join")
        else_label = join_block.label
        if stmt.else_body is not None:
            else_block = self._start_block("else")
            else_label = else_block.label
        self._seal(Branch(_bool_operand(self, cond), then_block.label,
                          else_label))
        self.block = then_block
        self.lower_block(stmt.then_body)
        self._seal(Jump(join_block.label))
        if stmt.else_body is not None:
            self.block = else_block
            self.lower_block(stmt.else_body)
            self._seal(Jump(join_block.label))
        self.block = join_block

    def lower_while(self, stmt: cpp.While) -> None:
        header = self._start_block("loop")
        body_block = self._start_block("body")
        exit_block = self._start_block("exit")
        self._seal(Jump(header.label))
        self.block = header
        cond = self.lower_expr(stmt.cond)
        self._seal(Branch(_bool_operand(self, cond), body_block.label,
                          exit_block.label))
        self.break_targets.append(exit_block.label)
        self.block = body_block
        self.lower_block(stmt.body)
        self._seal(Jump(header.label))
        self.break_targets.pop()
        self.block = exit_block

    def lower_switch(self, stmt: cpp.Switch) -> None:
        subject = self.lower_expr(stmt.subject)
        exit_block = self._start_block("swexit")
        self.break_targets.append(exit_block.label)
        cases: Dict[int, str] = {}
        case_blocks: List[Tuple[cpp.SwitchCase, BasicBlock]] = []
        for case in stmt.cases:
            block = self._start_block("case")
            case_blocks.append((case, block))
            for value_expr in case.values:
                value = self._const_case_value(value_expr)
                if value in cases:
                    raise LoweringError(f"duplicate case value {value}")
                cases[value] = block.label
        if stmt.default is not None:
            default_block = self._start_block("default")
            default_label = default_block.label
        else:
            default_label = exit_block.label
        self._seal(SwitchTerm(subject, cases, default_label))
        for i, (case, block) in enumerate(case_blocks):
            self.block = block
            self.lower_block(case.body)
            if case.falls_through and i + 1 < len(case_blocks):
                self._seal(Jump(case_blocks[i + 1][1].label))
            else:
                self._seal(Jump(exit_block.label))
        if stmt.default is not None:
            self.block = default_block
            self.lower_block(stmt.default)
            self._seal(Jump(exit_block.label))
        self.break_targets.pop()
        self.block = exit_block

    def _const_case_value(self, expr: cpp.Expr) -> int:
        if isinstance(expr, cpp.IntLit):
            return expr.value
        if isinstance(expr, cpp.EnumRef):
            return self.ctx.enum_value(expr)
        raise LoweringError(f"case label must be a constant, got {expr!r}")


def _as_reg_or_int(op: Operand) -> Operand:
    return op


def _bool_operand(lowerer: _FunctionLowerer, cond: Operand) -> Operand:
    """Branch conditions take a register or immediate directly; non-0/1
    integers are fine (branch tests non-zero)."""
    return cond


# ---------------------------------------------------------------------------
# globals
# ---------------------------------------------------------------------------

def _flatten_initializer(ctx: _UnitContext, var_type: Type,
                         init, out: List) -> None:
    """Flatten a static initializer into 32-bit words."""
    if isinstance(var_type, ArrayType):
        if not isinstance(init, cpp.ArrayInit):
            raise LoweringError("array global needs an ArrayInit")
        for element in init.elements:
            _flatten_initializer(ctx, var_type.element, element, out)
        expected = var_type.length * _words_per(ctx, var_type.element)
        while len(out) < expected:
            out.append(0)
        return
    if isinstance(var_type, ClassRefType):
        layout = ctx.layout(var_type.name)
        if layout.has_vtable:
            out.append(SymbolRef(layout.vtable_symbol))
        values = init.values if isinstance(init, cpp.StructInit) else []
        field_names = _all_fields(layout)
        for i, fname in enumerate(field_names):
            if i < len(values):
                _flatten_initializer(ctx, IntType(), values[i], out)
            else:
                out.append(0)
        return
    # Scalar word.
    if init is None:
        out.append(0)
    elif isinstance(init, cpp.IntLit):
        out.append(init.value)
    elif isinstance(init, cpp.BoolLit):
        out.append(1 if init.value else 0)
    elif isinstance(init, cpp.NullPtr):
        out.append(0)
    elif isinstance(init, cpp.EnumRef):
        out.append(ctx.enum_value(init))
    elif isinstance(init, cpp.FuncRef):
        out.append(SymbolRef(init.func))
    elif isinstance(init, cpp.AddrOf) and isinstance(init.operand, cpp.Var):
        out.append(SymbolRef(init.operand.name))
    elif isinstance(init, cpp.StructInit):
        for value in init.values:
            _flatten_initializer(ctx, IntType(), value, out)
    else:
        raise LoweringError(f"unsupported static initializer {init!r}")


def _all_fields(layout: ClassLayout) -> List[str]:
    names: List[str] = []
    chain: List[ClassLayout] = []
    probe: Optional[ClassLayout] = layout
    while probe is not None:
        chain.append(probe)
        probe = probe.base
    for cl in reversed(chain):
        names.extend(f.name for f in cl.decl.fields)
    return names


def _words_per(ctx: _UnitContext, tp: Type) -> int:
    if isinstance(tp, ClassRefType):
        return ctx.layout(tp.name).size // WORD
    if isinstance(tp, ArrayType):
        return tp.length * _words_per(ctx, tp.element)
    return 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def lower_unit(unit: cpp.TranslationUnit) -> Program:
    """Lower a whole translation unit to a GIMPLE :class:`Program`."""
    ctx = _UnitContext(unit)
    program = Program(unit.name)
    program.externs = [e.name for e in unit.externs]

    # Vtables (rodata).
    for decl in unit.classes:
        layout = ctx.layout(decl.name)
        if not layout.has_vtable:
            continue
        words: List = []
        for slot_name in layout.vtable_slots:
            impl = layout.vtable_impl.get(slot_name)
            if impl is None:
                raise LoweringError(
                    f"class {decl.name}: pure virtual {slot_name!r} has no "
                    "implementation and the class is instantiated")
            words.append(SymbolRef(impl))
        program.add_data(DataObject(layout.vtable_symbol, words, "rodata"))

    # Globals.
    for gv in unit.globals:
        words: List = []
        if gv.init is None:
            section = "bss"
            words = [0] * _words_per(ctx, gv.var_type)
            # Class globals still need their vptr even when zero-init.
            if isinstance(gv.var_type, ClassRefType):
                layout = ctx.layout(gv.var_type.name)
                if layout.has_vtable:
                    words[0] = SymbolRef(layout.vtable_symbol)
                    section = "data"
        else:
            _flatten_initializer(ctx, gv.var_type, gv.init, words)
            section = "rodata" if gv.is_const else "data"
        program.add_data(DataObject(gv.name, words, section))

    # Free functions.
    for fn in unit.functions:
        lowerer = _FunctionLowerer(ctx, fn.name, fn.params, fn.body)
        program.add_function(lowerer.run())

    # Methods.
    for decl in unit.classes:
        for method in decl.methods:
            if method.body is None:
                continue
            this_class = None if method.is_static else decl.name
            lowerer = _FunctionLowerer(ctx, mangle(decl.name, method.name),
                                       method.params, method.body,
                                       this_class=this_class)
            program.add_function(lowerer.run())

    program.check()
    return program
