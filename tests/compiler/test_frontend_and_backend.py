"""Tests for the C++ frontend lowering, the RT32 backend and the driver."""

import pytest

from repro.cpp import ast as C
from repro.cpp.types import (ArrayType, ClassRefType, FuncPtrType, INT,
                             PointerType, VOID)
from repro.compiler import (CompileResult, LoweringError, OptLevel,
                            compile_unit, lower_unit, mangle)
from repro.compiler.gimple.interp import GimpleInterpreter
from repro.compiler.frontend.lower import ClassLayout
from repro.compiler.rtl.regalloc import live_intervals
from repro.compiler.target.rt32 import ALLOCATABLE_REGS, INSN_SIZES


def simple_unit() -> C.TranslationUnit:
    unit = C.TranslationUnit("t")
    body = C.Block()
    body.add(C.Return(C.Binary("+", C.Var("a"), C.Var("b"))))
    unit.functions.append(C.Function(
        "add", [C.Param("a", INT), C.Param("b", INT)], INT, body))
    return unit


def run_unit(unit, fn, args=(), level=OptLevel.OS, externals=None):
    result = compile_unit(unit, level)
    interp = GimpleInterpreter(result.program, externals)
    return interp.call(fn, tuple(args))


class TestLoweringBasics:
    def test_add_function(self):
        assert run_unit(simple_unit(), "add", (2, 3)) == 5

    @pytest.mark.parametrize("level", list(OptLevel))
    def test_same_result_at_every_level(self, level):
        assert run_unit(simple_unit(), "add", (10, -4), level) == 6

    def test_if_else(self):
        unit = C.TranslationUnit("t")
        body = C.Block()
        body.add(C.If(C.Binary("<", C.Var("x"), C.IntLit(0)),
                      C.Block([C.Return(C.Unary("-", C.Var("x")))]),
                      C.Block([C.Return(C.Var("x"))])))
        unit.functions.append(C.Function("abs_", [C.Param("x", INT)], INT,
                                         body))
        assert run_unit(unit, "abs_", (-7,)) == 7
        assert run_unit(unit, "abs_", (7,)) == 7

    def test_while_loop(self):
        unit = C.TranslationUnit("t")
        body = C.Block()
        body.add(C.VarDecl("acc", INT, C.IntLit(0)))
        body.add(C.VarDecl("i", INT, C.IntLit(0)))
        loop = C.While(C.Binary("<", C.Var("i"), C.Var("n")))
        loop.body.add(C.Assign(C.Var("acc"),
                               C.Binary("+", C.Var("acc"), C.Var("i"))))
        loop.body.add(C.Assign(C.Var("i"),
                               C.Binary("+", C.Var("i"), C.IntLit(1))))
        body.add(loop)
        body.add(C.Return(C.Var("acc")))
        unit.functions.append(C.Function("tri", [C.Param("n", INT)], INT,
                                         body))
        assert run_unit(unit, "tri", (5,)) == 10

    def test_short_circuit_does_not_evaluate_rhs(self):
        # (x != 0) && (10 / x > 1) must not divide when x == 0.
        unit = C.TranslationUnit("t")
        cond = C.Binary("&&",
                        C.Binary("!=", C.Var("x"), C.IntLit(0)),
                        C.Binary(">", C.Binary("/", C.IntLit(10),
                                               C.Var("x")),
                                 C.IntLit(1)))
        body = C.Block([C.If(cond, C.Block([C.Return(C.IntLit(1))])),
                        C.Return(C.IntLit(0))])
        unit.functions.append(C.Function("f", [C.Param("x", INT)], INT,
                                         body))
        assert run_unit(unit, "f", (0,), OptLevel.O0) == 0
        assert run_unit(unit, "f", (5,), OptLevel.O0) == 1

    def test_switch_dispatch(self):
        unit = C.TranslationUnit("t")
        sw = C.Switch(C.Var("x"))
        for value, result in ((0, 10), (1, 20), (5, 30)):
            case = C.SwitchCase([C.IntLit(value)])
            case.body.add(C.Return(C.IntLit(result)))
            sw.cases.append(case)
        body = C.Block([sw, C.Return(C.IntLit(-1))])
        unit.functions.append(C.Function("f", [C.Param("x", INT)], INT,
                                         body))
        for level in OptLevel:
            assert run_unit(unit, "f", (0,), level) == 10
            assert run_unit(unit, "f", (5,), level) == 30
            assert run_unit(unit, "f", (3,), level) == -1

    def test_extern_call_recorded(self):
        unit = C.TranslationUnit("t")
        unit.externs.append(C.ExternFunction("probe", [C.Param("v", INT)]))
        body = C.Block([C.ExprStmt(C.Call("probe", (C.IntLit(3),))),
                        C.Return()])
        unit.functions.append(C.Function("f", [], VOID, body))
        result = compile_unit(unit, OptLevel.OS)
        interp = GimpleInterpreter(result.program)
        interp.call("f", ())
        assert interp.call_log == [("probe", (3,))]

    def test_break_outside_loop_rejected(self):
        unit = C.TranslationUnit("t")
        unit.functions.append(C.Function("f", [], VOID,
                                         C.Block([C.Break()])))
        with pytest.raises(LoweringError):
            lower_unit(unit)


class TestClassesAndVirtuals:
    def make_unit(self):
        unit = C.TranslationUnit("t")
        base = C.ClassDecl("Animal")
        base.methods.append(C.Method(
            "legs", [], INT, C.Block([C.Return(C.IntLit(4))]),
            is_virtual=True))
        bird = C.ClassDecl("Bird", base="Animal")
        bird.methods.append(C.Method(
            "legs", [], INT, C.Block([C.Return(C.IntLit(2))]),
            is_virtual=True, is_override=True))
        unit.classes.extend([base, bird])
        unit.globals.append(C.GlobalVar("g_animal", ClassRefType("Animal")))
        unit.globals.append(C.GlobalVar("g_bird", ClassRefType("Bird")))
        # int probe(Animal* a) { return a->legs(); }  (virtual dispatch)
        body = C.Block([C.Return(C.MethodCall(
            C.Var("a"), "Animal", "legs", (), virtual_dispatch=True))])
        unit.functions.append(C.Function(
            "probe", [C.Param("a", PointerType(ClassRefType("Animal")))],
            INT, body))
        return unit

    def test_vtable_dispatch_selects_override(self):
        result = compile_unit(self.make_unit(), OptLevel.OS)
        interp = GimpleInterpreter(result.program)
        assert interp.call("probe", (interp.address_of("g_animal"),)) == 4
        assert interp.call("probe", (interp.address_of("g_bird"),)) == 2

    def test_vtables_in_rodata(self):
        result = compile_unit(self.make_unit(), OptLevel.OS)
        names = {obj.name for obj in result.module.data_objects
                 if obj.section == "rodata"}
        assert {"vtbl.Animal", "vtbl.Bird"} <= names

    def test_layout_field_offsets(self):
        decl = C.ClassDecl("P")
        decl.fields.append(C.Field("x", INT))
        decl.fields.append(C.Field("y", INT))
        layout = ClassLayout(decl, None)
        assert layout.offset_of("x") == 0
        assert layout.offset_of("y") == 4
        assert layout.size == 8

    def test_layout_vptr_shifts_fields(self):
        decl = C.ClassDecl("V")
        decl.fields.append(C.Field("x", INT))
        decl.methods.append(C.Method("m", [], VOID, C.Block(),
                                     is_virtual=True))
        layout = ClassLayout(decl, None)
        assert layout.offset_of("x") == 4  # vptr at 0

    def test_inherited_fields_after_base(self):
        base = C.ClassDecl("B")
        base.fields.append(C.Field("a", INT))
        derived = C.ClassDecl("D", base="B")
        derived.fields.append(C.Field("b", INT))
        lb = ClassLayout(base, None)
        ld = ClassLayout(derived, lb)
        assert ld.offset_of("a") == 0
        assert ld.offset_of("b") == 4

    def test_field_access_via_this(self):
        unit = C.TranslationUnit("t")
        cls = C.ClassDecl("Counter")
        cls.fields.append(C.Field("n", INT))
        cls.methods.append(C.Method("bump", [], INT, C.Block([
            C.Assign(C.FieldAccess(C.ThisExpr(), "n"),
                     C.Binary("+", C.FieldAccess(C.ThisExpr(), "n"),
                              C.IntLit(1))),
            C.Return(C.FieldAccess(C.ThisExpr(), "n")),
        ])))
        unit.classes.append(cls)
        unit.globals.append(C.GlobalVar("g_c", ClassRefType("Counter")))
        result = compile_unit(unit, OptLevel.OS)
        interp = GimpleInterpreter(result.program)
        this = interp.address_of("g_c")
        assert interp.call(mangle("Counter", "bump"), (this,)) == 1
        assert interp.call(mangle("Counter", "bump"), (this,)) == 2


class TestTablesAndFunctionPointers:
    def test_struct_array_with_function_pointers(self):
        unit = C.TranslationUnit("t")
        row = C.ClassDecl("Row")
        row.fields.append(C.Field("key", INT))
        row.fields.append(C.Field("fn", FuncPtrType(INT, (INT,))))
        unit.classes.append(row)
        for name, mul in (("f10", 10), ("f100", 100)):
            unit.functions.append(C.Function(
                name, [C.Param("x", INT)], INT,
                C.Block([C.Return(C.Binary("*", C.Var("x"),
                                           C.IntLit(mul)))])))
        unit.globals.append(C.GlobalVar(
            "table", ArrayType(ClassRefType("Row"), 2),
            C.ArrayInit([
                C.StructInit([C.IntLit(1), C.FuncRef("f10")]),
                C.StructInit([C.IntLit(2), C.FuncRef("f100")]),
            ]), is_const=True))
        # int lookup(int key, int arg): scan table, call handler
        body = C.Block()
        body.add(C.VarDecl("i", INT, C.IntLit(0)))
        loop = C.While(C.Binary("<", C.Var("i"), C.IntLit(2)))
        match = C.Binary("==", C.FieldAccess(
            C.Index(C.Var("table"), C.Var("i")), "key"), C.Var("key"))
        loop.body.add(C.If(match, C.Block([C.Return(C.IndirectCall(
            C.FieldAccess(C.Index(C.Var("table"), C.Var("i")), "fn"),
            (C.Var("arg"),), FuncPtrType(INT, (INT,))))])))
        loop.body.add(C.Assign(C.Var("i"), C.Binary("+", C.Var("i"),
                                                    C.IntLit(1))))
        body.add(loop)
        body.add(C.Return(C.IntLit(-1)))
        unit.functions.append(C.Function(
            "lookup", [C.Param("key", INT), C.Param("arg", INT)], INT, body))
        for level in OptLevel:
            assert run_unit(unit, "lookup", (1, 7), level) == 70
            assert run_unit(unit, "lookup", (2, 7), level) == 700
            assert run_unit(unit, "lookup", (9, 7), level) == -1


class TestBackend:
    def test_o0_larger_than_os(self):
        unit = simple_unit()
        o0 = compile_unit(unit, OptLevel.O0).total_size
        os_ = compile_unit(unit, OptLevel.OS).total_size
        assert os_ <= o0

    def test_function_sizes_positive_and_sum(self):
        result = compile_unit(simple_unit(), OptLevel.OS)
        sizes = result.module.function_sizes()
        assert sizes["add"] > 0
        assert sum(sizes.values()) == result.module.text_size

    def test_all_mnemonics_have_sizes(self):
        result = compile_unit(simple_unit(), OptLevel.O0)
        for fn in result.module.functions:
            for instr in fn.instrs:
                assert instr.op in INSN_SIZES

    def test_leaf_function_omits_lr(self):
        result = compile_unit(simple_unit(), OptLevel.OS)
        ops = [(i.op, i.uses) for i in result.module.function("add").instrs]
        assert ("push", ("lr",)) not in ops

    def test_listing_renders(self):
        result = compile_unit(simple_unit(), OptLevel.OS)
        listing = result.module.listing()
        assert "add:" in listing and ".text" in listing

    def test_live_intervals_cover_loop_carried_values(self):
        from repro.compiler.rtl.ir import RInstr, RTLFunction, label
        rtl = RTLFunction("f")
        rtl.emit(RInstr("li", defs=("v0",), imm=0))
        rtl.emit(label(".L"))
        rtl.emit(RInstr("addi", defs=("v0",), uses=("v0",), imm=1))
        rtl.emit(RInstr("setlti", defs=("v1",), uses=("v0",), imm=10))
        rtl.emit(RInstr("bnez", uses=("v1",), target=".L"))
        rtl.emit(RInstr("ret"))
        intervals = live_intervals(rtl)
        lo, hi = intervals["v0"]
        assert lo == 0 and hi >= 4  # alive across the back edge

    def test_register_pressure_spills_but_stays_correct(self):
        # Sum of 14 simultaneously-live values forces spilling (10 regs).
        unit = C.TranslationUnit("t")
        body = C.Block()
        n = 14
        for i in range(n):
            body.add(C.VarDecl(f"v{i}", INT,
                               C.Binary("*", C.Var("x"), C.IntLit(i + 1))))
        acc: C.Expr = C.Var("v0")
        for i in range(1, n):
            acc = C.Binary("+", acc, C.Var(f"v{i}"))
        body.add(C.Return(acc))
        unit.functions.append(C.Function("f", [C.Param("x", INT)], INT,
                                         body))
        expected = sum(2 * (i + 1) for i in range(n))
        # Behavior validated on the GIMPLE level; the backend must at
        # least allocate without errors and report spill slots.
        result = compile_unit(unit, OptLevel.O0)
        assert run_unit(unit, "f", (2,), OptLevel.O0) == expected
        # O0 keeps every local alive; expect spills.
        assert any(fn.frame_slots > 0 for fn in result.module.functions)


class TestSwitchLowering:
    def _switch_unit(self, n_cases, sparse=False):
        unit = C.TranslationUnit("t")
        sw = C.Switch(C.Var("x"))
        for i in range(n_cases):
            value = i * 100 if sparse else i
            case = C.SwitchCase([C.IntLit(value)])
            case.body.add(C.Return(C.IntLit(i)))
            sw.cases.append(case)
        unit.functions.append(C.Function(
            "f", [C.Param("x", INT)], INT,
            C.Block([sw, C.Return(C.IntLit(-1))])))
        return unit

    def test_dense_switch_gets_jump_table(self):
        result = compile_unit(self._switch_unit(8), OptLevel.OS)
        assert any(i.op == "jt" for fn in result.module.functions
                   for i in fn.instrs)
        assert any(".jt" in obj.name for obj in result.module.data_objects)

    def test_sparse_switch_gets_compare_chain(self):
        result = compile_unit(self._switch_unit(8, sparse=True), OptLevel.OS)
        assert not any(i.op == "jt" for fn in result.module.functions
                       for i in fn.instrs)

    def test_both_forms_behave_identically(self):
        for sparse in (False, True):
            unit = self._switch_unit(8, sparse)
            step = 100 if sparse else 1
            for i in range(8):
                assert run_unit(unit, "f", (i * step,)) == i
            assert run_unit(unit, "f", (9999,)) == -1
