"""Tests for SSA construction/destruction and the middle-end passes."""

import pytest

from repro.compiler.gimple.cfg import remove_unreachable_blocks
from repro.compiler.gimple.interp import GimpleInterpreter
from repro.compiler.gimple.ir import (BinOp, Branch, Call, Const,
                                      GimpleFunction, Instr, Jump, Move,
                                      Phi, Program, Reg, Ret, Store,
                                      SwitchTerm)
from repro.compiler.gimple.ssa import SSAError, from_ssa, to_ssa, verify_ssa
from repro.compiler.passes.ccp import run_ccp
from repro.compiler.passes.copyprop import run_copyprop
from repro.compiler.passes.cse import run_cse
from repro.compiler.passes.dce import run_dce
from repro.compiler.passes.inline import InlinePolicy, run_inline
from repro.compiler.passes.simplify_cfg import run_simplify_cfg


def counting_loop() -> GimpleFunction:
    """i = 0; while (i < n) i = i + 1; return i;"""
    fn = GimpleFunction("count", [Reg("n")])
    entry = fn.new_block("entry")
    header = fn.new_block("header")
    body = fn.new_block("body")
    exit_ = fn.new_block("exit")
    entry.add(Const(Reg("i"), 0))
    entry.terminator = Jump(header.label)
    header.add(BinOp(Reg("c"), "<", Reg("i"), Reg("n")))
    header.terminator = Branch(Reg("c"), body.label, exit_.label)
    body.add(BinOp(Reg("i"), "+", Reg("i"), 1))
    body.terminator = Jump(header.label)
    exit_.terminator = Ret(Reg("i"))
    return fn


def run(fn: GimpleFunction, *args: int) -> int:
    program = Program("t")
    program.add_function(fn)
    return GimpleInterpreter(program).call(fn.name, tuple(args))


class TestSSA:
    def test_loop_gets_phi(self):
        fn = counting_loop()
        to_ssa(fn)
        verify_ssa(fn)
        header = fn.blocks["header1"]
        assert len(header.phis()) == 1

    def test_single_definition_invariant(self):
        fn = counting_loop()
        to_ssa(fn)
        seen = set()
        for block in fn.blocks.values():
            for instr in block.instrs:
                if instr.dst is not None:
                    assert instr.dst not in seen
                    seen.add(instr.dst)

    def test_round_trip_preserves_behavior(self):
        for n in (0, 1, 5, 17):
            fn = counting_loop()
            assert run(fn, n) == n
            fn2 = counting_loop()
            to_ssa(fn2)
            from_ssa(fn2)
            assert run(fn2, n) == n

    def test_verify_rejects_double_definition(self):
        fn = GimpleFunction("bad")
        block = fn.new_block()
        block.add(Const(Reg("x", 1), 1))
        block.add(Const(Reg("x", 1), 2))
        block.terminator = Ret()
        with pytest.raises(SSAError):
            verify_ssa(fn)

    def test_use_of_undefined_register_raises(self):
        fn = GimpleFunction("bad")
        block = fn.new_block()
        block.add(Move(Reg("y"), Reg("ghost")))
        block.terminator = Ret()
        with pytest.raises(SSAError):
            to_ssa(fn)

    def test_renaming_leaves_input_instructions_alone(self):
        fn = GimpleFunction("f")
        block = fn.new_block()
        const = block.add(Const(Reg("x"), 1))
        block.terminator = Ret(Reg("x"))
        to_ssa(fn)
        assert fn.blocks[block.label].instrs[0].dst == Reg("x", 1)
        assert const.dst == Reg("x")


class TestCCP:
    def test_folds_constants(self):
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.add(Const(Reg("a"), 2))
        block.add(Const(Reg("b"), 3))
        block.add(BinOp(Reg("c"), "*", Reg("a"), Reg("b")))
        block.terminator = Ret(Reg("c"))
        to_ssa(fn)
        run_ccp(fn)
        assert run(fn) == 6

    def test_kills_constant_branch(self):
        fn = GimpleFunction("f")
        entry = fn.new_block("entry")
        dead = fn.new_block("dead")
        live = fn.new_block("live")
        entry.add(Const(Reg("c"), 0))
        entry.terminator = Branch(Reg("c"), dead.label, live.label)
        dead.terminator = Ret(99)
        live.terminator = Ret(1)
        to_ssa(fn)
        run_ccp(fn)
        run_simplify_cfg(fn)
        assert "dead1" not in fn.blocks
        assert run(fn) == 1

    def test_constant_switch_becomes_jump(self):
        fn = GimpleFunction("f")
        entry = fn.new_block("entry")
        arms = [fn.new_block(f"arm{i}") for i in range(3)]
        entry.add(Const(Reg("v"), 1))
        entry.terminator = SwitchTerm(Reg("v"),
                                      {i: arms[i].label for i in range(3)},
                                      arms[0].label)
        for i, arm in enumerate(arms):
            arm.terminator = Ret(i * 10)
        to_ssa(fn)
        run_ccp(fn)
        assert isinstance(fn.blocks[fn.entry].terminator, Jump)
        assert run(fn) == 10

    def test_store_through_a_constant_base_survives(self):
        # The base must stay a register, so the store keeps its operand
        # while the constant itself stays for it to read.
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.add(Const(Reg("p"), 64))
        block.add(Store(Reg("p"), 0, 7))
        block.terminator = Ret()
        to_ssa(fn)
        before = list(fn.blocks[block.label].instrs)
        assert run_ccp(fn) == 0
        assert fn.blocks[block.label].instrs == before
        assert fn.blocks[block.label].instrs[1] is before[1]

    def test_an_unexpected_error_is_not_swallowed(self, monkeypatch):
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.add(Const(Reg("p"), 64))
        block.add(Store(Reg("p"), 0, 7))
        block.terminator = Ret()
        to_ssa(fn)

        def broken(self, mapping):
            raise RuntimeError("bug in a rewrite")
        monkeypatch.setattr(Store, "replace_uses", broken)
        with pytest.raises(RuntimeError, match="bug in a rewrite"):
            run_ccp(fn)

    def test_runtime_value_not_folded(self):
        fn = counting_loop()
        to_ssa(fn)
        run_ccp(fn)
        # The loop must survive: i and c depend on the runtime n.
        assert run(fn, 4) == 4

    def test_phi_meet_over_executable_edges_only(self):
        # if (true) x=5 else x=7; return x  ->  5
        fn = GimpleFunction("f")
        entry = fn.new_block("entry")
        t = fn.new_block("t")
        e = fn.new_block("e")
        join = fn.new_block("join")
        entry.add(Const(Reg("c"), 1))
        entry.terminator = Branch(Reg("c"), t.label, e.label)
        t.add(Const(Reg("x"), 5))
        t.terminator = Jump(join.label)
        e.add(Const(Reg("x"), 7))
        e.terminator = Jump(join.label)
        join.terminator = Ret(Reg("x"))
        to_ssa(fn)
        run_ccp(fn)
        run_simplify_cfg(fn)
        assert run(fn) == 5

    def test_loop_carried_constant_is_found_optimistically(self):
        # x = 1; do x = x * 1; while (x < n); return x  ->  the phi is 1
        fn = GimpleFunction("f", [Reg("n")])
        entry = fn.new_block("entry")
        loop = fn.new_block("loop")
        exit_ = fn.new_block("exit")
        entry.add(Const(Reg("x"), 1))
        entry.terminator = Jump(loop.label)
        loop.add(BinOp(Reg("x"), "*", Reg("x"), 1))
        loop.add(BinOp(Reg("c"), "<", Reg("x"), Reg("n")))
        loop.terminator = Branch(Reg("c"), loop.label, exit_.label)
        exit_.terminator = Ret(Reg("x"))
        to_ssa(fn)
        phi, = fn.blocks[loop.label].phis()
        run_ccp(fn)
        head = fn.blocks[loop.label].instrs[0]
        assert isinstance(head, Const) and head.dst == phi.dst
        assert head.value == 1
        assert run(fn, 0) == 1

    def test_propagation_reads_each_instruction_a_bounded_number_of_times(
            self, monkeypatch):
        # A chain of N blocks, each adding 1 to the previous block's value.
        n = 200
        fn = GimpleFunction("chain")
        blocks = [fn.new_block() for _ in range(n)]
        blocks[0].add(Const(Reg("x"), 0))
        for prev, block in zip(blocks, blocks[1:]):
            block.add(BinOp(Reg("x"), "+", Reg("x"), 1))
            prev.terminator = Jump(block.label)
        blocks[-1].terminator = Ret(Reg("x"))
        to_ssa(fn)
        instrs = sum(len(block.instrs) for block in fn.blocks.values())
        calls = []
        uses = Instr.uses

        def counted(instr):
            calls.append(instr)
            return uses(instr)
        monkeypatch.setattr(Instr, "uses", counted)
        run_ccp(fn)
        monkeypatch.undo()
        assert len(calls) <= 2 * instrs
        assert run(fn) == n - 1


class TestDCE:
    def test_removes_unused_pure_instruction(self):
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.add(Const(Reg("unused"), 42))
        block.add(Const(Reg("used"), 7))
        block.terminator = Ret(Reg("used"))
        to_ssa(fn)
        removed = run_dce(fn)
        assert removed == 1
        assert run(fn) == 7

    def test_keeps_stores_and_calls(self):
        fn = GimpleFunction("f", [Reg("p")])
        block = fn.new_block()
        block.add(Const(Reg("v"), 1))
        block.add(Store(Reg("p"), 0, Reg("v")))
        block.add(Call(None, "effect", ()))
        block.terminator = Ret()
        to_ssa(fn)
        run_dce(fn)
        kinds = [type(i).__name__ for i in fn.blocks[fn.entry].instrs]
        assert "Store" in kinds and "Call" in kinds

    def test_drops_unused_call_result_register(self):
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.add(Call(Reg("r"), "effect", ()))
        block.terminator = Ret(0)
        to_ssa(fn)
        run_dce(fn)
        (call,) = fn.blocks[fn.entry].instrs
        assert call.dst is None

    def test_transitively_dead_chain(self):
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.add(Const(Reg("a"), 1))
        block.add(BinOp(Reg("b"), "+", Reg("a"), 1))
        block.add(BinOp(Reg("c"), "+", Reg("b"), 1))
        block.terminator = Ret(7)
        to_ssa(fn)
        assert run_dce(fn) == 3


class TestCopyPropAndCSE:
    def test_copy_chain_collapses(self):
        fn = GimpleFunction("f", [Reg("x")])
        block = fn.new_block()
        block.add(Move(Reg("a"), Reg("x")))
        block.add(Move(Reg("b"), Reg("a")))
        block.add(BinOp(Reg("c"), "+", Reg("b"), 1))
        block.terminator = Ret(Reg("c"))
        to_ssa(fn)
        run_copyprop(fn)
        run_dce(fn)
        assert run(fn, 9) == 10
        binop = [i for i in fn.blocks[fn.entry].instrs
                 if isinstance(i, BinOp)][0]
        assert binop.a.name.startswith("x")

    def test_cse_reuses_redundant_computation(self):
        fn = GimpleFunction("f", [Reg("x")])
        block = fn.new_block()
        block.add(BinOp(Reg("a"), "*", Reg("x"), 24))
        block.add(BinOp(Reg("b"), "*", Reg("x"), 24))
        block.add(BinOp(Reg("c"), "+", Reg("a"), Reg("b")))
        block.terminator = Ret(Reg("c"))
        to_ssa(fn)
        replaced = run_cse(fn)
        assert replaced == 1
        run_copyprop(fn)
        run_dce(fn)
        muls = [i for b in fn.blocks.values() for i in b.instrs
                if isinstance(i, BinOp) and i.op == "*"]
        assert len(muls) == 1
        assert run(fn, 2) == 96

    def test_cse_respects_commutativity(self):
        fn = GimpleFunction("f", [Reg("x"), Reg("y")])
        block = fn.new_block()
        block.add(BinOp(Reg("a"), "+", Reg("x"), Reg("y")))
        block.add(BinOp(Reg("b"), "+", Reg("y"), Reg("x")))
        block.add(BinOp(Reg("c"), "*", Reg("a"), Reg("b")))
        block.terminator = Ret(Reg("c"))
        to_ssa(fn)
        assert run_cse(fn) == 1

    def test_cse_does_not_hoist_across_branches(self):
        # Computation in one arm must not be reused in the sibling arm.
        fn = GimpleFunction("f", [Reg("x")])
        entry = fn.new_block("entry")
        t = fn.new_block("t")
        e = fn.new_block("e")
        entry.add(BinOp(Reg("c"), "<", Reg("x"), 0))
        entry.terminator = Branch(Reg("c"), t.label, e.label)
        t.add(BinOp(Reg("a"), "*", Reg("x"), 3))
        t.terminator = Ret(Reg("a"))
        e.add(BinOp(Reg("b"), "*", Reg("x"), 3))
        e.terminator = Ret(Reg("b"))
        to_ssa(fn)
        assert run_cse(fn) == 0


class TestInline:
    def make_program(self):
        program = Program("p")
        callee = GimpleFunction("double_it", [Reg("x")])
        block = callee.new_block()
        block.add(BinOp(Reg("r"), "*", Reg("x"), 2))
        block.terminator = Ret(Reg("r"))
        program.add_function(callee)
        caller = GimpleFunction("main", [Reg("v")])
        block = caller.new_block()
        block.add(Call(Reg("d"), "double_it", (Reg("v"),)))
        block.add(BinOp(Reg("out"), "+", Reg("d"), 1))
        block.terminator = Ret(Reg("out"))
        program.add_function(caller)
        return program

    def test_inline_small_function(self):
        program = self.make_program()
        inlined = run_inline(program, InlinePolicy.for_speed())
        assert inlined == 1
        main = program.functions["main"]
        assert not any(isinstance(i, Call)
                       for b in main.blocks.values() for i in b.instrs)
        assert GimpleInterpreter(program).call("main", (5,)) == 11

    def test_size_policy_blocks_growth(self):
        program = self.make_program()
        # Grow the callee beyond the -Os threshold.
        callee = program.functions["double_it"]
        block = callee.blocks[callee.entry]
        for i in range(10):
            block.instrs.insert(0, Const(Reg(f"pad{i}"), i))
        assert run_inline(program, InlinePolicy.for_size()) == 0

    def test_recursive_function_not_inlined(self):
        program = Program("p")
        rec = GimpleFunction("rec", [Reg("x")])
        block = rec.new_block()
        block.add(Call(Reg("r"), "rec", (Reg("x"),)))
        block.terminator = Ret(Reg("r"))
        program.add_function(rec)
        caller = GimpleFunction("main", [])
        block = caller.new_block()
        block.add(Call(Reg("d"), "rec", (1,)))
        block.terminator = Ret(Reg("d"))
        program.add_function(caller)
        assert run_inline(program, InlinePolicy.for_speed()) == 0


class TestSimplifyCFG:
    def test_merges_straightline_chain(self):
        fn = GimpleFunction("f")
        a = fn.new_block("a")
        b = fn.new_block("b")
        c = fn.new_block("c")
        a.add(Const(Reg("x"), 1))
        a.terminator = Jump(b.label)
        b.add(BinOp(Reg("y"), "+", Reg("x"), 1))
        b.terminator = Jump(c.label)
        c.terminator = Ret(Reg("y"))
        run_simplify_cfg(fn)
        assert len(fn.blocks) == 1
        assert run(fn) == 2

    def test_forwards_empty_block(self):
        fn = GimpleFunction("f")
        entry = fn.new_block("entry")
        hop = fn.new_block("hop")
        t = fn.new_block("t")
        e = fn.new_block("e")
        entry.add(Const(Reg("c"), 1))
        entry.terminator = Branch(Reg("c"), hop.label, e.label)
        hop.terminator = Jump(t.label)
        t.terminator = Ret(1)
        e.terminator = Ret(0)
        run_simplify_cfg(fn)
        assert run(fn) == 1
        assert "hop1" not in fn.blocks

    def test_degenerate_branch_collapses(self):
        fn = GimpleFunction("f")
        entry = fn.new_block("entry")
        only = fn.new_block("only")
        entry.add(Const(Reg("c"), 1))
        entry.terminator = Branch(Reg("c"), only.label, only.label)
        only.terminator = Ret(3)
        run_simplify_cfg(fn)
        assert run(fn) == 3
