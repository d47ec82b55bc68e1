"""Tests for the GIMPLE IR containers, CFG utilities and dominators."""

import pytest

from repro.compiler.gimple.cfg import (reachable_blocks,
                                       remove_unreachable_blocks,
                                       reverse_postorder)
from repro.codegen import generator_by_name
from repro.compiler import OptLevel
from repro.compiler.driver import optimize_function
from repro.compiler.frontend.lower import lower_unit
from repro.compiler.gimple.dom import compute_dominators
from repro.compiler.gimple.ir import (BinOp, Branch, Call, Const,
                                      GimpleFunction, IRError, Jump, Move,
                                      Phi, Reg, Ret, SwitchTerm)


def diamond() -> GimpleFunction:
    """entry -> (left|right) -> join."""
    fn = GimpleFunction("diamond", [Reg("x")])
    entry = fn.new_block("entry")
    left = fn.new_block("left")
    right = fn.new_block("right")
    join = fn.new_block("join")
    entry.add(BinOp(Reg("c"), "<", Reg("x"), 10))
    entry.terminator = Branch(Reg("c"), left.label, right.label)
    left.add(Const(Reg("a"), 1))
    left.terminator = Jump(join.label)
    right.add(Const(Reg("a"), 2))
    right.terminator = Jump(join.label)
    join.terminator = Ret(Reg("a"))
    return fn


class TestContainers:
    def test_blocks_get_unique_labels(self):
        fn = GimpleFunction("f")
        b1 = fn.new_block("bb")
        b2 = fn.new_block("bb")
        assert b1.label != b2.label
        assert fn.entry == b1.label

    def test_add_after_terminator_raises(self):
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.terminator = Ret()
        with pytest.raises(IRError):
            block.add(Const(Reg("x"), 1))

    def test_check_catches_missing_terminator(self):
        fn = GimpleFunction("f")
        fn.new_block()
        with pytest.raises(IRError):
            fn.check()

    def test_check_catches_dangling_target(self):
        fn = GimpleFunction("f")
        block = fn.new_block()
        block.terminator = Jump("nowhere")
        with pytest.raises(IRError):
            fn.check()

    def test_bad_binop_rejected(self):
        with pytest.raises(IRError):
            BinOp(Reg("d"), "**", 1, 2)

    def test_instruction_uses(self):
        instr = BinOp(Reg("d"), "+", Reg("a"), 5)
        assert instr.uses() == [Reg("a")]

    def test_replace_uses_substitutes(self):
        instr = BinOp(Reg("d"), "+", Reg("a"), Reg("b"))
        out = instr.replace_uses({Reg("a"): 7})
        assert out.a == 7 and out.b == Reg("b")


def switch_join() -> GimpleFunction:
    """A switch into two arms that meet at a phi (SSA-shaped by hand)."""
    fn = GimpleFunction("switch_join", [Reg("x")])
    entry = fn.new_block("entry")
    a = fn.new_block("a")
    b = fn.new_block("b")
    join = fn.new_block("join")
    entry.terminator = SwitchTerm(Reg("x"), {0: a.label, 1: b.label},
                                  b.label)
    a.add(Const(Reg("v", 1), 10))
    a.add(Call(Reg("r"), "log", (Reg("v", 1),)))
    a.terminator = Jump(join.label)
    b.add(Const(Reg("v", 2), 20))
    b.terminator = Jump(join.label)
    join.add(Phi(Reg("v", 3), {a.label: Reg("v", 1), b.label: Reg("v", 2)}))
    join.terminator = Ret(Reg("v", 3))
    fn.new_reg()
    return fn


class TestClone:
    def test_clone_prints_the_same(self):
        for fn in (diamond(), switch_join()):
            assert str(fn.clone()) == str(fn)

    def test_clone_shares_no_node(self):
        fn = switch_join()
        clone = fn.clone()
        assert clone.params == fn.params and clone.params is not fn.params
        for label, block in fn.blocks.items():
            copy = clone.blocks[label]
            assert copy is not block and copy.instrs is not block.instrs
            for original, cloned in zip(block.instrs, copy.instrs):
                assert cloned is not original
            assert copy.terminator is not block.terminator
        phi, = clone.blocks["join3"].phis()
        phi.incoming["elsewhere"] = 0
        clone.blocks["entry0"].terminator.cases[2] = "a1"
        clone.blocks["a1"].instrs[1].dst = None
        assert str(fn) == str(switch_join())

    def test_clone_continues_numbering(self):
        fn = switch_join()
        clone = fn.clone()
        assert clone.entry == fn.entry
        assert clone.new_block("bb").label == fn.new_block("bb").label
        assert clone.new_reg() == fn.new_reg() == Reg("t1")
        assert clone.label_id() == fn.label_id() == 5

    def test_optimizing_a_clone_leaves_the_original(self,
                                                    hierarchical_machine):
        program = lower_unit(
            generator_by_name("nested-switch").generate(hierarchical_machine))
        for fn in [diamond(), *program.functions.values()]:
            before = str(fn)
            clone = fn.clone()
            optimize_function(clone, OptLevel.OS, {})
            assert str(fn) == before


class TestCFG:
    def test_successors_predecessors(self):
        fn = diamond()
        succ = fn.blocks[fn.entry].terminator.successors()
        assert set(succ) == {"left1", "right2"}
        assert set(fn.preds("join3")) == {"left1", "right2"}

    def test_reachable_blocks(self):
        fn = diamond()
        orphan = fn.new_block("orphan")
        orphan.terminator = Ret()
        assert orphan.label not in reachable_blocks(fn)

    def test_remove_unreachable(self):
        fn = diamond()
        orphan = fn.new_block("orphan")
        orphan.terminator = Ret()
        removed = remove_unreachable_blocks(fn)
        assert removed == 1
        assert orphan.label not in fn.blocks

    def test_reverse_postorder_entry_first(self):
        fn = diamond()
        order = reverse_postorder(fn)
        assert order[0] == fn.entry
        assert order[-1] == "join3"


class TestDominators:
    def test_diamond_idoms(self):
        fn = diamond()
        dom = compute_dominators(fn)
        assert dom.idom[fn.entry] is None
        assert dom.idom["left1"] == fn.entry
        assert dom.idom["right2"] == fn.entry
        assert dom.idom["join3"] == fn.entry

    def test_dominance_frontier_of_branch_arms(self):
        fn = diamond()
        dom = compute_dominators(fn)
        assert dom.frontier["left1"] == {"join3"}
        assert dom.frontier["right2"] == {"join3"}
        assert dom.frontier[fn.entry] == set()

    def test_dominates_reflexive_and_entry(self):
        fn = diamond()
        dom = compute_dominators(fn)
        assert dom.dominates(fn.entry, "join3")
        assert dom.dominates("left1", "left1")
        assert not dom.dominates("left1", "join3")

    def test_loop_dominators(self):
        fn = GimpleFunction("loop")
        entry = fn.new_block("entry")
        header = fn.new_block("header")
        body = fn.new_block("body")
        exit_ = fn.new_block("exit")
        entry.terminator = Jump(header.label)
        header.add(Const(Reg("c"), 1))
        header.terminator = Branch(Reg("c"), body.label, exit_.label)
        body.terminator = Jump(header.label)
        exit_.terminator = Ret()
        dom = compute_dominators(fn)
        assert dom.idom[body.label] == header.label
        assert dom.idom[exit_.label] == header.label
        # back edge: header is in body's dominance frontier
        assert header.label in dom.frontier[body.label]
