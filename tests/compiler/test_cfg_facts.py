"""The CFG facts a GIMPLE function keeps: maintained predecessor lists,
and reachability and dominators memoized per CFG state.

The pipeline test runs the real ``optimize_function`` with a check after
every SSA pass, SSA destruction and each cleanup: the maintained
predecessors, and any reachability or dominator info a later pass would
reuse, must equal a recomputation written here from the terminators
alone.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.codegen import ALL_PATTERNS, CodegenError
from repro.compiler import OptLevel, compile_unit
from repro.compiler import driver
from repro.compiler.gimple import cfg as cfg_module
from repro.compiler.gimple import dom as dom_module
from repro.compiler.gimple.cfg import (reachable_blocks,
                                       remove_unreachable_blocks)
from repro.compiler.gimple.dom import dominators
from repro.compiler.gimple.ir import (BasicBlock, BinOp, Branch, Const,
                                      GimpleFunction, Jump, Reg, Ret)
from repro.compiler.gimple.ssa import to_ssa
from repro.compiler.passes.ccp import run_ccp
from repro.compiler.passes.cse import run_cse
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.fuzz import DEFAULT_PROFILES, generate_case

#: The seed of perfbench's ``fuzz`` pool (``perfbench/workloads.py``):
#: one case per (pattern, profile) pair, seeds drawn in that order.
FUZZ_POOL_SEED = 0xF022


# ---------------------------------------------------------------------------
# a recomputation from the terminators alone
# ---------------------------------------------------------------------------

def fresh_preds(fn):
    preds = {label: [] for label in fn.blocks}
    for label, block in fn.blocks.items():
        for succ in block.terminator.successors():
            preds[succ].append(label)
    return {label: sorted(labels) for label, labels in preds.items()}


def fresh_rpo(fn):
    seen, order = set(), []

    def visit(label):
        seen.add(label)
        for succ in fn.blocks[label].terminator.successors():
            if succ not in seen:
                visit(succ)
        order.append(label)

    visit(fn.entry)
    return order[::-1]


def fresh_dominators(fn):
    """(rpo, idom, frontier, children) from dominator sets, by their
    definitions; unreachable blocks take no part."""
    rpo = fresh_rpo(fn)
    preds = {label: [] for label in rpo}
    for label in rpo:
        for succ in fn.blocks[label].terminator.successors():
            preds[succ].append(label)
    doms = {label: set(rpo) for label in rpo}
    doms[fn.entry] = {fn.entry}
    changed = True
    while changed:
        changed = False
        for label in rpo[1:]:
            new = set.intersection(*(doms[p] for p in preds[label]))
            new.add(label)
            if new != doms[label]:
                doms[label], changed = new, True
    idom = {fn.entry: None}
    for label in rpo[1:]:
        # The closest strict dominator is the one with most dominators.
        idom[label] = max(doms[label] - {label},
                          key=lambda d: len(doms[d]))
    frontier = {label: set() for label in rpo}
    for label in rpo:
        for pred in preds[label]:
            for x in doms[pred]:
                if x == label or x not in doms[label]:
                    frontier[x].add(label)
    children = {label: [c for c in rpo if idom[c] == label]
                for label in rpo}
    return rpo, idom, frontier, children


def check_facts(fn, after):
    where = f"{fn.name} after {after}"
    expected = fresh_preds(fn)
    for label in fn.blocks:
        assert sorted(fn.preds(label)) == expected[label], \
            f"{where}: predecessors of {label}"
    rpo, idom, frontier, children = fresh_dominators(fn)
    assert reachable_blocks(fn) == set(rpo), f"{where}: reachability"
    dom = dominators(fn)
    assert (dom.rpo, dom.idom, dom.frontier, dom.children) == \
        (rpo, idom, frontier, children), f"{where}: dominators"


# ---------------------------------------------------------------------------
# the helpers
# ---------------------------------------------------------------------------

def diamond():
    """entry -> (left|right) -> join, every block already terminated."""
    fn = GimpleFunction("diamond", [Reg("x")])
    entry, left, right, join = (fn.new_block(hint) for hint in
                                ("entry", "left", "right", "join"))
    entry.add(BinOp(Reg("c"), "<", Reg("x"), 10))
    entry.terminator = Branch(Reg("c"), left.label, right.label)
    left.add(Const(Reg("a"), 1))
    left.terminator = Jump(join.label)
    right.add(Const(Reg("a"), 2))
    right.terminator = Jump(join.label)
    join.terminator = Ret(Reg("a"))
    return fn


class TestMaintainedPredecessors:
    def test_built_at_the_first_query_from_direct_construction(self):
        fn = diamond()
        assert sorted(fn.preds("join3")) == ["left1", "right2"]
        assert fn.preds("entry0") == []

    def test_retarget_moves_the_edge_and_bumps_the_version(self):
        fn = diamond()
        fn.preds("join3")
        version = fn.cfg_version
        fn.set_terminator(fn.blocks["left1"], Jump("right2"))
        assert fn.preds("join3") == ["right2"]
        assert sorted(fn.preds("right2")) == ["entry0", "left1"]
        assert fn.cfg_version > version
        check_facts(fn, "retarget")

    def test_rewriting_uses_keeps_the_version(self):
        fn = diamond()
        fn.preds("join3")
        version = fn.cfg_version
        entry = fn.blocks["entry0"]
        fn.set_terminator(entry, entry.terminator.replace_uses(
            {Reg("c"): Reg("d")}))
        assert fn.cfg_version == version

    def test_an_edge_per_arm(self):
        fn = diamond()
        fn.preds("join3")
        fn.set_terminator(fn.blocks["entry0"],
                          Branch(Reg("c"), "left1", "left1"))
        assert fn.preds("left1") == ["entry0", "entry0"]
        check_facts(fn, "branch with equal arms")

    def test_add_and_delete_blocks(self):
        fn = diamond()
        fn.preds("join3")
        extra = BasicBlock("extra", terminator=Jump("join3"))
        fn.add_block(extra)
        assert sorted(fn.preds("join3")) == ["extra", "left1", "right2"]
        assert fn.preds("extra") == []
        fn.delete_block("extra")
        assert sorted(fn.preds("join3")) == ["left1", "right2"]
        check_facts(fn, "add and delete")

    def test_facts_stay_out_of_the_pickle_and_the_clone(self):
        fn = diamond()
        before = pickle.dumps(fn)
        left, join = fn.blocks["left1"], fn.blocks["join3"]
        fn.preds(join.label)
        dominators(fn)
        version = fn.cfg_version
        # Away and back, with the label objects the pickle shares.
        fn.set_terminator(left, Jump(fn.blocks["right2"].label))
        fn.set_terminator(left, Jump(join.label))
        assert fn.cfg_version == version + 2
        assert pickle.dumps(fn) == before
        for copy in (pickle.loads(before), fn.clone()):
            assert copy.cfg_version == 0
            check_facts(copy, "copy")


class TestMemoizedFacts:
    @pytest.fixture
    def counting(self, monkeypatch):
        """Calls of the two from-scratch computations, by name."""
        calls = []
        for module, name in ((dom_module, "compute_dominators"),
                             (cfg_module, "_reachable")):
            real = getattr(module, name)

            def spy(fn, real=real, name=name):
                calls.append(name)
                return real(fn)
            monkeypatch.setattr(module, name, spy)
        return calls

    def test_cse_reuses_ssa_dominators_when_ccp_keeps_the_edges(
            self, counting):
        fn = diamond()
        dom = to_ssa(fn)
        run_ccp(fn)
        run_cse(fn)
        assert dominators(fn) is dom
        assert counting.count("compute_dominators") == 1

    def test_folding_a_branch_recomputes(self, counting):
        fn = GimpleFunction("f")
        entry, dead, live = (fn.new_block(hint)
                             for hint in ("entry", "dead", "live"))
        entry.add(Const(Reg("c"), 0))
        entry.terminator = Branch(Reg("c"), dead.label, live.label)
        dead.terminator = Ret(99)
        live.terminator = Ret(1)
        to_ssa(fn)
        assert run_ccp(fn) > 0
        run_cse(fn)
        assert "dead1" not in fn.blocks
        assert counting.count("compute_dominators") == 2
        check_facts(fn, "ccp + cse")

    def test_sweep_returns_at_once_until_an_edge_changes(self, counting):
        fn = diamond()
        assert remove_unreachable_blocks(fn) == 0
        assert remove_unreachable_blocks(fn) == 0
        assert counting.count("_reachable") == 1
        fn.set_terminator(fn.blocks["entry0"], Jump("left1"))
        assert remove_unreachable_blocks(fn) == 1
        assert "right2" not in fn.blocks
        check_facts(fn, "sweep")


# ---------------------------------------------------------------------------
# the pipeline, checked after every step
# ---------------------------------------------------------------------------

def _machines():
    """(machine, pattern names): the Fig. 1 pair with every pattern,
    then perfbench's ``fuzz`` pool, one pattern per case."""
    names = tuple(generator.name for generator in ALL_PATTERNS)
    cases = [(flat_machine_with_unreachable_state(), names),
             (hierarchical_machine_with_shadowed_composite(), names)]
    seeds = random.Random(FUZZ_POOL_SEED)
    for name in names:
        for profile in DEFAULT_PROFILES:
            machine = generate_case(seeds.getrandbits(32), profile).machine
            cases.append((machine, (name,)))
    return cases


@pytest.fixture
def checked_pipeline(monkeypatch):
    """Run :func:`check_facts` after every step ``optimize_function``
    takes; returns the list of steps checked."""
    checked = []

    def wrap(name, step):
        def run(fn):
            result = step(fn)
            check_facts(fn, name)
            checked.append(name)
            return result
        return run

    monkeypatch.setattr(driver, "SSA_PASS_SEQUENCE", tuple(
        (name, wrap(name, step)) for name, step in driver.SSA_PASS_SEQUENCE))
    for name in ("to_ssa", "from_ssa", "remove_unreachable_blocks",
                 "run_simplify_cfg"):
        monkeypatch.setattr(driver, name, wrap(name, getattr(driver, name)))
    return checked


def test_maintained_facts_equal_a_recomputation(checked_pipeline):
    generators = {generator.name: generator for generator in ALL_PATTERNS}
    compiled = 0
    for machine, names in _machines():
        for name in names:
            try:
                unit = generators[name]().generate(machine)
            except CodegenError:
                continue
            compile_unit(unit, OptLevel.OS)
            compiled += 1
    assert compiled >= 28
    steps = set(checked_pipeline)
    assert steps == {"to_ssa", "ccp", "cse", "copyprop", "dce", "cfg",
                     "from_ssa", "remove_unreachable_blocks",
                     "run_simplify_cfg"}
    assert len(checked_pipeline) > 1000
