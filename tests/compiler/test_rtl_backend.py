"""Unit tests for the RTL layer: isel details, fusion, peephole, regalloc."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.compiler.rtl.ir import RInstr, RTLFunction, is_branch, label
from repro.compiler.rtl.isel import SwitchLowering
from repro.compiler.rtl.peephole import fuse_compare_branches, run_peephole
from repro.compiler.rtl.regalloc import allocate_registers
from repro.compiler.target.rt32 import (ALLOCATABLE_REGS, INSN_SIZES,
                                        fits_imm16, insn_size)

_REPO = pathlib.Path(__file__).resolve().parents[2]


class TestTarget:
    def test_every_size_positive_except_label(self):
        for op, size in INSN_SIZES.items():
            if op == "label":
                assert size == 0
            else:
                assert size > 0, op

    def test_unknown_mnemonic_raises(self):
        with pytest.raises(KeyError):
            insn_size("frobnicate")

    def test_imm16_boundaries(self):
        assert fits_imm16(32767) and fits_imm16(-32768)
        assert not fits_imm16(32768) and not fits_imm16(-32769)

    def test_fused_branches_cost_one_set(self):
        assert INSN_SIZES["beq"] == INSN_SIZES["seteq"]
        assert INSN_SIZES["beq"] < INSN_SIZES["seteq"] + INSN_SIZES["bnez"]


class TestSwitchLoweringPolicy:
    def test_dense_cases_prefer_table_for_size(self):
        policy = SwitchLowering(optimize_for_size=True)
        assert policy.use_jump_table(list(range(10)))

    def test_sparse_cases_prefer_chain_for_size(self):
        policy = SwitchLowering(optimize_for_size=True)
        assert not policy.use_jump_table([0, 1000, 2000])

    def test_speed_policy_uses_density_and_count(self):
        policy = SwitchLowering(optimize_for_size=False)
        assert policy.use_jump_table([0, 1, 2, 3, 4])
        assert not policy.use_jump_table([0, 1, 2])  # too few

    def test_single_case_never_tabled(self):
        assert not SwitchLowering(True).use_jump_table([5])


class TestFusion:
    def make_rtl(self, branch_op="bnez", extra_use=False):
        rtl = RTLFunction("f")
        rtl.emit(RInstr("setlt", defs=("v1",), uses=("v0", "v2")))
        rtl.emit(RInstr(branch_op, uses=("v1",), target=".L"))
        if extra_use:
            rtl.emit(RInstr("mv", defs=("v3",), uses=("v1",)))
        rtl.emit(label(".L"))
        rtl.emit(RInstr("ret"))
        return rtl

    def test_fuses_set_bnez(self):
        rtl = self.make_rtl()
        assert fuse_compare_branches(rtl) == 1
        assert rtl.instrs[0].op == "blt"
        assert rtl.instrs[0].uses == ("v0", "v2")

    def test_beqz_fuses_with_negated_condition(self):
        rtl = self.make_rtl(branch_op="beqz")
        fuse_compare_branches(rtl)
        assert rtl.instrs[0].op == "bge"

    def test_no_fusion_when_result_reused(self):
        rtl = self.make_rtl(extra_use=True)
        assert fuse_compare_branches(rtl) == 0

    def test_immediate_compare_fuses(self):
        rtl = RTLFunction("f")
        rtl.emit(RInstr("seteqi", defs=("v1",), uses=("v0",), imm=4))
        rtl.emit(RInstr("bnez", uses=("v1",), target=".L"))
        rtl.emit(label(".L"))
        rtl.emit(RInstr("ret"))
        fuse_compare_branches(rtl)
        assert rtl.instrs[0].op == "beqi"
        assert rtl.instrs[0].imm == 4


class TestPeephole:
    def test_removes_self_move(self):
        rtl = RTLFunction("f")
        rtl.emit(RInstr("mv", defs=("s0",), uses=("s0",)))
        rtl.emit(RInstr("ret"))
        assert run_peephole(rtl) == 1

    def test_removes_jump_to_next(self):
        rtl = RTLFunction("f")
        rtl.emit(RInstr("b", target=".L"))
        rtl.emit(label(".L"))
        rtl.emit(RInstr("ret"))
        assert run_peephole(rtl) == 1

    def test_keeps_jump_over_code(self):
        rtl = RTLFunction("f")
        rtl.emit(RInstr("b", target=".L2"))
        rtl.emit(label(".L1"))
        rtl.emit(RInstr("ret"))
        rtl.emit(label(".L2"))
        rtl.emit(RInstr("ret"))
        assert run_peephole(rtl) == 0

    def test_collapses_duplicate_li(self):
        rtl = RTLFunction("f")
        rtl.emit(RInstr("li", defs=("s0",), imm=7))
        rtl.emit(RInstr("li", defs=("s0",), imm=7))
        rtl.emit(RInstr("ret"))
        assert run_peephole(rtl) == 1


class TestRegalloc:
    def test_small_function_uses_few_registers(self):
        rtl = RTLFunction("f")
        rtl.emit(RInstr("li", defs=("v0",), imm=1))
        rtl.emit(RInstr("li", defs=("v1",), imm=2))
        rtl.emit(RInstr("add", defs=("v2",), uses=("v0", "v1")))
        rtl.emit(RInstr("retmv", uses=("v2",)))
        rtl.emit(RInstr("ret"))
        allocate_registers(rtl)
        assert len(rtl.saved_regs) <= 3
        assert rtl.frame_slots == 0

    def test_register_reuse_after_death(self):
        # Sequential short-lived values must share registers.
        rtl = RTLFunction("f")
        for i in range(30):
            rtl.emit(RInstr("li", defs=(f"v{i}",), imm=i))
            rtl.emit(RInstr("argmv", uses=(f"v{i}",), imm=0))
            rtl.emit(RInstr("call", symbol="sink"))
        rtl.emit(RInstr("ret"))
        allocate_registers(rtl)
        assert rtl.frame_slots == 0
        assert len(rtl.saved_regs) <= 2

    def test_spill_when_pressure_exceeds_file(self):
        n = len(ALLOCATABLE_REGS) + 3
        rtl = RTLFunction("f")
        for i in range(n):
            rtl.emit(RInstr("li", defs=(f"v{i}",), imm=i))
        # All still live here:
        for i in range(n):
            rtl.emit(RInstr("argmv", uses=(f"v{i}",), imm=0))
        rtl.emit(RInstr("ret"))
        allocate_registers(rtl)
        assert rtl.frame_slots >= 3
        # Spill code uses only scratch registers.
        for instr in rtl.instrs:
            for reg in instr.defs + instr.uses:
                assert not reg.startswith("v"), f"virtual leaked: {instr}"

    def test_tied_intervals_allocate_alike_under_every_hash_seed(self):
        # Eight loop-carried registers live into the loop header: one
        # interval each, all equal, and six registers on rt16.  Ties go
        # by first appearance, never by the order of a set of strings.
        program = textwrap.dedent("""
            from repro.compiler.rtl.ir import RInstr, RTLFunction, label
            from repro.compiler.rtl.regalloc import (allocate_registers,
                                                     live_intervals)
            rtl = RTLFunction("loop")
            rtl.emit(label(".L"))
            for i in range(8):
                rtl.emit(RInstr("addi", defs=(f"v{i}",), uses=(f"v{i}",),
                                imm=1))
            rtl.emit(RInstr("li", defs=("v8",), imm=1))
            rtl.emit(RInstr("bnez", uses=("v8",), target=".L"))
            rtl.emit(RInstr("ret"))
            intervals = live_intervals(rtl)
            assert {intervals[f"v{i}"] for i in range(8)} == {(0, 10)}
            allocate_registers(rtl, target="rt16")
            print(rtl.listing())
            """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(_REPO / "src")] + ([env["PYTHONPATH"]]
                                    if env.get("PYTHONPATH") else []))
        listings = set()
        for seed in range(4):
            env["PYTHONHASHSEED"] = str(seed)
            proc = subprocess.run([sys.executable, "-c", program], env=env,
                                  capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            listings.add(proc.stdout)
        assert len(listings) == 1
        (listing,) = listings
        # The first six to appear take s0-s5; v6 and v7 are spilled.
        for i in range(6):
            assert f"addi s{i}, s{i}, 1" in listing
        assert "spill v6" in listing and "spill v7" in listing

    def test_is_branch_classification(self):
        assert is_branch(RInstr("beqi", uses=("s0",), imm=1, target=".L"))
        assert is_branch(RInstr("ret"))
        assert not is_branch(RInstr("add", defs=("s0",),
                                    uses=("s1", "s2")))
