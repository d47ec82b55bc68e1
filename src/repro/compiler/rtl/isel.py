"""Instruction selection: GIMPLE -> target RTL.

Walks the (non-SSA) GIMPLE blocks in layout order and emits a linear RTL
stream with one virtual register per GIMPLE register.  The interesting
decision is ``switch`` lowering — like GCC, MGCC picks between

* a **compare chain** (one ``beqi`` per case), and
* a **jump table** (fixed dispatch sequence + one rodata word per slot in
  the dense value range),

choosing whichever is smaller under ``-Os`` and using a density heuristic
otherwise.  The chosen table data is appended to the program's rodata.
The cost constants and immediate ranges come from the selected
:class:`~..target.TargetDescription`, so different targets can make
different lowering decisions for the same GIMPLE (RT16's wide table
dispatch pushes it toward chains where RT32 tables).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Union

from ..gimple import ir as g
from ..target.description import TargetDescription
from ..target.registry import resolve_target
from .ir import RInstr, RTLFunction, label

__all__ = ["select_function", "SwitchLowering"]

_CMP_MNEMONIC = {"==": "seteq", "!=": "setne", "<": "setlt",
                 "<=": "setle", ">": "setgt", ">=": "setge"}
#: op usable when the operands of a comparison are swapped
_MIRRORED_CMP = {"==": "==", "!=": "!=", "<": ">", "<=": ">=",
                 ">": "<", ">=": "<="}
#: Outside -Os, a switch becomes a jump table when it has at least this
#: many cases and fills at least this share of its value span.
_JUMP_TABLE_MIN_CASES = 4
_JUMP_TABLE_MIN_DENSITY = 0.5


class SwitchLowering:
    """Switch lowering policy (size-driven under -Os)."""

    def __init__(self, optimize_for_size: bool = False,
                 target: Union[TargetDescription, str, None] = None) -> None:
        self.optimize_for_size = optimize_for_size
        self.target = resolve_target(target)

    def use_jump_table(self, case_values: List[int],
                       target: Optional[TargetDescription] = None) -> bool:
        tgt = target if target is not None else self.target
        if len(case_values) < 2:
            return False
        span = max(case_values) - min(case_values) + 1
        chain_cost = tgt.compare_chain_per_case * len(case_values)
        table_cost = (tgt.jump_table_overhead
                      + tgt.jump_table_entry_size * span)
        if self.optimize_for_size:
            return table_cost < chain_cost
        density = len(case_values) / span
        return (len(case_values) >= _JUMP_TABLE_MIN_CASES
                and density >= _JUMP_TABLE_MIN_DENSITY)


class _FnSelector:
    def __init__(self, fn: g.GimpleFunction, lowering: SwitchLowering,
                 rodata_sink, target: TargetDescription) -> None:
        self.fn = fn
        self.lowering = lowering
        self.rodata_sink = rodata_sink
        self.target = target
        self.rtl = RTLFunction(fn.name, target=target)
        self.vreg_of: Dict[g.Reg, str] = {}
        self._counter = itertools.count()
        self._jt_counter = itertools.count()

    # -- registers -------------------------------------------------------
    def vreg(self, reg: g.Reg) -> str:
        if reg not in self.vreg_of:
            self.vreg_of[reg] = f"v{len(self.vreg_of)}"
        return self.vreg_of[reg]

    def fresh(self) -> str:
        return f"vt{next(self._counter)}"

    def operand(self, op: g.Operand) -> str:
        """Materialize an operand into a register name."""
        if isinstance(op, g.Reg):
            return self.vreg(op)
        dst = self.fresh()
        self.emit_li(dst, op)
        return dst

    def emit_li(self, dst: str, value: int) -> None:
        op = "li" if self.target.fits_imm16(value) else "li32"
        self.rtl.emit(RInstr(op, defs=(dst,), imm=value))

    # -- driver ------------------------------------------------------------
    def run(self) -> RTLFunction:
        # Parameters arrive in virtual argument slots; model the ABI moves.
        for i, param in enumerate(self.fn.params):
            self.rtl.emit(RInstr("argmv", defs=(self.vreg(param),), imm=i,
                                 comment=f"param {param}"))
        order = list(self.fn.blocks)
        for idx, blk_label in enumerate(order):
            block = self.fn.blocks[blk_label]
            self.rtl.emit(label(self._blk(blk_label)))
            for instr in block.instrs:
                self.select_instr(instr)
            next_label = order[idx + 1] if idx + 1 < len(order) else None
            self.select_terminator(block.terminator, next_label)
        return self.rtl

    def _blk(self, blk_label: str) -> str:
        return f".{self.fn.name}.{blk_label}"

    # -- instructions -----------------------------------------------------
    def select_instr(self, instr: g.Instr) -> None:
        if isinstance(instr, g.Const):
            self.emit_li(self.vreg(instr.dst), instr.value)
        elif isinstance(instr, g.Move):
            if isinstance(instr.src, int):
                self.emit_li(self.vreg(instr.dst), instr.src)
            else:
                self.rtl.emit(RInstr("mv", defs=(self.vreg(instr.dst),),
                                     uses=(self.vreg(instr.src),)))
        elif isinstance(instr, g.BinOp):
            self.select_binop(instr)
        elif isinstance(instr, g.UnOp):
            if instr.op == "-":
                self.rtl.emit(RInstr("neg", defs=(self.vreg(instr.dst),),
                                     uses=(self.operand(instr.a),)))
            else:  # logical not: dst = (a == 0)
                a = self.operand(instr.a)
                zero = self.fresh()
                self.emit_li(zero, 0)
                self.rtl.emit(RInstr("seteq", defs=(self.vreg(instr.dst),),
                                     uses=(a, zero)))
        elif isinstance(instr, g.Load):
            self.rtl.emit(RInstr("lw", defs=(self.vreg(instr.dst),),
                                 uses=(self.vreg(instr.base),),
                                 imm=instr.offset))
        elif isinstance(instr, g.Store):
            self.rtl.emit(RInstr("sw", uses=(self.operand(instr.src),
                                             self.vreg(instr.base)),
                                 imm=instr.offset))
        elif isinstance(instr, g.LoadGlobal):
            self.rtl.emit(RInstr("lwg", defs=(self.vreg(instr.dst),),
                                 symbol=instr.symbol, imm=instr.offset))
        elif isinstance(instr, g.StoreGlobal):
            self.rtl.emit(RInstr("swg", uses=(self.operand(instr.src),),
                                 symbol=instr.symbol, imm=instr.offset))
        elif isinstance(instr, g.LoadAddr):
            self.rtl.emit(RInstr("la", defs=(self.vreg(instr.dst),),
                                 symbol=instr.symbol, imm=instr.offset))
        elif isinstance(instr, g.Call):
            self.select_call(instr)
        elif isinstance(instr, g.CallIndirect):
            self.select_call_indirect(instr)
        elif isinstance(instr, g.Phi):
            raise g.IRError("phi reached instruction selection; run "
                            "from_ssa first")
        else:  # pragma: no cover - defensive
            raise g.IRError(f"unselectable instruction {instr}")

    def select_binop(self, instr: g.BinOp) -> None:
        dst = self.vreg(instr.dst)
        if instr.op in ("+", "-") and isinstance(instr.b, int) and \
                self.target.fits_small_imm(instr.b) and \
                isinstance(instr.a, g.Reg):
            imm = instr.b if instr.op == "+" else -instr.b
            self.rtl.emit(RInstr("addi", defs=(dst,),
                                 uses=(self.vreg(instr.a),), imm=imm))
            return
        if instr.op in _CMP_MNEMONIC:
            # Compare-with-immediate avoids materializing the constant.
            a_op, b_op, op = instr.a, instr.b, instr.op
            if isinstance(a_op, int) and not isinstance(b_op, int):
                a_op, b_op = b_op, a_op
                op = _MIRRORED_CMP[op]
            if isinstance(b_op, int) and \
                    self.target.fits_small_imm(b_op) and \
                    isinstance(a_op, g.Reg):
                self.rtl.emit(RInstr(_CMP_MNEMONIC[op] + "i", defs=(dst,),
                                     uses=(self.vreg(a_op),), imm=b_op))
                return
            a = self.operand(instr.a)
            b = self.operand(instr.b)
            self.rtl.emit(RInstr(_CMP_MNEMONIC[instr.op], defs=(dst,),
                                 uses=(a, b)))
            return
        a = self.operand(instr.a)
        b = self.operand(instr.b)
        mnemonic = {"+": "add", "-": "sub", "*": "mul",
                    "/": "div", "%": "mod"}[instr.op]
        self.rtl.emit(RInstr(mnemonic, defs=(dst,), uses=(a, b)))

    def select_call(self, instr: g.Call) -> None:
        for i, arg in enumerate(instr.args):
            self.rtl.emit(RInstr("argmv", uses=(self.operand(arg),), imm=i))
        self.rtl.emit(RInstr("call", symbol=instr.callee))
        if instr.dst is not None:
            self.rtl.emit(RInstr("retmv", defs=(self.vreg(instr.dst),)))

    def select_call_indirect(self, instr: g.CallIndirect) -> None:
        for i, arg in enumerate(instr.args):
            self.rtl.emit(RInstr("argmv", uses=(self.operand(arg),), imm=i))
        self.rtl.emit(RInstr("callr", uses=(self.vreg(instr.target),)))
        if instr.dst is not None:
            self.rtl.emit(RInstr("retmv", defs=(self.vreg(instr.dst),)))

    # -- terminators --------------------------------------------------------
    def select_terminator(self, term: g.Terminator,
                          next_label: Optional[str]) -> None:
        if isinstance(term, g.Jump):
            if term.target != next_label:
                self.rtl.emit(RInstr("b", target=self._blk(term.target)))
        elif isinstance(term, g.Branch):
            cond = self.operand(term.cond)
            self.rtl.emit(RInstr("bnez", uses=(cond,),
                                 target=self._blk(term.if_true)))
            if term.if_false != next_label:
                self.rtl.emit(RInstr("b", target=self._blk(term.if_false)))
        elif isinstance(term, g.SwitchTerm):
            self.select_switch(term, next_label)
        elif isinstance(term, g.Ret):
            if term.value is not None:
                self.rtl.emit(RInstr("retmv", uses=(self.operand(term.value),),
                                     comment="return value to a0"))
            self.rtl.emit(RInstr("ret"))
        else:  # pragma: no cover - defensive
            raise g.IRError(f"unselectable terminator {term}")

    def select_switch(self, term: g.SwitchTerm,
                      next_label: Optional[str]) -> None:
        value = self.operand(term.value)
        case_values = sorted(term.cases)
        # Cost the decision against the target actually being selected
        # for, which may differ from the lowering's default target.
        if self.lowering.use_jump_table(case_values, target=self.target):
            lo, hi = case_values[0], case_values[-1]
            slots: List[str] = []
            for v in range(lo, hi + 1):
                target = term.cases.get(v, term.default)
                slots.append(f"{self.fn.name}:{target}")
            table_name = (f"{self.fn.name}.jt{next(self._jt_counter)}")
            self.rodata_sink(table_name, slots)
            self.rtl.emit(RInstr("jt", uses=(value,), imm=lo,
                                 symbol=table_name,
                                 target=self._blk(term.default),
                                 table=tuple(self._blk(term.cases.get(v, term.default))
                                             for v in range(lo, hi + 1)),
                                 comment=f"jump table [{lo}..{hi}]"))
            self.rtl.emit(RInstr("b", target=self._blk(term.default),
                                 comment="out-of-range"))
        else:
            for v in case_values:
                self.rtl.emit(RInstr("beqi", uses=(value,), imm=v,
                                     target=self._blk(term.cases[v])))
            if term.default != next_label:
                self.rtl.emit(RInstr("b", target=self._blk(term.default)))


def select_function(fn: g.GimpleFunction, lowering: SwitchLowering,
                    rodata_sink,
                    target: Union[TargetDescription, str, None] = None,
                    ) -> RTLFunction:
    """Lower *fn* to RTL for *target* (default: the lowering's target).
    ``rodata_sink(name, symbol_list)`` receives any jump tables the
    lowering creates."""
    resolved = lowering.target if target is None else resolve_target(target)
    return _FnSelector(fn, lowering, rodata_sink, resolved).run()
