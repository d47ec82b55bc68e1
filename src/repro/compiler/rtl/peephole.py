"""Peephole optimization over the RTL stream.

The classic RTL-level cleanups GCC performs close to the target
(paper §II.C: "register allocation, peepholes optimizations, etc."):

* delete self-moves (``mv rX, rX``) produced by copy coalescing;
* delete unconditional branches to the immediately following label;
* collapse ``li`` of a constant immediately re-materialized into the
  same register;
* delete dead labels only when asked (labels are size 0 so they never
  affect code size; they are kept for readability).

Runs after register allocation, so each deleted instruction saves real
encoded bytes.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Union

from ..target.description import TargetDescription
from ..target.registry import resolve_target
from .ir import RInstr, RTLFunction

__all__ = ["run_peephole", "fuse_compare_branches"]

_SET_TO_BRANCH = {"seteq": "beq", "setne": "bne", "setlt": "blt",
                  "setle": "ble", "setgt": "bgt", "setge": "bge"}
_SET_TO_BRANCH_IMM = {"seteqi": "beqi", "setnei": "bnei", "setlti": "blti",
                      "setlei": "blei", "setgti": "bgti", "setgei": "bgei"}
#: branch mnemonic testing the *negated* condition (for beqz fusion)
_NEGATED = {"beq": "bne", "bne": "beq", "blt": "bge", "ble": "bgt",
            "bgt": "ble", "bge": "blt",
            "beqi": "bnei", "bnei": "beqi", "blti": "bgei", "blei": "bgti",
            "bgti": "blei", "bgei": "blti"}


def fuse_compare_branches(rtl: RTLFunction,
                          target: Union[TargetDescription, str, None] = None,
                          ) -> int:
    """Fuse ``set<cc> v, a, b; bnez v, L`` into ``b<cc> a, b, L``.

    Runs on virtual-register RTL (before allocation), where use counts
    are reliable: the fusion fires only when the compare result feeds
    exactly that one branch.  ``beqz`` fuses with the negated condition.
    Saves one full set encoding per compare-driven branch — the dominant
    pattern in switch chains and table-scan loops.  Fusion is skipped for
    mnemonics the target does not encode.
    """
    tgt = resolve_target(target) if target is not None else rtl.target_desc
    use_count: Counter = Counter()
    for instr in rtl.instrs:
        for reg in instr.uses:
            use_count[reg] += 1
    fused = 0
    new_instrs: List[RInstr] = []
    i = 0
    while i < len(rtl.instrs):
        instr = rtl.instrs[i]
        nxt = rtl.instrs[i + 1] if i + 1 < len(rtl.instrs) else None
        branch_map = _SET_TO_BRANCH.get(instr.op) and _SET_TO_BRANCH or \
            (_SET_TO_BRANCH_IMM.get(instr.op) and _SET_TO_BRANCH_IMM)
        if branch_map and nxt is not None and \
                nxt.op in ("bnez", "beqz") and \
                nxt.uses == instr.defs and use_count[instr.defs[0]] == 1:
            mnemonic = branch_map[instr.op]
            if nxt.op == "beqz":
                mnemonic = _NEGATED[mnemonic]
            if not tgt.has_insn(mnemonic):
                new_instrs.append(instr)
                i += 1
                continue
            new_instrs.append(RInstr(mnemonic, uses=instr.uses,
                                     imm=instr.imm, target=nxt.target,
                                     comment=instr.comment))
            fused += 1
            i += 2
            continue
        new_instrs.append(instr)
        i += 1
    rtl.instrs = new_instrs
    return fused


def _next_label(instrs: List[RInstr], index: int) -> str:
    """Label name directly following *index* (skipping nothing)."""
    j = index + 1
    while j < len(instrs) and instrs[j].op == "label":
        if instrs[j].target is not None:
            return instrs[j].target
        j += 1
    return ""


def run_peephole(rtl: RTLFunction) -> int:
    """Apply peepholes until fixpoint; returns instructions removed."""
    removed = 0
    changed = True
    while changed:
        changed = False
        new_instrs: List[RInstr] = []
        i = 0
        instrs = rtl.instrs
        while i < len(instrs):
            instr = instrs[i]
            # mv rX, rX
            if instr.op == "mv" and instr.defs and instr.uses and \
                    instr.defs[0] == instr.uses[0]:
                removed += 1
                changed = True
                i += 1
                continue
            # b .L ; .L:
            if instr.op == "b" and instr.target is not None:
                j = i + 1
                labels_between = []
                while j < len(instrs) and instrs[j].op == "label":
                    labels_between.append(instrs[j].target)
                    j += 1
                if instr.target in labels_between:
                    removed += 1
                    changed = True
                    i += 1
                    continue
            # li rX, k ; li rX, k   (identical re-materialization)
            if instr.op in ("li", "li32") and new_instrs:
                prev = new_instrs[-1]
                if prev.op == instr.op and prev.defs == instr.defs and \
                        prev.imm == instr.imm:
                    removed += 1
                    changed = True
                    i += 1
                    continue
            new_instrs.append(instr)
            i += 1
        rtl.instrs = new_instrs
    return removed
