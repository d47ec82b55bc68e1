"""Common subexpression elimination (dominator-scoped value numbering).

The SSA analogue of GCC's FRE: pure expressions (arithmetic, comparisons,
constants, symbol addresses) computed more than once on a dominating path
are replaced by the first computation.  Address arithmetic produced by
array indexing (``base + i*24`` repeated for every field of a table row)
is the main beneficiary — without CSE the table-pattern engine recomputes
the row address for every field access.

Loads are *not* value-numbered (memory may change between them); copy
propagation + DCE clean up the replacement moves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..gimple.cfg import remove_unreachable_blocks
from ..gimple.dom import dominators
from ..gimple.ir import (BinOp, Const, GimpleFunction, Instr, LoadAddr, Move,
                         Reg, UnOp)

__all__ = ["run_cse"]

_COMMUTATIVE = {"+", "*", "==", "!="}


def _key(instr: Instr) -> Optional[Tuple]:
    if isinstance(instr, Const):
        return ("const", instr.value)
    if isinstance(instr, LoadAddr):
        return ("addr", instr.symbol, instr.offset)
    if isinstance(instr, UnOp):
        return ("un", instr.op, instr.a)
    if isinstance(instr, BinOp):
        a, b = instr.a, instr.b
        if instr.op in _COMMUTATIVE:
            ka = (0, a) if isinstance(a, int) else (1, str(a))
            kb = (0, b) if isinstance(b, int) else (1, str(b))
            if kb < ka:
                a, b = b, a
        return ("bin", instr.op, a, b)
    return None


def run_cse(fn: GimpleFunction) -> int:
    """Run dominator-scoped CSE on SSA-form *fn*; returns replacements."""
    remove_unreachable_blocks(fn)
    dom = dominators(fn)
    available: Dict[Tuple, Reg] = {}
    replaced = 0
    # Preorder walk of the dominator tree on an explicit stack: an entry
    # is a block label, or the list of keys a block made available,
    # withdrawn once its whole subtree is done.
    work: List[object] = [fn.entry]
    while work:
        label = work.pop()
        if isinstance(label, list):
            for key in label:
                del available[key]
            continue
        block = fn.blocks[label]
        added: List[Tuple] = []
        new_instrs: List[Instr] = []
        for instr in block.instrs:
            key = _key(instr)
            if key is not None:
                existing = available.get(key)
                if existing is not None:
                    new_instrs.append(Move(instr.dst, existing))
                    replaced += 1
                    continue
                available[key] = instr.dst
                added.append(key)
            new_instrs.append(instr)
        block.instrs = new_instrs
        work.append(added)
        work.extend(reversed(dom.children.get(label, ())))
    return replaced
