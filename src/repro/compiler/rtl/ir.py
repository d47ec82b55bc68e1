"""RTL: MGCC's low-level IR.

Paper §II.C describes GCC's RTL as "a low-level representation [that]
works well for optimizations that are close to the target".  MGCC's RTL
is a linear instruction stream (with labels) over virtual registers that
instruction selection produces from GIMPLE and that register allocation
rewrites onto the selected target's register file.

An :class:`RInstr` is deliberately generic — mnemonic plus def/use
register lists, an optional immediate, symbol and branch target — so the
register allocator and peephole passes can treat all instructions
uniformly; the mnemonic's entry in the function's
:class:`~..target.TargetDescription` fixes its size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..target.description import TargetDescription
from ..target.registry import resolve_target

__all__ = ["RInstr", "RTLFunction", "label", "is_branch", "BRANCH_OPS"]

#: Mnemonics that end a basic block.
BRANCH_OPS = frozenset({"b", "bnez", "beqz", "jt", "ret",
                        "beq", "bne", "blt", "ble", "bgt", "bge",
                        "beqi", "bnei", "blti", "blei", "bgti", "bgei"})


@dataclass
class RInstr:
    """One RTL instruction.

    ``defs``/``uses`` hold register names: virtual (``v12``) before
    allocation, physical (``s3``/``t0``) after.
    """

    op: str
    defs: Tuple[str, ...] = ()
    uses: Tuple[str, ...] = ()
    imm: Optional[int] = None
    symbol: Optional[str] = None
    target: Optional[str] = None          # branch target label
    table: Optional[Tuple[str, ...]] = None  # jump-table target labels
    comment: str = ""

    def render(self) -> str:
        """Assembly-listing line for this instruction."""
        if self.op == "label":
            return f"{self.target}:"
        parts: List[str] = []
        parts.extend(self.defs)
        parts.extend(self.uses)
        if self.imm is not None:
            parts.append(str(self.imm))
        if self.symbol is not None:
            parts.append(f"@{self.symbol}")
        if self.target is not None:
            parts.append(self.target)
        text = f"    {self.op} " + ", ".join(parts)
        if self.comment:
            text += f"    ; {self.comment}"
        return text


def label(name: str) -> RInstr:
    """A label pseudo-instruction (size 0)."""
    return RInstr("label", target=name)


def is_branch(instr: RInstr) -> bool:
    return instr.op in BRANCH_OPS


@dataclass
class RTLFunction:
    """A function as a linear RTL stream."""

    name: str
    instrs: List[RInstr] = field(default_factory=list)
    frame_slots: int = 0  # spill slots allocated by regalloc
    saved_regs: Tuple[str, ...] = ()
    target: Optional[TargetDescription] = None  # None -> default target

    def emit(self, instr: RInstr) -> RInstr:
        self.instrs.append(instr)
        return instr

    @property
    def target_desc(self) -> TargetDescription:
        """The function's target (the default when none was set)."""
        return resolve_target(self.target)

    @property
    def text_size(self) -> int:
        sizes = self.target_desc.insn_sizes
        return sum(sizes[i.op] for i in self.instrs)

    def listing(self) -> str:
        lines = [f"{self.name}:"]
        lines.extend(i.render() for i in self.instrs)
        return "\n".join(lines)
