"""Target descriptions: everything the backend needs to know about an ISA.

The paper's experiments report "the size of the generated assembly code",
which only means something relative to a concrete target: how many bytes
each mnemonic encodes to, how many registers the allocator may use, and
what the switch-lowering cost model looks like.  The seed hard-coded one
ISA (RT32); a :class:`TargetDescription` captures those facts as *data*
so the same backend — instruction selection, register allocation,
peephole, size accounting — runs unchanged against any registered target.

The shape follows the classic retargetable-compiler split: a
target-agnostic engine parameterized by per-target constants supplied by
each description (cf. GCC's ``*.md`` machine descriptions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

__all__ = ["TargetDescription", "TargetError"]


class TargetError(ValueError):
    """Raised when a target description is internally inconsistent."""


@dataclass(frozen=True)
class TargetDescription:
    """One ISA, as seen by the RTL backend.

    ``insn_sizes`` maps every RTL mnemonic the backend may emit to its
    encoded size in bytes (``label`` must be present with size 0).  The
    register file is split into ``allocatable_regs`` (callee-saved, in
    allocation-preference order) and ``scratch_regs`` (the two reload
    temporaries the spiller uses).  The remaining constants drive the
    switch-lowering cost model and the immediate-operand classification
    in instruction selection.
    """

    name: str
    description: str
    word_size: int                       # bytes per data word / spill slot
    allocatable_regs: Tuple[str, ...]    # callee-saved, allocation order
    scratch_regs: Tuple[str, str]        # spill reload temporaries
    insn_sizes: Mapping[str, int]        # mnemonic -> encoded bytes
    #: text bytes one compare-chain case costs (one fused ``beqi``)
    compare_chain_per_case: int
    #: text bytes of the jump-table dispatch sequence (+ out-of-range b)
    jump_table_overhead: int
    #: rodata bytes per jump-table slot
    jump_table_entry_size: int = 4
    #: range of the ``li`` (load-immediate) encoding; larger goes ``li32``
    imm16_min: int = -32768
    imm16_max: int = 32767
    #: range of the immediate field folded into ALU/compare instructions
    small_imm_min: int = -2048
    small_imm_max: int = 2047

    def __post_init__(self) -> None:
        if not self.name:
            raise TargetError("target needs a non-empty name")
        if self.word_size <= 0:
            raise TargetError(f"{self.name}: word_size must be positive")
        if "label" not in self.insn_sizes or self.insn_sizes["label"] != 0:
            raise TargetError(
                f"{self.name}: insn_sizes must map 'label' to size 0")
        for op, size in self.insn_sizes.items():
            if op != "label" and size <= 0:
                raise TargetError(
                    f"{self.name}: mnemonic {op!r} has non-positive "
                    f"size {size}")
        if len(self.scratch_regs) != 2:
            raise TargetError(
                f"{self.name}: exactly two scratch registers required")
        overlap = set(self.allocatable_regs) & set(self.scratch_regs)
        if overlap:
            raise TargetError(
                f"{self.name}: registers {sorted(overlap)} are both "
                f"allocatable and scratch")

    # -- instruction sizing ------------------------------------------------
    def insn_size(self, op: str) -> int:
        """Encoded size of *op* in bytes; ``KeyError`` on unknown ops."""
        return self.insn_sizes[op]

    def has_insn(self, op: str) -> bool:
        return op in self.insn_sizes

    # -- immediate classification -----------------------------------------
    def fits_imm16(self, value: int) -> bool:
        """Does *value* fit the target's ``li`` immediate encoding?"""
        return self.imm16_min <= value <= self.imm16_max

    def fits_small_imm(self, value: int) -> bool:
        """Does *value* fit the ALU/compare immediate field?"""
        return self.small_imm_min <= value <= self.small_imm_max

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.name} ({self.description}; "
                f"{len(self.allocatable_regs)} allocatable regs, "
                f"{self.word_size * 8}-bit words)")
