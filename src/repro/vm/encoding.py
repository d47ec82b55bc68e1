"""Instruction codec: RTL <-> bytes, driven by a TargetDescription.

The assembler and the simulator must agree on what every byte means, and
both must agree with the size accounting the experiments report.  This
module derives everything from the target's
:class:`~repro.compiler.target.description.TargetDescription` — no
parallel opcode table exists to drift out of sync:

* **opcode numbers** are the mnemonic's index in the sorted key list of
  ``insn_sizes`` (``label`` is a pseudo-op and is never encoded);
* **instruction length** is exactly ``insn_sizes[op]`` bytes, so the
  encoded text of a function occupies precisely
  :attr:`RTLFunction.text_size` bytes and every label gets a real
  address;
* **register numbers** are positions in ``allocatable_regs`` +
  ``scratch_regs`` + ``(sp, lr)``.

Operand encoding follows the literal-pool/constant-pool tradition of
compact ISAs and bytecode VMs (Thumb literal pools, Python's
``co_consts``): byte 0 of every instruction is the opcode, and the
remaining payload bytes hold a little-endian index into a per-function,
per-mnemonic **operand pool** interning the instruction's canonical
operand tuple (registers, immediate, symbol, branch target, jump
table).  This keeps the stream byte-exact per the target's declared
encodings — the property the paper's size numbers rest on — without
pretending a 16-bit slot can hold a three-operand add with an 8-bit
immediate at bit level.  The payload width bounds the pool: a 2-byte
rt16 instruction can name 256 distinct operand tuples of its mnemonic
per function, far beyond what any generated machine reaches; exceeding
it raises :class:`EncodingError` rather than silently widening.

:func:`encoding_for` builds each target's encoding once; its
per-mnemonic table holds every (opcode, size, pool capacity) the
encoder and decoder look up.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..compiler.rtl.ir import RInstr
from ..compiler.target.description import TargetDescription

__all__ = ["EncodingError", "OperandPool", "TargetEncoding",
           "encoding_for", "instr_of", "operand_key"]


class EncodingError(Exception):
    """Raised when an instruction cannot be encoded for a target."""


#: Canonical operand tuple of an instruction (everything but the
#: mnemonic and the comment; comments are listing sugar, not semantics).
OperandKey = Tuple[Tuple[str, ...], Tuple[str, ...], Optional[int],
                   Optional[str], Optional[str],
                   Optional[Tuple[str, ...]]]


def operand_key(instr: RInstr) -> OperandKey:
    """The semantic payload of *instr* (drops the comment)."""
    return (tuple(instr.defs), tuple(instr.uses), instr.imm,
            instr.symbol, instr.target,
            tuple(instr.table) if instr.table is not None else None)


def instr_of(op: str, operands: OperandKey) -> RInstr:
    """The instruction a decoded ``(op, operands)`` pair stands for."""
    defs, uses, imm, symbol, target, table = operands
    return RInstr(op, defs=defs, uses=uses, imm=imm, symbol=symbol,
                  target=target, table=table)


class OperandPool:
    """Per-function operand pool: one interning table per mnemonic."""

    def __init__(self) -> None:
        self._entries: Dict[str, List[OperandKey]] = {}
        self._index: Dict[Tuple[str, OperandKey], int] = {}

    def intern(self, op: str, key: OperandKey, max_entries: int) -> int:
        """Index of *key* in the mnemonic's table, adding it if new."""
        probe = self._index.get((op, key))
        if probe is not None:
            return probe
        table = self._entries.setdefault(op, [])
        if len(table) >= max_entries:
            raise EncodingError(
                f"operand pool overflow for {op!r} "
                f"({max_entries} entries fit the payload width)")
        index = len(table)
        table.append(key)
        self._index[(op, key)] = index
        return index

    def lookup(self, op: str, index: int) -> OperandKey:
        try:
            return self._entries[op][index]
        except (KeyError, IndexError):
            raise EncodingError(
                f"no pool entry {index} for mnemonic {op!r}") from None

    def entries(self, op: str) -> List[OperandKey]:
        return list(self._entries.get(op, []))


def _where(context: str, offset: Optional[int]) -> str:
    return context if offset is None else f"{context}+{offset:#x}"


class TargetEncoding:
    """The byte-level view of one target's ISA.

    Build one per target with :func:`encoding_for`; everything here is
    derived once, in the constructor.
    """

    def __init__(self, target: TargetDescription) -> None:
        self.target = target
        self.mnemonics: Tuple[str, ...] = tuple(
            op for op in sorted(target.insn_sizes) if op != "label")
        if len(self.mnemonics) > 256:
            raise EncodingError(
                f"{target.name}: {len(self.mnemonics)} mnemonics exceed "
                "the one-byte opcode space")
        self.opcode_of: Dict[str, int] = {
            op: i for i, op in enumerate(self.mnemonics)}
        self.reg_names: Tuple[str, ...] = (
            tuple(target.allocatable_regs) + tuple(target.scratch_regs)
            + ("sp", "lr"))
        self.reg_num: Dict[str, int] = {
            name: i for i, name in enumerate(self.reg_names)}
        self.registers = frozenset(self.reg_names)
        #: mnemonic -> (opcode, size, pool capacity) for every mnemonic
        #: wide enough to encode (see :meth:`size_of`).
        self.table: Dict[str, Tuple[int, int, int]] = {
            op: (code, size, 1 << (8 * (size - 1)))
            for code, op in enumerate(self.mnemonics)
            for size in (target.insn_sizes[op],) if size >= 2}

    # -- sizing ------------------------------------------------------------
    def size_of(self, op: str) -> int:
        spec = self.table.get(op)
        if spec is not None:
            return spec[1]
        try:
            size = self.target.insn_sizes[op]
        except KeyError:
            raise EncodingError(
                f"{self.target.name} does not encode {op!r}") from None
        if op != "label":
            raise EncodingError(
                f"{self.target.name}: {op!r} is {size} byte(s); the codec "
                "needs an opcode byte plus at least one payload byte")
        return size

    def pool_capacity(self, op: str) -> int:
        """Distinct operand tuples the payload width can index."""
        self.size_of(op)    # raises for a mnemonic the codec cannot encode
        return self.table[op][2]

    # -- encode ------------------------------------------------------------
    def encode(self, instr: RInstr, pool: OperandPool, context: str = "",
               offset: Optional[int] = None) -> bytes:
        """Encode one instruction; interns its operands into *pool*.

        Errors name *context* (and ``+offset`` when given), formatted
        only when one is raised."""
        spec = self.table.get(instr.op)
        registers = self.registers
        if spec is None or not (registers.issuperset(instr.defs)
                                and registers.issuperset(instr.uses)):
            return self._reject(instr, _where(context, offset))
        opcode, size, capacity = spec
        try:
            index = pool.intern(instr.op, operand_key(instr), capacity)
        except EncodingError as exc:
            raise EncodingError(f"{_where(context, offset)}: {exc}") \
                from None
        return bytes((opcode,)) + index.to_bytes(size - 1, "little")

    def _reject(self, instr: RInstr, where: str) -> bytes:
        """Encode what the fast path of :meth:`encode` does not: a label
        (no bytes), or raise why *instr* cannot be encoded."""
        if instr.op == "label":
            return b""
        if instr.op not in self.opcode_of:
            raise EncodingError(
                f"{where}: {self.target.name} does not encode "
                f"{instr.op!r}")
        for reg in tuple(instr.defs) + tuple(instr.uses):
            if reg not in self.registers:
                raise EncodingError(
                    f"{where}: register {reg!r} is not in the "
                    f"{self.target.name} register file (virtual register "
                    "reached the assembler?)")
        self.size_of(instr.op)   # raises: no room for a payload byte
        raise AssertionError(f"{instr.op!r} should have encoded")

    # -- decode ------------------------------------------------------------
    def decode(self, data: bytes, offset: int, pool: OperandPool
               ) -> Tuple[str, OperandKey, int]:
        """Decode the instruction at *offset*: ``(op, operands, size)``,
        *operands* being the :func:`operand_key` the pool interned
        (:func:`instr_of` turns the pair back into an ``RInstr``)."""
        try:
            opcode = data[offset]
        except IndexError:
            raise EncodingError(f"decode past end of text at +{offset}") \
                from None
        try:
            op = self.mnemonics[opcode]
        except IndexError:
            raise EncodingError(f"unknown opcode {opcode} at +{offset}") \
                from None
        size = self.size_of(op)
        payload = data[offset + 1:offset + size]
        if len(payload) != size - 1:
            raise EncodingError(
                f"truncated {op!r} at +{offset}: {len(payload)} payload "
                f"byte(s), expected {size - 1}")
        return op, pool.lookup(op, int.from_bytes(payload, "little")), size


#: One encoding per target, keyed by identity: a description is
#: unhashable (``insn_sizes`` is a dict), and the cached encoding holds
#: its description, so an id stays taken while it is cached.
_ENCODINGS: Dict[int, TargetEncoding] = {}


def encoding_for(target: TargetDescription) -> TargetEncoding:
    """*target*'s :class:`TargetEncoding`, built on first use."""
    encoding = _ENCODINGS.get(id(target))
    if encoding is None:
        encoding = _ENCODINGS.setdefault(id(target),
                                         TargetEncoding(target))
    return encoding
