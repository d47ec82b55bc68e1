"""Assembling and loading: AsmModule -> executable memory image.

``assemble`` is the reproduction's assembler+linker: it lays the
module's functions out in one text segment (every instruction at the
byte address the target's ``insn_sizes`` dictate, labels at size-0
addresses), encodes each instruction through the target's
:class:`~.encoding.TargetEncoding`, places the data objects in a data
segment, and resolves every symbol — function entries, globals, and the
``fn:block`` references jump tables carry — to a concrete address.

It then decodes every instruction from the image's own bytes, whether
or not it ever runs, into the **entry** the simulator executes at that
pc: ``(handler, operands, size, base cycles)``, the handler and cost
taken from :mod:`.machine`'s per-mnemonic table.  What runs is what was
encoded, and an encoder/decoder disagreement anywhere in the text fails
the assembly.  ``len(image.text) == module.text_size`` by construction
— the byte count the experiments report is the byte count the
simulator addresses.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from ..compiler.asm import AsmModule
from ..compiler.gimple.ir import SymbolRef
from ..compiler.rtl.ir import RInstr
from ..compiler.target.description import TargetDescription
from ..compiler.target.registry import resolve_target
from ..obs.trace import span as _span
from .encoding import (EncodingError, OperandKey, OperandPool,
                       TargetEncoding, encoding_for, instr_of)

__all__ = ["Image", "assemble", "TEXT_BASE", "DATA_BASE", "STACK_BASE",
           "HALT_ADDRESS"]

#: Segment bases.  Text sits low (function entry addresses double as
#: call targets), data high, the stack at the top growing down.
TEXT_BASE = 0x0000_1000
DATA_BASE = 0x1000_0000
STACK_BASE = 0x3000_0000
#: Return address of the outermost frame; ``ret`` to it halts the run.
HALT_ADDRESS = 0x0

#: What the simulator executes at one pc: ``(handler, operands, encoded
#: size, base cycles)`` (see :mod:`.machine`).
Entry = Tuple[Callable, OperandKey, int, int]


@dataclass
class Image:
    """One loaded module: encoded text + placed data + symbol tables."""

    module: AsmModule
    target: TargetDescription
    encoding: TargetEncoding
    text: bytes = b""
    func_entry: Dict[str, int] = field(default_factory=dict)
    entry_func: Dict[int, str] = field(default_factory=dict)
    label_addr: Dict[str, int] = field(default_factory=dict)
    data_addr: Dict[str, int] = field(default_factory=dict)
    data_word_size: Dict[str, int] = field(default_factory=dict)
    initial_memory: Dict[int, int] = field(default_factory=dict)
    pools: Dict[str, OperandPool] = field(default_factory=dict)
    #: pc -> the decoded instruction's execution entry
    entries: Dict[int, Entry] = field(default_factory=dict)

    # -- symbols -----------------------------------------------------------
    def address_of(self, symbol: str) -> int:
        """Address of a data object, function, or ``fn:block`` label."""
        if symbol in self.data_addr:
            return self.data_addr[symbol]
        if symbol in self.func_entry:
            return self.func_entry[symbol]
        if ":" in symbol and not symbol.startswith("."):
            fn_name, _, block = symbol.rpartition(":")
            qualified = f".{fn_name}.{block}"
            if qualified in self.label_addr:
                return self.label_addr[qualified]
        if symbol in self.label_addr:
            return self.label_addr[symbol]
        raise EncodingError(f"unresolved symbol {symbol!r}")

    def at(self, pc: int) -> Tuple[RInstr, int, str]:
        """Decoded instruction at *pc* (instr, size, function name)."""
        if pc not in self.entries:
            raise EncodingError(
                f"no instruction at {pc:#x} (fell off the text "
                "segment?)")
        # Functions are laid out in order, so the owner of *pc* is the
        # last one that starts at or before it.
        starts = sorted(self.entry_func)
        owner = self.entry_func[starts[bisect.bisect_right(starts, pc) - 1]]
        op, operands, size = self.encoding.decode(
            self.text, pc - TEXT_BASE, self.pools[owner])
        return instr_of(op, operands), size, owner


def assemble(module: AsmModule, target=None) -> Image:
    """Assemble *module* into an executable :class:`Image`.

    *target* (a description, a registered name, or None) defaults to
    the module's own target (which every driver compile sets); passing
    a *different* one is an error waiting to happen and therefore
    rejected.
    """
    sp = _span("stage.assemble")
    if sp.recording:
        sp.set(module=module.name)
    with sp:
        return _assemble(module, target)


def _assemble(module: AsmModule, target=None) -> Image:
    # The simulator's handler table; machine.py imports this module.
    from .machine import step_of

    tgt = module.target if module.target is not None \
        else resolve_target(target)
    if target is not None and resolve_target(target).name != tgt.name:
        raise EncodingError(
            f"module {module.name!r} was compiled for {tgt.name}; "
            f"refusing to assemble it as {resolve_target(target).name}")
    encoding = encoding_for(tgt)
    image = Image(module=module, target=tgt, encoding=encoding)

    # Pass 1: layout — assign every instruction and label its address.
    size_of = encoding.size_of
    addr = TEXT_BASE
    placed: List[Tuple[str, int, RInstr, int]] = []   # (fn, addr, instr, size)
    for fn in module.functions:
        image.func_entry[fn.name] = addr
        image.entry_func[addr] = fn.name
        for instr in fn.instrs:
            if instr.op == "label":
                image.label_addr[instr.target] = addr
                continue
            size = size_of(instr.op)
            placed.append((fn.name, addr, instr, size))
            addr += size

    # Pass 2: encode.  The pool is per function, like a literal pool.
    encode = encoding.encode
    pools = image.pools
    chunks: List[bytes] = []
    for fn_name, at, instr, _size in placed:
        pool = pools.get(fn_name)
        if pool is None:
            pool = pools[fn_name] = OperandPool()
        chunks.append(encode(instr, pool, fn_name, at - TEXT_BASE))
    image.text = b"".join(chunks)
    if len(image.text) != module.text_size:
        raise EncodingError(
            f"assembler laid out {len(image.text)} text bytes but the "
            f"module accounts {module.text_size} — size model broken")

    # Pass 3: place data (one guard word between objects, as the GIMPLE
    # interpreter does) and resolve initializer symbols.
    daddr = DATA_BASE
    for obj in module.data_objects:
        image.data_addr[obj.name] = daddr
        image.data_word_size[obj.name] = obj.word_size
        daddr += max(obj.size, 4) + 4
    for obj in module.data_objects:
        base = image.data_addr[obj.name]
        for i, word in enumerate(obj.words):
            value = image.address_of(word.symbol) \
                if isinstance(word, SymbolRef) else int(word)
            image.initial_memory[base + obj.word_size * i] = value

    # Pass 4: decode every instruction from the bytes, whether or not it
    # ever runs, into the entry the simulator executes.  Execution
    # consumes only these entries, so any encoder/decoder disagreement
    # is caught here, not in a conformance mismatch later.
    decode = encoding.decode
    text = image.text
    entries = image.entries
    for fn_name, at, original, laid_out in placed:
        offset = at - TEXT_BASE
        op, operands, size = decode(text, offset, pools[fn_name])
        if op != original.op or size != laid_out:
            raise EncodingError(
                f"{fn_name}+{offset:#x}: decoded {op!r}/{size}B, "
                f"encoded {original.op!r}")
        handler, cycles = step_of(op)
        entries[at] = (handler, operands, size, cycles)
    return image
