"""MGCC middle-end IR ("GIMPLE").

A three-address, basic-block IR modeled on GCC's GIMPLE (paper §II.C:
since GCC 4.0 the middle end works on a tree/SSA form because "most of
the discovered optimization algorithms are mathematical ones that need to
be executed on a higher abstract level than the RTL").

Values are virtual registers (:class:`Reg`) or integer immediates.
Memory is explicit: ``Load``/``Store`` go through a base register +
constant offset; globals are addressed by symbol.  Functions own an
ordered mapping of labeled basic blocks, each ending in exactly one
terminator.  ``Phi`` instructions appear only between SSA construction
and SSA destruction.

The IR is deliberately *not* typed beyond word/pointer uniformity: the
RT32 target is ILP32 and every scalar the C++ subset can produce fits in
one 32-bit word, exactly the simplification embedded compilers of the
paper's era made in their RTL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar, Union)

__all__ = [
    "Reg", "Operand", "Instr", "Const", "Move", "BinOp", "UnOp",
    "Load", "Store", "LoadGlobal", "StoreGlobal", "LoadAddr",
    "Call", "CallIndirect", "Phi",
    "Terminator", "Jump", "Branch", "SwitchTerm", "Ret",
    "BasicBlock", "GimpleFunction", "DataItem", "SymbolRef", "DataObject",
    "Program", "IRError", "copy_node",
]

T = TypeVar("T")

BIN_OPS = {"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!="}
UN_OPS = {"-", "!"}


class IRError(Exception):
    """Raised on malformed IR constructions."""


@dataclass(frozen=True)
class Reg:
    """A virtual register.  ``version`` is used by SSA renaming."""

    name: str
    version: int = 0

    def __str__(self) -> str:
        if self.version:
            return f"%{self.name}.{self.version}"
        return f"%{self.name}"


Operand = Union[Reg, int]


def _fmt(op: Operand) -> str:
    return str(op)


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------

class Instr:
    """Base class: one non-terminator instruction.

    Every concrete instruction exposes ``dst`` — either as a dataclass
    field (value-producing instructions) or as a ``None`` class attribute
    (pure effects like stores).  The attribute is deliberately *not*
    declared here: an inherited class-attribute default would leak into
    subclass dataclass field ordering.
    """

    def uses(self) -> List[Reg]:
        """Registers read by this instruction."""
        return [op for op in self._operands() if isinstance(op, Reg)]

    def _operands(self) -> Sequence[Operand]:
        return ()

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> "Instr":
        """Return a copy with uses substituted per *mapping*."""
        raise NotImplementedError

    @property
    def has_side_effects(self) -> bool:
        return False


@dataclass
class Const(Instr):
    dst: Reg
    value: int

    def _operands(self):
        return ()

    def replace_uses(self, mapping):
        return self

    def __str__(self):
        return f"{self.dst} = const {self.value}"


def _sub(op: Operand, mapping: Dict[Reg, Operand]) -> Operand:
    if isinstance(op, Reg) and op in mapping:
        return mapping[op]
    return op


@dataclass
class Move(Instr):
    dst: Reg
    src: Operand

    def _operands(self):
        return (self.src,)

    def replace_uses(self, mapping):
        return Move(self.dst, _sub(self.src, mapping))

    def __str__(self):
        return f"{self.dst} = {_fmt(self.src)}"


@dataclass
class BinOp(Instr):
    dst: Reg
    op: str
    a: Operand
    b: Operand

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise IRError(f"bad binary op {self.op!r}")

    def _operands(self):
        return (self.a, self.b)

    def replace_uses(self, mapping):
        return BinOp(self.dst, self.op, _sub(self.a, mapping),
                     _sub(self.b, mapping))

    def __str__(self):
        return f"{self.dst} = {_fmt(self.a)} {self.op} {_fmt(self.b)}"


@dataclass
class UnOp(Instr):
    dst: Reg
    op: str
    a: Operand

    def __post_init__(self):
        if self.op not in UN_OPS:
            raise IRError(f"bad unary op {self.op!r}")

    def _operands(self):
        return (self.a,)

    def replace_uses(self, mapping):
        return UnOp(self.dst, self.op, _sub(self.a, mapping))

    def __str__(self):
        return f"{self.dst} = {self.op}{_fmt(self.a)}"


@dataclass
class Load(Instr):
    """Word load: ``dst = *(base + offset)``."""

    dst: Reg
    base: Reg
    offset: int = 0

    def _operands(self):
        return (self.base,)

    def replace_uses(self, mapping):
        base = _sub(self.base, mapping)
        if not isinstance(base, Reg):
            raise IRError("load base folded to a constant")
        return Load(self.dst, base, self.offset)

    def __str__(self):
        return f"{self.dst} = load [{self.base}+{self.offset}]"


@dataclass
class Store(Instr):
    """Word store: ``*(base + offset) = src``."""

    base: Reg
    offset: int
    src: Operand
    dst = None

    def _operands(self):
        return (self.base, self.src)

    def replace_uses(self, mapping):
        base = _sub(self.base, mapping)
        if not isinstance(base, Reg):
            raise IRError("store base folded to a constant")
        return Store(base, self.offset, _sub(self.src, mapping))

    @property
    def has_side_effects(self):
        return True

    def __str__(self):
        return f"store [{self.base}+{self.offset}] = {_fmt(self.src)}"


@dataclass
class LoadGlobal(Instr):
    """``dst = symbol[offset]`` (word load from a global object)."""

    dst: Reg
    symbol: str
    offset: int = 0

    def replace_uses(self, mapping):
        return self

    def __str__(self):
        return f"{self.dst} = load @{self.symbol}+{self.offset}"


@dataclass
class StoreGlobal(Instr):
    """``symbol[offset] = src``."""

    symbol: str
    offset: int
    src: Operand
    dst = None

    def _operands(self):
        return (self.src,)

    def replace_uses(self, mapping):
        return StoreGlobal(self.symbol, self.offset, _sub(self.src, mapping))

    @property
    def has_side_effects(self):
        return True

    def __str__(self):
        return f"store @{self.symbol}+{self.offset} = {_fmt(self.src)}"


@dataclass
class LoadAddr(Instr):
    """``dst = &symbol`` — address of a global object or function."""

    dst: Reg
    symbol: str
    offset: int = 0

    def replace_uses(self, mapping):
        return self

    def __str__(self):
        return f"{self.dst} = addr @{self.symbol}+{self.offset}"


@dataclass
class Call(Instr):
    """Direct call.  ``dst`` may be None for void calls."""

    dst: Optional[Reg]
    callee: str
    args: Tuple[Operand, ...] = ()

    def _operands(self):
        return self.args

    def replace_uses(self, mapping):
        return Call(self.dst, self.callee,
                    tuple(_sub(a, mapping) for a in self.args))

    @property
    def has_side_effects(self):
        return True

    def __str__(self):
        args = ", ".join(_fmt(a) for a in self.args)
        lhs = f"{self.dst} = " if self.dst else ""
        return f"{lhs}call @{self.callee}({args})"


@dataclass
class CallIndirect(Instr):
    """Call through a register (vtable slot / table function pointer)."""

    dst: Optional[Reg]
    target: Reg
    args: Tuple[Operand, ...] = ()

    def _operands(self):
        return (self.target,) + tuple(self.args)

    def replace_uses(self, mapping):
        target = _sub(self.target, mapping)
        if not isinstance(target, Reg):
            raise IRError("indirect call target folded to a constant")
        return CallIndirect(self.dst, target,
                            tuple(_sub(a, mapping) for a in self.args))

    @property
    def has_side_effects(self):
        return True

    def __str__(self):
        args = ", ".join(_fmt(a) for a in self.args)
        lhs = f"{self.dst} = " if self.dst else ""
        return f"{lhs}call_indirect {self.target}({args})"


@dataclass
class Phi(Instr):
    """SSA phi node: value per predecessor block label."""

    dst: Reg
    incoming: Dict[str, Operand] = field(default_factory=dict)

    def _operands(self):
        return tuple(self.incoming.values())

    def replace_uses(self, mapping):
        return Phi(self.dst, {lbl: _sub(v, mapping)
                              for lbl, v in self.incoming.items()})

    def __str__(self):
        inc = ", ".join(f"[{l}: {_fmt(v)}]"
                        for l, v in sorted(self.incoming.items()))
        return f"{self.dst} = phi {inc}"


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------

class Terminator:
    """Base class: the single control-transfer ending a block."""

    def successors(self) -> List[str]:
        return []

    def uses(self) -> List[Reg]:
        return []

    def replace_uses(self, mapping: Dict[Reg, Operand]) -> "Terminator":
        return self

    def retarget(self, mapping: Dict[str, str]) -> "Terminator":
        """Return a copy with successor labels substituted."""
        return self


@dataclass
class Jump(Terminator):
    target: str

    def successors(self):
        return [self.target]

    def retarget(self, mapping):
        return Jump(mapping.get(self.target, self.target))

    def __str__(self):
        return f"jump {self.target}"


@dataclass
class Branch(Terminator):
    cond: Operand
    if_true: str
    if_false: str

    def successors(self):
        return [self.if_true, self.if_false]

    def uses(self):
        return [self.cond] if isinstance(self.cond, Reg) else []

    def replace_uses(self, mapping):
        return Branch(_sub(self.cond, mapping), self.if_true, self.if_false)

    def retarget(self, mapping):
        return Branch(self.cond, mapping.get(self.if_true, self.if_true),
                      mapping.get(self.if_false, self.if_false))

    def __str__(self):
        return f"branch {_fmt(self.cond)} ? {self.if_true} : {self.if_false}"


@dataclass
class SwitchTerm(Terminator):
    """Multi-way dispatch (the C++ ``switch`` reaches the backend intact,
    like GCC's GIMPLE_SWITCH, so the backend can choose between a jump
    table and a compare chain)."""

    value: Operand
    cases: Dict[int, str] = field(default_factory=dict)
    default: str = ""

    def successors(self):
        # Deduplicate while preserving order.
        seen = []
        for label in list(self.cases.values()) + [self.default]:
            if label and label not in seen:
                seen.append(label)
        return seen

    def uses(self):
        return [self.value] if isinstance(self.value, Reg) else []

    def replace_uses(self, mapping):
        return SwitchTerm(_sub(self.value, mapping), dict(self.cases),
                          self.default)

    def retarget(self, mapping):
        return SwitchTerm(self.value,
                          {k: mapping.get(v, v) for k, v in self.cases.items()},
                          mapping.get(self.default, self.default))

    def __str__(self):
        cases = ", ".join(f"{k}->{v}" for k, v in sorted(self.cases.items()))
        return f"switch {_fmt(self.value)} [{cases}] default {self.default}"


@dataclass
class Ret(Terminator):
    value: Optional[Operand] = None

    def uses(self):
        return [self.value] if isinstance(self.value, Reg) else []

    def replace_uses(self, mapping):
        return Ret(_sub(self.value, mapping) if self.value is not None
                   else None)

    def __str__(self):
        return f"ret {_fmt(self.value)}" if self.value is not None else "ret"


def copy_node(node):
    """A shallow copy of one instruction or terminator.

    Passes rewrite nodes in place (``dce`` clears ``dst``; ``ssa``,
    ``simplify_cfg`` and the inliner edit a phi's ``incoming``), so a copy
    owns its attributes and its one mutable container: a phi's
    ``incoming`` or a switch's ``cases``.  Operands are immutable
    (registers, ints, tuples) and stay shared.
    """
    clone = object.__new__(type(node))
    clone.__dict__.update(node.__dict__)
    if isinstance(clone, Phi):
        clone.incoming = dict(clone.incoming)
    elif isinstance(clone, SwitchTerm):
        clone.cases = dict(clone.cases)
    return clone


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------

@dataclass
class BasicBlock:
    label: str
    instrs: List[Instr] = field(default_factory=list)
    terminator: Optional[Terminator] = None

    def add(self, instr: Instr) -> Instr:
        if self.terminator is not None:
            raise IRError(f"block {self.label} already terminated")
        self.instrs.append(instr)
        return instr

    def phis(self) -> List[Phi]:
        return [i for i in self.instrs if isinstance(i, Phi)]

    def non_phis(self) -> List[Instr]:
        return [i for i in self.instrs if not isinstance(i, Phi)]

    def __str__(self):
        lines = [f"{self.label}:"]
        lines.extend(f"  {i}" for i in self.instrs)
        lines.append(f"  {self.terminator}")
        return "\n".join(lines)


class GimpleFunction:
    """One function in GIMPLE form.

    The function keeps its CFG facts instead of having every pass
    recompute them.  Predecessor lists are built at the first
    :meth:`preds` query, so construction code may assign terminators
    and fill :attr:`blocks` directly until then.  From that query on,
    every edge change goes through :meth:`set_terminator`,
    :meth:`add_block` (and :meth:`new_block`) or :meth:`delete_block`,
    which keep the lists current the way GCC's
    ``redirect_edge_and_branch`` keeps ``bb->preds``.  Those helpers
    also bump :attr:`cfg_version`, which drops every fact memoized by
    :meth:`cfg_fact` (reachability, dominators): a fact is computed at
    most once per CFG state.
    """

    #: The attributes a pickle (and so the store) carries, in the order
    #: they always had; the CFG facts are derived, and dropped.
    _PICKLED = ("name", "params", "blocks", "entry", "_next_label",
                "_next_reg")

    def __init__(self, name: str, params: Optional[List[Reg]] = None) -> None:
        self.name = name
        self.params: List[Reg] = list(params or [])
        self.blocks: Dict[str, BasicBlock] = {}
        self.entry: str = ""
        # Plain ints: functions are pickled into the store, and Python
        # 3.12 deprecates pickling iterator counters.
        self._next_label = 0
        self._next_reg = 0
        self.drop_cfg_facts()

    def drop_cfg_facts(self) -> None:
        """Forget the predecessor lists and every memoized fact, as a
        new function has none; the next query builds them again."""
        # Predecessor lists per label (one entry per edge), or None
        # until the first query.
        self._preds: Optional[Dict[str, List[str]]] = None
        self.cfg_version = 0
        self._facts: Dict[object, object] = {}

    def __getstate__(self):
        return {key: self.__dict__[key] for key in self._PICKLED}

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self.drop_cfg_facts()

    # -- construction ---------------------------------------------------
    def label_id(self) -> int:
        """Take the next block-label number (the suffix of
        :meth:`new_block` labels; the inliner numbers its blocks from
        the same sequence)."""
        number = self._next_label
        self._next_label = number + 1
        return number

    def new_block(self, hint: str = "bb") -> BasicBlock:
        return self.add_block(BasicBlock(f"{hint}{self.label_id()}"))

    def new_reg(self, hint: str = "t") -> Reg:
        number = self._next_reg
        self._next_reg = number + 1
        return Reg(f"{hint}{number}")

    def clone(self) -> "GimpleFunction":
        """An independent copy that passes may mutate: new blocks holding
        a :func:`copy_node` of every instruction and terminator, the same
        entry, and label and register numbering that continues where this
        function's stopped.  The copy starts with no CFG facts."""
        fn = GimpleFunction(self.name, self.params)
        fn.entry = self.entry
        fn._next_label = self._next_label
        fn._next_reg = self._next_reg
        for label, block in self.blocks.items():
            term = block.terminator
            fn.blocks[label] = BasicBlock(
                label, [copy_node(instr) for instr in block.instrs],
                None if term is None else copy_node(term))
        return fn

    def block(self, label: str) -> BasicBlock:
        return self.blocks[label]

    # -- CFG edits ----------------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        """Append *block*, with the edges of its terminator if it has
        one.  The first block added is the entry."""
        label = block.label
        self.blocks[label] = block
        if not self.entry:
            self.entry = label
        preds = self._preds
        if preds is not None:
            preds.setdefault(label, [])
            if block.terminator is not None:
                for succ in block.terminator.successors():
                    preds.setdefault(succ, []).append(label)
        self._cfg_changed()
        return block

    def set_terminator(self, block: BasicBlock, term: Terminator) -> None:
        """End *block* with *term*, moving its out-edges when the
        successors change."""
        old = block.terminator
        if term is old:
            return
        block.terminator = term
        old_succs = [] if old is None else old.successors()
        new_succs = term.successors()
        if old_succs == new_succs:
            return
        preds = self._preds
        if preds is not None:
            label = block.label
            for succ in old_succs:
                preds[succ].remove(label)
            for succ in new_succs:
                preds.setdefault(succ, []).append(label)
        self._cfg_changed()

    def delete_block(self, label: str) -> None:
        """Remove block *label* and its out-edges.  Edges into it must
        be gone already, or come only from blocks deleted with it."""
        block = self.blocks.pop(label)
        preds = self._preds
        if preds is not None:
            del preds[label]
            for succ in block.terminator.successors():
                succ_preds = preds.get(succ)
                if succ_preds is not None:
                    succ_preds.remove(label)
        self._cfg_changed()

    def _cfg_changed(self) -> None:
        self.cfg_version += 1
        if self._facts:
            self._facts = {}

    # -- CFG facts ----------------------------------------------------------
    def preds(self, label: str) -> List[str]:
        """Predecessor labels of block *label*, one entry per edge (a
        branch whose two arms meet is listed twice).  Their order
        carries no meaning.  The list is live: do not mutate it, and
        copy it before changing edges while iterating."""
        preds = self._preds
        if preds is None:
            preds = {label: [] for label in self.blocks}
            for pred, block in self.blocks.items():
                for succ in block.terminator.successors():
                    preds[succ].append(pred)
            self._preds = preds
        return preds[label]

    def cfg_fact(self, compute: Callable[["GimpleFunction"], T]) -> T:
        """``compute(self)``, memoized until the next edge change.
        *compute* must read nothing but the CFG."""
        facts = self._facts
        if compute in facts:
            return facts[compute]  # type: ignore[return-value]
        value = facts[compute] = compute(self)
        return value

    # -- queries ----------------------------------------------------------
    def iter_blocks(self) -> Iterator[BasicBlock]:
        """Blocks in insertion order (entry first)."""
        return iter(self.blocks.values())

    def instr_count(self) -> int:
        return sum(len(b.instrs) + 1 for b in self.blocks.values())

    def check(self) -> None:
        """Structural sanity: every block terminated, all targets exist."""
        for block in self.blocks.values():
            if block.terminator is None:
                raise IRError(f"{self.name}: block {block.label} lacks a "
                              "terminator")
            for succ in block.terminator.successors():
                if succ not in self.blocks:
                    raise IRError(f"{self.name}: {block.label} targets "
                                  f"unknown block {succ}")

    def __str__(self):
        params = ", ".join(str(p) for p in self.params)
        lines = [f"function {self.name}({params}) {{"]
        for block in self.iter_blocks():
            lines.append(str(block))
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Data / program
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolRef:
    """A word-sized reference to another symbol (vtable slots, table
    function pointers, pointers between globals)."""

    symbol: str


DataItem = Union[int, SymbolRef]


@dataclass
class DataObject:
    """A statically-initialized global: a sequence of data words.

    ``section`` is ``"rodata"`` (const tables, vtables), ``"data"``
    (initialized mutables) or ``"bss"`` (zero-initialized; contributes no
    image bytes in the paper's .s-size sense but is reported separately).
    ``word_size`` is 4 for ordinary 32-bit data; backends may store
    compact tables (e.g. a target's jump-table slots) with a different
    per-entry size.
    """

    name: str
    words: List[DataItem] = field(default_factory=list)
    section: str = "data"
    word_size: int = 4

    @property
    def size(self) -> int:
        return self.word_size * len(self.words)


class Program:
    """A lowered translation unit: functions + global data + metadata."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.functions: Dict[str, GimpleFunction] = {}
        self.data: Dict[str, DataObject] = {}
        self.externs: List[str] = []

    def add_function(self, fn: GimpleFunction) -> GimpleFunction:
        if fn.name in self.functions:
            raise IRError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def add_data(self, obj: DataObject) -> DataObject:
        if obj.name in self.data:
            raise IRError(f"duplicate data object {obj.name!r}")
        self.data[obj.name] = obj
        return obj

    def check(self) -> None:
        for fn in self.functions.values():
            fn.check()

    def dump(self) -> str:
        """Textual IR dump (the ``-fdump-tree`` analogue used to check
        what survives the optimization pipeline)."""
        parts = [f"; program {self.name}"]
        for obj in self.data.values():
            words = ", ".join(
                f"@{w.symbol}" if isinstance(w, SymbolRef) else str(w)
                for w in obj.words)
            parts.append(f"{obj.section} {obj.name}: [{words}]")
        for fn in self.functions.values():
            parts.append(str(fn))
        return "\n".join(parts)
