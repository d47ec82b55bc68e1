"""The RT ISA simulator: executes a loaded :class:`~.image.Image`.

A small in-order machine model over the decoded instruction map:
physical registers (the target's register file plus ``sp``/``lr``), a
flat word-addressed memory initialized from the image's data segment, a
descending stack, and an argument/return bank modeling the ABI the
backend's ``argmv``/``retmv`` shuffles assume.  External functions are
Python callables, logged in call order exactly like the GIMPLE
interpreter's ``call_log`` — that shared observable is what conformance
checking compares.

Every retired instruction is charged cycles from a simple in-order cost
model (memory and wide-immediate forms 2, multiply 3, divide 8, control
transfers pay a redirect cycle).  The counts are deterministic — they
are *simulated* cycles, so dynamic metrics derived from them are
reproducible across hosts, unlike wall-clock timings.

Memory watchpoints (``watch(addr, fn)``) fire on word stores; the
conformance harness uses them to observe attribute assignments and
event emissions of the running machine object without instrumenting the
generated code.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .encoding import EncodingError
from .image import HALT_ADDRESS, Image, STACK_BASE

__all__ = ["Machine", "VMError", "cycle_cost"]


class VMError(Exception):
    """Raised on runtime errors in simulated code."""


def _wrap(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


#: Per-mnemonic base cycle cost; anything absent costs 1.
_BASE_CYCLES = {
    "lw": 2, "sw": 2, "lwg": 2, "swg": 2, "push": 2, "pop": 2,
    "li32": 2, "la": 2,
    "mul": 3, "div": 8, "mod": 8,
    "call": 2, "callr": 2, "ret": 2,
    "jt": 3,
}
#: Extra cycle a taken branch pays for the pipeline redirect.
_TAKEN_PENALTY = 1

_CMP = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}


def cycle_cost(op: str, taken: bool = False) -> int:
    """Cycles one retired instruction costs under the in-order model."""
    return _BASE_CYCLES.get(op, 1) + (_TAKEN_PENALTY if taken else 0)


class Machine:
    """One simulator instance over one loaded image."""

    def __init__(self, image: Image,
                 externals: Optional[Mapping[str, Callable]] = None,
                 max_steps: int = 20_000_000) -> None:
        self.image = image
        self.externals = dict(externals or {})
        self.max_steps = max_steps
        self.regs: Dict[str, int] = {
            name: 0 for name in image.encoding.reg_names}
        self.regs["sp"] = STACK_BASE
        self.regs["lr"] = HALT_ADDRESS
        self.memory: Dict[int, int] = dict(image.initial_memory)
        self.call_log: List[Tuple[str, Tuple[int, ...]]] = []
        self.instructions = 0
        self.cycles = 0
        self._watches: Dict[int, Callable[[int, int], None]] = {}
        self._args: Dict[int, int] = {}
        self._args_written: set = set()
        self._ret = 0
        self._word = image.target.word_size

    # -- memory ------------------------------------------------------------
    def load_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    def store_word(self, addr: int, value: int) -> None:
        value = _wrap(value)
        self.memory[addr] = value
        hook = self._watches.get(addr)
        if hook is not None:
            hook(addr, value)

    def watch(self, addr: int, hook: Callable[[int, int], None]) -> None:
        """Invoke ``hook(addr, value)`` on every word store to *addr*."""
        self._watches[addr] = hook

    def address_of(self, symbol: str) -> int:
        return self.image.address_of(symbol)

    def read_global(self, symbol: str, offset: int = 0) -> int:
        return self.load_word(self.address_of(symbol) + offset)

    # -- ABI ---------------------------------------------------------------
    def call_function(self, name: str, args: Tuple[int, ...] = ()) -> int:
        """Call an image function by name; returns its result."""
        entry = self.image.func_entry.get(name)
        if entry is None:
            raise VMError(f"image has no function {name!r}")
        self._args = {i: _wrap(a) for i, a in enumerate(args)}
        # The callee reads the values; the written-set tracks only the
        # *current* caller's argmv stores (cleared by every call), so a
        # synthetic top-level call starts it empty.
        self._args_written = set()
        self.regs["lr"] = HALT_ADDRESS
        self._run(entry)
        return self._ret

    def _external_args(self) -> Tuple[int, ...]:
        if not self._args_written:
            return ()
        count = max(self._args_written) + 1
        return tuple(self._args.get(i, 0) for i in range(count))

    def _call_external(self, name: str) -> None:
        args = self._external_args()
        self.call_log.append((name, args))
        fn = self.externals.get(name)
        result = fn(*args) if fn is not None else 0
        self._ret = _wrap(int(result)) if result is not None else 0

    # -- execution ---------------------------------------------------------
    def _run(self, pc: int) -> None:
        regs = self.regs
        while pc != HALT_ADDRESS:
            try:
                instr, size, _fn = self.image.at(pc)
            except EncodingError as exc:
                raise VMError(str(exc)) from None
            self.instructions += 1
            if self.instructions > self.max_steps:
                raise VMError(
                    f"instruction budget exceeded ({self.max_steps}); "
                    "runaway simulated program?")
            op = instr.op
            next_pc = pc + size
            taken = False

            if op in ("mv", "argmv", "retmv"):
                if op == "mv":
                    regs[instr.defs[0]] = regs[instr.uses[0]]
                elif op == "argmv":
                    if instr.defs:      # callee: read parameter slot
                        regs[instr.defs[0]] = self._args.get(instr.imm, 0)
                    else:               # caller: fill argument slot
                        self._args[instr.imm] = regs[instr.uses[0]]
                        self._args_written.add(instr.imm)
                else:                   # retmv
                    if instr.defs:
                        regs[instr.defs[0]] = self._ret
                    else:
                        self._ret = regs[instr.uses[0]]
            elif op in ("li", "li32"):
                regs[instr.defs[0]] = _wrap(instr.imm)
            elif op == "la":
                regs[instr.defs[0]] = \
                    self.address_of(instr.symbol) + (instr.imm or 0)
            elif op in ("add", "sub", "mul", "div", "mod"):
                a = regs[instr.uses[0]]
                b = regs[instr.uses[1]]
                regs[instr.defs[0]] = self._binop(op, a, b)
            elif op == "addi":
                regs[instr.defs[0]] = _wrap(regs[instr.uses[0]] + instr.imm)
            elif op == "neg":
                regs[instr.defs[0]] = _wrap(-regs[instr.uses[0]])
            elif op.startswith("set"):
                cmp = _CMP[op[3:5]]
                a = regs[instr.uses[0]]
                b = instr.imm if op.endswith("i") else regs[instr.uses[1]]
                regs[instr.defs[0]] = int(cmp(a, b))
            elif op == "lw":
                regs[instr.defs[0]] = \
                    self.load_word(regs[instr.uses[0]] + (instr.imm or 0))
            elif op == "sw":
                self.store_word(regs[instr.uses[1]] + (instr.imm or 0),
                                regs[instr.uses[0]])
            elif op == "lwg":
                regs[instr.defs[0]] = \
                    self.read_global(instr.symbol, instr.imm or 0)
            elif op == "swg":
                self.store_word(
                    self.address_of(instr.symbol) + (instr.imm or 0),
                    regs[instr.uses[0]])
            elif op == "b":
                next_pc = self._label(instr.target)
                taken = True
            elif op in ("bnez", "beqz"):
                cond = regs[instr.uses[0]]
                if (cond != 0) == (op == "bnez"):
                    next_pc = self._label(instr.target)
                    taken = True
            elif op.startswith("b") and op[1:3] in _CMP:
                cmp = _CMP[op[1:3]]
                a = regs[instr.uses[0]]
                b = instr.imm if op.endswith("i") else regs[instr.uses[1]]
                if cmp(a, b):
                    next_pc = self._label(instr.target)
                    taken = True
            elif op == "jt":
                index = regs[instr.uses[0]] - instr.imm
                if 0 <= index < len(instr.table):
                    # The dispatch genuinely reads the rodata table the
                    # compiler emitted, entry width and all.
                    base = self.address_of(instr.symbol)
                    width = self.image.data_word_size.get(instr.symbol, 4)
                    next_pc = self.load_word(base + width * index)
                    taken = True
                # else: fall through to the out-of-range branch
            elif op == "call":
                if instr.symbol in self.image.func_entry:
                    regs["lr"] = next_pc
                    next_pc = self.image.func_entry[instr.symbol]
                    taken = True
                else:
                    self._call_external(instr.symbol)
                self._args_written = set()
            elif op == "callr":
                target = regs[instr.uses[0]]
                callee = self.image.entry_func.get(target)
                if callee is None:
                    raise VMError(
                        f"indirect call to non-entry address {target:#x}")
                regs["lr"] = next_pc
                next_pc = self.image.func_entry[callee]
                taken = True
                self._args_written = set()
            elif op == "ret":
                next_pc = regs["lr"]
                taken = True
            elif op == "push":
                regs["sp"] -= self._word
                self.store_word(regs["sp"], regs[instr.uses[0]])
            elif op == "pop":
                regs[instr.defs[0]] = self.load_word(regs["sp"])
                regs["sp"] += self._word
            elif op == "addsp":
                regs["sp"] += instr.imm
            else:  # pragma: no cover - defensive
                raise VMError(f"unimplemented mnemonic {op!r}")

            self.cycles += cycle_cost(op, taken)
            pc = next_pc

    def _label(self, label: str) -> int:
        addr = self.image.label_addr.get(label)
        if addr is None:
            raise VMError(f"branch to unknown label {label!r}")
        return addr

    @staticmethod
    def _binop(op: str, a: int, b: int) -> int:
        if op == "add":
            return _wrap(a + b)
        if op == "sub":
            return _wrap(a - b)
        if op == "mul":
            return _wrap(a * b)
        if b == 0:
            raise VMError("division by zero")
        quotient = int(a / b)   # C semantics: truncate toward zero
        return _wrap(quotient) if op == "div" else _wrap(a - quotient * b)
