"""The RT ISA simulator: executes a loaded :class:`~.image.Image`.

A small in-order machine model: physical registers (the target's
register file plus ``sp``/``lr``), a flat word-addressed memory
initialized from the image's data segment, a descending stack, and an
argument/return bank modeling the ABI the backend's ``argmv``/``retmv``
shuffles assume.  External functions are Python callables, logged in
call order exactly like the GIMPLE interpreter's ``call_log`` — that
shared observable is what conformance checking compares.

Execution is threaded code (Bell, CACM 1973).  ``assemble`` decodes
every instruction once into an entry ``(handler, operands, size, base
cycles)``; each step of :meth:`Machine._run` fetches the pc's entry,
checks the step budget and calls the handler, which the one
mnemonic -> handler table (:data:`_HANDLERS`) supplied.  The handler
returns the address it transfers control to, or None to fall through.

Every retired instruction is charged cycles from a simple in-order cost
model, :func:`cycle_cost` (memory and wide-immediate forms 2, multiply
3, divide 8, control transfers pay a redirect cycle): the entry's base
cycles, plus the penalty when its handler returned a target.  The
counts are deterministic — they are *simulated* cycles, so dynamic
metrics derived from them are reproducible across hosts, unlike
wall-clock timings.

Memory watchpoints (``watch(addr, fn)``) fire on word stores; the
conformance harness uses them to observe attribute assignments and
event emissions of the running machine object without instrumenting the
generated code.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Mapping, Optional, Tuple

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
        entries = self.image.entries
        budget = self.max_steps
        steps = self.instructions
        cycles = self.cycles
        try:
            while pc != HALT_ADDRESS:
                entry = entries.get(pc)
                if entry is None:
                    raise VMError(f"no instruction at {pc:#x} (fell off "
                                  "the text segment?)")
                steps += 1
                if steps > budget:
                    raise VMError(
                        f"instruction budget exceeded ({budget}); "
                        "runaway simulated program?")
                handler, operands, size, base = entry
                next_pc = pc + size
                target = handler(self, operands, next_pc)
                if target is None:
                    pc = next_pc
                    cycles += base
                else:
                    pc = target
                    cycles += base + _TAKEN_PENALTY
        finally:
            self.instructions = steps
            self.cycles = cycles

    def _label(self, label: str) -> int:
        addr = self.image.label_addr.get(label)
        if addr is None:
            raise VMError(f"branch to unknown label {label!r}")
        return addr


# ---------------------------------------------------------------------------
# The handler table.  A handler runs one decoded instruction:
# ``handler(machine, operands, next_pc)``, where *operands* is the
# instruction's ``(defs, uses, imm, symbol, target, table)`` and
# *next_pc* the address after it.  It returns the address it transfers
# control to, or None to fall through.
# ---------------------------------------------------------------------------

def _mv(m: Machine, a, _next: int) -> None:
    regs = m.regs
    regs[a[0][0]] = regs[a[1][0]]


def _argmv(m: Machine, a, _next: int) -> None:
    if a[0]:        # callee: read parameter slot
        m.regs[a[0][0]] = m._args.get(a[2], 0)
    else:           # caller: fill argument slot
        m._args[a[2]] = m.regs[a[1][0]]
        m._args_written.add(a[2])


def _retmv(m: Machine, a, _next: int) -> None:
    if a[0]:
        m.regs[a[0][0]] = m._ret
    else:
        m._ret = m.regs[a[1][0]]


def _li(m: Machine, a, _next: int) -> None:
    m.regs[a[0][0]] = _wrap(a[2])


def _la(m: Machine, a, _next: int) -> None:
    m.regs[a[0][0]] = m.address_of(a[3]) + (a[2] or 0)


def _alu(fn: Callable[[int, int], int]):
    def step(m: Machine, a, _next: int) -> None:
        regs = m.regs
        regs[a[0][0]] = _wrap(fn(regs[a[1][0]], regs[a[1][1]]))
    return step


def _quotient(a: int, b: int) -> int:
    if b == 0:
        raise VMError("division by zero")
    return int(a / b)   # C semantics: truncate toward zero


def _addi(m: Machine, a, _next: int) -> None:
    regs = m.regs
    regs[a[0][0]] = _wrap(regs[a[1][0]] + a[2])


def _neg(m: Machine, a, _next: int) -> None:
    regs = m.regs
    regs[a[0][0]] = _wrap(-regs[a[1][0]])


def _set(cmp: Callable[[int, int], bool]):
    def step(m: Machine, a, _next: int) -> None:
        regs = m.regs
        regs[a[0][0]] = int(cmp(regs[a[1][0]], regs[a[1][1]]))
    return step


def _seti(cmp: Callable[[int, int], bool]):
    def step(m: Machine, a, _next: int) -> None:
        regs = m.regs
        regs[a[0][0]] = int(cmp(regs[a[1][0]], a[2]))
    return step


def _lw(m: Machine, a, _next: int) -> None:
    regs = m.regs
    regs[a[0][0]] = m.memory.get(regs[a[1][0]] + (a[2] or 0), 0)


def _sw(m: Machine, a, _next: int) -> None:
    regs = m.regs
    m.store_word(regs[a[1][1]] + (a[2] or 0), regs[a[1][0]])


def _lwg(m: Machine, a, _next: int) -> None:
    m.regs[a[0][0]] = m.read_global(a[3], a[2] or 0)


def _swg(m: Machine, a, _next: int) -> None:
    m.store_word(m.address_of(a[3]) + (a[2] or 0), m.regs[a[1][0]])


def _b(m: Machine, a, _next: int) -> int:
    return m._label(a[4])


def _bnez(m: Machine, a, _next: int) -> Optional[int]:
    return m._label(a[4]) if m.regs[a[1][0]] != 0 else None


def _beqz(m: Machine, a, _next: int) -> Optional[int]:
    return m._label(a[4]) if m.regs[a[1][0]] == 0 else None


def _branch(cmp: Callable[[int, int], bool]):
    def step(m: Machine, a, _next: int) -> Optional[int]:
        regs = m.regs
        return m._label(a[4]) if cmp(regs[a[1][0]], regs[a[1][1]]) \
            else None
    return step


def _branchi(cmp: Callable[[int, int], bool]):
    def step(m: Machine, a, _next: int) -> Optional[int]:
        return m._label(a[4]) if cmp(m.regs[a[1][0]], a[2]) else None
    return step


def _jt(m: Machine, a, _next: int) -> Optional[int]:
    index = m.regs[a[1][0]] - a[2]
    if 0 <= index < len(a[5]):
        # The dispatch genuinely reads the rodata table the compiler
        # emitted, entry width and all.
        base = m.address_of(a[3])
        width = m.image.data_word_size.get(a[3], 4)
        return m.load_word(base + width * index)
    return None     # fall through to the out-of-range branch


def _call(m: Machine, a, next_pc: int) -> Optional[int]:
    entry = m.image.func_entry.get(a[3])
    if entry is None:
        m._call_external(a[3])
    else:
        m.regs["lr"] = next_pc
    m._args_written = set()
    return entry


def _callr(m: Machine, a, next_pc: int) -> int:
    target = m.regs[a[1][0]]
    callee = m.image.entry_func.get(target)
    if callee is None:
        raise VMError(f"indirect call to non-entry address {target:#x}")
    m.regs["lr"] = next_pc
    m._args_written = set()
    return m.image.func_entry[callee]


def _ret(m: Machine, _a, _next: int) -> int:
    return m.regs["lr"]


def _push(m: Machine, a, _next: int) -> None:
    regs = m.regs
    regs["sp"] -= m._word
    m.store_word(regs["sp"], regs[a[1][0]])


def _pop(m: Machine, a, _next: int) -> None:
    regs = m.regs
    regs[a[0][0]] = m.memory.get(regs["sp"], 0)
    regs["sp"] += m._word


def _addsp(m: Machine, a, _next: int) -> None:
    m.regs["sp"] += a[2]


_CMP = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
        "le": operator.le, "gt": operator.gt, "ge": operator.ge}

#: mnemonic -> handler: the one place an instruction's behaviour lives.
_HANDLERS: Dict[str, Callable] = {
    "mv": _mv, "argmv": _argmv, "retmv": _retmv,
    "li": _li, "li32": _li, "la": _la,
    "add": _alu(operator.add), "sub": _alu(operator.sub),
    "mul": _alu(operator.mul),
    "div": _alu(_quotient),
    "mod": _alu(lambda a, b: a - _quotient(a, b) * b),
    "addi": _addi, "neg": _neg,
    "lw": _lw, "sw": _sw, "lwg": _lwg, "swg": _swg,
    "b": _b, "bnez": _bnez, "beqz": _beqz, "jt": _jt,
    "call": _call, "callr": _callr, "ret": _ret,
    "push": _push, "pop": _pop, "addsp": _addsp,
    **{f"set{cc}": _set(cmp) for cc, cmp in _CMP.items()},
    **{f"set{cc}i": _seti(cmp) for cc, cmp in _CMP.items()},
    **{f"b{cc}": _branch(cmp) for cc, cmp in _CMP.items()},
    **{f"b{cc}i": _branchi(cmp) for cc, cmp in _CMP.items()},
}


def _unimplemented(op: str) -> Callable:
    def step(_m: Machine, _a, _next: int) -> None:
        raise VMError(f"unimplemented mnemonic {op!r}")
    return step


_STEPS = {op: (handler, cycle_cost(op)) for op, handler in _HANDLERS.items()}


def step_of(op: str) -> Tuple[Callable, int]:
    """*op*'s handler and base cycle cost, for an :class:`Image` entry.

    A mnemonic the table lacks (a registered target may declare one)
    assembles, and raises :class:`VMError` if it ever runs."""
    return _STEPS.get(op) or (_unimplemented(op), cycle_cost(op))
