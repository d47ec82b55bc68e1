"""GIMPLE program interpreter ("the RT32 board").

Executes a lowered :class:`~repro.compiler.gimple.ir.Program` with a flat
word-addressed memory, so that generated state-machine code can actually
*run* — before or after the optimization passes.  This is the
reproduction's execution substrate, used to

* differentially test the three code generators against the UML model
  interpreter (the generated C++ must behave like the model), and
* validate the compiler: a program must behave identically at every
  optimization level (translation validation for MGCC).

Memory model: every :class:`DataObject` is placed at a word-aligned
address; function symbols get odd sentinel "addresses" so indirect calls
can be resolved; external functions are Python callables supplied by the
test harness (calls are recorded in order, like the model trace).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .ir import (BinOp, Branch, Call, CallIndirect, Const, GimpleFunction,
                 Instr, Jump, Load, LoadAddr, LoadGlobal, Move, Operand, Phi,
                 Program, Reg, Ret, Store, StoreGlobal, SwitchTerm, SymbolRef,
                 UnOp)

__all__ = ["GimpleInterpreter", "InterpError"]

_DATA_BASE = 0x1000_0000
_FUNC_BASE = 0x0100_0001  # odd: data addresses are word aligned


class InterpError(Exception):
    """Raised on runtime errors in interpreted GIMPLE."""


def _wrap(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


class GimpleInterpreter:
    """Executes functions of one program."""

    def __init__(self, program: Program,
                 externals: Optional[Mapping[str, Callable]] = None,
                 max_steps: int = 2_000_000) -> None:
        self.program = program
        self.externals = dict(externals or {})
        self.max_steps = max_steps
        self.call_log: List[Tuple[str, Tuple[int, ...]]] = []
        self.memory: Dict[int, int] = {}
        self.data_addr: Dict[str, int] = {}
        self.func_addr: Dict[str, int] = {}
        self.addr_func: Dict[int, str] = {}
        self._steps = 0
        self._place_data()

    # ------------------------------------------------------------------
    def _place_data(self) -> None:
        addr = _DATA_BASE
        # Function "addresses" first so data initializers can refer to them.
        next_func = _FUNC_BASE
        for name in self.program.functions:
            self.func_addr[name] = next_func
            self.addr_func[next_func] = name
            next_func += 2
        for obj in self.program.data.values():
            self.data_addr[obj.name] = addr
            addr += max(obj.size, 4) + 4  # one guard word between objects
        for obj in self.program.data.values():
            base = self.data_addr[obj.name]
            for i, word in enumerate(obj.words):
                self.memory[base + 4 * i] = self._resolve(word)

    def _resolve(self, word) -> int:
        if isinstance(word, SymbolRef):
            if word.symbol in self.data_addr:
                return self.data_addr[word.symbol]
            if word.symbol in self.func_addr:
                return self.func_addr[word.symbol]
            raise InterpError(f"unresolved symbol {word.symbol!r}")
        return int(word)

    def address_of(self, symbol: str) -> int:
        if symbol in self.data_addr:
            return self.data_addr[symbol]
        if symbol in self.func_addr:
            return self.func_addr[symbol]
        raise InterpError(f"unknown symbol {symbol!r}")

    # -- memory ------------------------------------------------------------
    def load_word(self, addr: int) -> int:
        return self.memory.get(addr, 0)

    def store_word(self, addr: int, value: int) -> None:
        self.memory[addr] = _wrap(value)

    def read_global(self, symbol: str, offset: int = 0) -> int:
        return self.load_word(self.address_of(symbol) + offset)

    def write_global(self, symbol: str, offset: int, value: int) -> None:
        self.store_word(self.address_of(symbol) + offset, value)

    # ------------------------------------------------------------------
    def call(self, name: str, args: Tuple[int, ...] = ()) -> int:
        """Call a program function (or external) by name."""
        if name in self.program.functions:
            return self._run_function(self.program.functions[name], args)
        return self._call_external(name, args)

    def _call_external(self, name: str, args: Tuple[int, ...]) -> int:
        self.call_log.append((name, tuple(args)))
        fn = self.externals.get(name)
        if fn is None:
            return 0
        result = fn(*args)
        return _wrap(int(result)) if result is not None else 0

    def _run_function(self, fn: GimpleFunction,
                      args: Tuple[int, ...]) -> int:
        if len(args) != len(fn.params):
            raise InterpError(
                f"{fn.name}: expected {len(fn.params)} args, got {len(args)}")
        regs: Dict[Reg, int] = dict(zip(fn.params, args))
        label = fn.entry
        prev_label: Optional[str] = None

        def value(op: Operand) -> int:
            if isinstance(op, int):
                return op
            try:
                return regs[op]
            except KeyError:
                raise InterpError(
                    f"{fn.name}: read of undefined register {op}") from None

        while True:
            self._steps += 1
            if self._steps > self.max_steps:
                raise InterpError("step budget exceeded (runaway program?)")
            block = fn.blocks[label]
            # Phis evaluate in parallel from the incoming edge.
            phi_values = {}
            for instr in block.instrs:
                if isinstance(instr, Phi):
                    if prev_label in instr.incoming:
                        phi_values[instr.dst] = value(
                            instr.incoming[prev_label])
                    # an absent edge value means undefined along this path
            regs.update(phi_values)
            for instr in block.instrs:
                if isinstance(instr, Phi):
                    continue
                self._exec(fn, instr, regs, value)
            term = block.terminator
            if isinstance(term, Jump):
                prev_label, label = label, term.target
            elif isinstance(term, Branch):
                taken = term.if_true if value(term.cond) != 0 else term.if_false
                prev_label, label = label, taken
            elif isinstance(term, SwitchTerm):
                v = value(term.value)
                prev_label, label = label, term.cases.get(v, term.default)
            elif isinstance(term, Ret):
                return value(term.value) if term.value is not None else 0
            else:  # pragma: no cover - defensive
                raise InterpError(f"unknown terminator {term}")

    def _exec(self, fn: GimpleFunction, instr: Instr,
              regs: Dict[Reg, int], value) -> None:
        if isinstance(instr, Const):
            regs[instr.dst] = _wrap(instr.value)
        elif isinstance(instr, Move):
            regs[instr.dst] = value(instr.src)
        elif isinstance(instr, BinOp):
            regs[instr.dst] = self._binop(instr.op, value(instr.a),
                                          value(instr.b))
        elif isinstance(instr, UnOp):
            a = value(instr.a)
            regs[instr.dst] = _wrap(-a) if instr.op == "-" else int(a == 0)
        elif isinstance(instr, Load):
            regs[instr.dst] = self.load_word(value(instr.base) + instr.offset)
        elif isinstance(instr, Store):
            self.store_word(value(instr.base) + instr.offset,
                            value(instr.src))
        elif isinstance(instr, LoadGlobal):
            regs[instr.dst] = self.read_global(instr.symbol, instr.offset)
        elif isinstance(instr, StoreGlobal):
            self.write_global(instr.symbol, instr.offset, value(instr.src))
        elif isinstance(instr, LoadAddr):
            regs[instr.dst] = self.address_of(instr.symbol) + instr.offset
        elif isinstance(instr, Call):
            result = self.call(instr.callee,
                               tuple(value(a) for a in instr.args))
            if instr.dst is not None:
                regs[instr.dst] = result
        elif isinstance(instr, CallIndirect):
            target = value(instr.target)
            callee = self.addr_func.get(target)
            if callee is None:
                raise InterpError(
                    f"{fn.name}: indirect call to non-function address "
                    f"{target:#x}")
            result = self.call(callee, tuple(value(a) for a in instr.args))
            if instr.dst is not None:
                regs[instr.dst] = result
        else:  # pragma: no cover - defensive
            raise InterpError(f"unknown instruction {instr}")

    @staticmethod
    def _binop(op: str, a: int, b: int) -> int:
        if op == "+":
            return _wrap(a + b)
        if op == "-":
            return _wrap(a - b)
        if op == "*":
            return _wrap(a * b)
        if op in ("/", "%"):
            if b == 0:
                raise InterpError("division by zero")
            q = int(a / b)
            return _wrap(q) if op == "/" else _wrap(a - q * b)
        return int({
            "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
            "==": a == b, "!=": a != b,
        }[op])
