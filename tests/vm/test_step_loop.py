"""The simulator's step loop on hand-assembled one-function modules.

Compiled machines reach only part of the instruction set and none of
the loop's error exits, so these tests build tiny modules by hand, on
both targets:

* every mnemonic a target declares runs through the handler table and
  is charged ``cycle_cost(op, taken)``, each conditional branch both
  taken and not taken;
* an exhausted instruction budget, falling off the text segment,
  division by zero and an indirect call to a non-entry address each
  raise their ``VMError`` and leave the instruction and cycle counters
  where the failing step left them;
* ``assemble`` decodes every instruction, so an encoder/decoder
  disagreement in a function that never runs still fails the assembly.
"""

from __future__ import annotations

import pytest

from repro.compiler.asm import AsmModule
from repro.compiler.gimple.ir import DataObject, SymbolRef
from repro.compiler.rtl.ir import RInstr, RTLFunction
from repro.compiler.target import get_target
from repro.vm import (DATA_BASE, EncodingError, Machine, STACK_BASE,
                      TEXT_BASE, TargetEncoding, VMError, assemble,
                      cycle_cost)

TARGETS = ["rt32", "rt16"]

#: One data object every program may read and write.
OBJ = DataObject("obj", words=[11, 22, 33])
#: A two-slot jump table over ``f``'s blocks ``c0`` and ``c1``.
TABLE = DataObject("f.jt0", words=[SymbolRef("f:c0"), SymbolRef("f:c1")],
                   section="rodata")

_TRUTH = {"eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
          "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
          "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b}


def R(op, defs=(), uses=(), imm=None, symbol=None, target=None,
      table=None):
    return RInstr(op, defs=tuple(defs), uses=tuple(uses), imm=imm,
                  symbol=symbol, target=target, table=table)


def label(name):
    return RInstr("label", target=f".f.{name}")


def boot(target, *functions, data=(OBJ,), max_steps=20_000_000):
    """A machine over a module of *functions* (``(name, instrs)``)."""
    tgt = get_target(target)
    module = AsmModule(
        "hand", functions=[RTLFunction(name, list(instrs), target=tgt)
                           for name, instrs in functions],
        data_objects=list(data), target=tgt)
    return Machine(assemble(module), max_steps=max_steps)


class Case:
    """One program: *instrs* run as function ``f``; *path* is the
    ``(op, taken)`` sequence the run retires; *check* inspects the
    machine afterwards; *data* is the module's data segment."""

    def __init__(self, name, instrs, path, check=None, data=(OBJ,)):
        self.name, self.instrs, self.path = name, instrs, path
        self.check = check or (lambda m: None)
        self.data = data


def straight(name, *instrs, check=None):
    """A branch-free program, then ``ret``."""
    code = [*instrs, R("ret")]
    path = [(i.op, False) for i in instrs] + [("ret", True)]
    return Case(name, code, path, check)


def _branch_cases(r, op, operands, taken):
    """``op`` to the label after the fall-through instruction."""
    code = [R("li", [r[0]], imm=operands[0]), R("li", [r[1]],
                                               imm=operands[1]),
            R(op, uses=operands[2], imm=operands[3], target=".f.out"),
            R("li", [r[2]], imm=1), label("out"), R("ret")]
    path = [("li", False), ("li", False), (op, taken)] + \
        ([] if taken else [("li", False)]) + [("ret", True)]
    return Case(f"{op}-{'taken' if taken else 'not-taken'}", code, path,
                lambda m: _expect(m.regs[r[2]], 0 if taken else 1))


def _expect(actual, expected):
    assert actual == expected


def cases(target):
    """Programs that together run every mnemonic of *target*."""
    tgt = get_target(target)
    r = list(tgt.allocatable_regs)
    out = [
        straight("mv", R("li", [r[0]], imm=5), R("mv", [r[1]], [r[0]]),
                 check=lambda m: _expect(m.regs[r[1]], 5)),
        straight("argmv", R("li", [r[0]], imm=3),
                 R("argmv", uses=[r[0]], imm=0),
                 R("argmv", [r[1]], imm=0),
                 check=lambda m: _expect(m.regs[r[1]], 3)),
        straight("retmv", R("li", [r[0]], imm=4),
                 R("retmv", uses=[r[0]]), R("retmv", [r[1]]),
                 check=lambda m: _expect((m.regs[r[1]], m._ret), (4, 4))),
        straight("li32", R("li32", [r[0]], imm=100_000),
                 check=lambda m: _expect(m.regs[r[0]], 100_000)),
        straight("la", R("la", [r[0]], symbol="obj", imm=4),
                 check=lambda m: _expect(m.regs[r[0]], DATA_BASE + 4)),
        straight("addi-neg", R("li", [r[0]], imm=5),
                 R("addi", [r[1]], [r[0]], imm=3),
                 R("neg", [r[2]], [r[1]]),
                 check=lambda m: _expect(m.regs[r[2]], -8)),
        straight("memory", R("la", [r[0]], symbol="obj"),
                 R("lw", [r[1]], [r[0]], imm=4),
                 R("sw", uses=[r[1], r[0]], imm=8),
                 R("lwg", [r[2]], symbol="obj", imm=8),
                 R("swg", uses=[r[2]], symbol="obj", imm=0),
                 check=lambda m: _expect(
                     [m.memory[DATA_BASE + 4 * i] for i in range(3)],
                     [22, 22, 22])),
        straight("stack", R("li", [r[0]], imm=9), R("push", uses=[r[0]]),
                 R("addsp", imm=-8), R("addsp", imm=8),
                 R("pop", [r[1]]),
                 check=lambda m: _expect((m.regs[r[1]], m.regs["sp"]),
                                         (9, STACK_BASE))),
        straight("call-external", R("call", symbol="ext"),
                 check=lambda m: _expect(m.call_log, [("ext", ())])),
        Case("b", [R("b", target=".f.out"), R("li", [r[0]], imm=1),
                   label("out"), R("ret")],
             [("b", True), ("ret", True)],
             lambda m: _expect(m.regs[r[0]], 0)),
    ]
    for op, expected in (("add", 22), ("sub", 12), ("mul", 85),
                         ("div", 3), ("mod", 2)):
        out.append(straight(
            op, R("li", [r[0]], imm=17), R("li", [r[1]], imm=5),
            R(op, [r[2]], [r[0], r[1]]),
            check=lambda m, e=expected: _expect(m.regs[r[2]], e)))
    for cc, truth in _TRUTH.items():
        for a, b in ((2, 3), (3, 3), (4, 3)):
            want = int(truth(a, b))
            out.append(straight(
                f"set{cc}", R("li", [r[0]], imm=a), R("li", [r[1]], imm=b),
                R(f"set{cc}", [r[2]], [r[0], r[1]]),
                check=lambda m, w=want: _expect(m.regs[r[2]], w)))
            out.append(straight(
                f"set{cc}i", R("li", [r[0]], imm=a),
                R(f"set{cc}i", [r[2]], [r[0]], imm=b),
                check=lambda m, w=want: _expect(m.regs[r[2]], w)))
        for a, b in ((2, 3), (3, 3), (4, 3)):
            taken = truth(a, b)
            out.append(_branch_cases(r, f"b{cc}", (a, b, [r[0], r[1]],
                                                   None), taken))
            out.append(_branch_cases(r, f"b{cc}i", (a, 0, [r[0]], b),
                                     taken))
    for value in (0, 7):
        out.append(_branch_cases(r, "bnez", (value, 0, [r[0]], None),
                                 value != 0))
        out.append(_branch_cases(r, "beqz", (value, 0, [r[0]], None),
                                 value == 0))
    # jt: in range jumps through the rodata table, out of range falls
    # through to the next instruction.
    for index, path_tail, hit in (
            (1, [("jt", True), ("li", False), ("ret", True)], 2),
            (5, [("jt", False), ("li", False), ("ret", True)], 3)):
        out.append(Case(
            f"jt-{'taken' if hit == 2 else 'not-taken'}",
            [R("li", [r[0]], imm=index),
             R("jt", uses=[r[0]], imm=0, symbol="f.jt0",
               target=".f.out", table=(".f.c0", ".f.c1")),
             R("li", [r[1]], imm=3), R("ret"),
             label("c0"), R("li", [r[1]], imm=1), R("ret"),
             label("c1"), R("li", [r[1]], imm=2), R("ret")],
            [("li", False)] + path_tail,
            lambda m, h=hit: _expect(m.regs[r[1]], h), data=(OBJ, TABLE)))
    # call/callr: f calls itself once, saving its return address on the
    # stack; the second activation sees the flag register set and
    # returns at once.
    for op, how in (("call", [R("call", symbol="f")]),
                    ("callr", [R("la", [r[1]], symbol="f"),
                               R("callr", uses=[r[1]])])):
        code = [R("bnez", uses=[r[0]], target=".f.out"),
                R("li", [r[0]], imm=1), R("push", uses=["lr"]), *how,
                R("pop", ["lr"]), label("out"), R("ret")]
        path = ([("bnez", False), ("li", False), ("push", False)]
                + [(i.op, i.op == op) for i in how]
                + [("bnez", True), ("ret", True), ("pop", False),
                   ("ret", True)])
        out.append(Case(op, code, path,
                        lambda m: _expect((m.regs["lr"], m.regs["sp"]),
                                          (0, STACK_BASE))))
    return out


@pytest.mark.parametrize("target", TARGETS)
def test_every_mnemonic_runs_and_is_charged_its_cost(target):
    covered = set()
    for case in cases(target):
        machine = boot(target, ("f", case.instrs), data=case.data)
        machine.call_function("f")
        assert machine.instructions == len(case.path), case.name
        assert machine.cycles == sum(cycle_cost(op, taken)
                                     for op, taken in case.path), case.name
        case.check(machine)
        covered.update(op for op, _ in case.path)
    assert covered == set(get_target(target).insn_sizes) - {"label"}


@pytest.mark.parametrize("target", TARGETS)
def test_every_conditional_branch_runs_both_ways(target):
    outcomes = {}
    for case in cases(target):
        for op, taken in case.path:
            outcomes.setdefault(op, set()).add(taken)
    conditional = [op for op in get_target(target).insn_sizes
                   if op in ("bnez", "beqz", "jt")
                   or (op[:1] == "b" and op[1:3] in _TRUTH)]
    assert len(conditional) == 15
    for op in conditional:
        assert outcomes[op] == {True, False}, op


@pytest.mark.parametrize("target", TARGETS)
def test_instruction_budget(target):
    machine = boot(target, ("f", [label("top"),
                                  R("b", target=".f.top")]), max_steps=50)
    with pytest.raises(VMError, match=r"^instruction budget exceeded "
                       r"\(50\); runaway simulated program\?$"):
        machine.call_function("f")
    assert machine.instructions == 51
    assert machine.cycles == 50 * cycle_cost("b", taken=True)


@pytest.mark.parametrize("target", TARGETS)
def test_falling_off_the_text_segment(target):
    r = get_target(target).allocatable_regs
    machine = boot(target, ("f", [R("li", [r[0]], imm=1)]))
    end = TEXT_BASE + get_target(target).insn_size("li")
    with pytest.raises(VMError, match=rf"^no instruction at {end:#x} "
                       r"\(fell off the text segment\?\)$"):
        machine.call_function("f")
    assert (machine.instructions, machine.cycles) == (1, 1)


@pytest.mark.parametrize("op", ["div", "mod"])
@pytest.mark.parametrize("target", TARGETS)
def test_division_by_zero(target, op):
    r = get_target(target).allocatable_regs
    machine = boot(target, ("f", [R("li", [r[0]], imm=1),
                                  R("li", [r[1]], imm=0),
                                  R(op, [r[2]], [r[0], r[1]]), R("ret")]))
    with pytest.raises(VMError, match="^division by zero$"):
        machine.call_function("f")
    assert (machine.instructions, machine.cycles) == (3, 2)


@pytest.mark.parametrize("target", TARGETS)
def test_indirect_call_to_a_non_entry_address(target):
    r = get_target(target).allocatable_regs
    inside = TEXT_BASE + get_target(target).insn_size("li")
    machine = boot(target, ("f", [R("li", [r[0]], imm=inside),
                                  R("callr", uses=[r[0]]), R("ret")]))
    with pytest.raises(VMError, match=rf"^indirect call to non-entry "
                       rf"address {inside:#x}$"):
        machine.call_function("f")
    assert (machine.instructions, machine.cycles) == (2, 1)


#: Ways to corrupt the bytes of ``never``'s ``mv``, and the error each
#: makes ``assemble`` raise.
CORRUPTIONS = {
    # The opcode of neg (the same size): decodes as a neg.
    "mnemonic": (lambda enc, data: bytes([enc.opcode_of["neg"]]) + data[1:],
                 r"^never\+0x[0-9a-f]+: decoded 'neg'/\d+B, encoded 'mv'$"),
    # A payload naming no pool entry.
    "pool": (lambda enc, data:
             data[:1] + (200).to_bytes(len(data) - 1, "little"),
             r"^no pool entry 200 for mnemonic 'mv'$"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("target", TARGETS)
def test_disagreement_in_code_that_never_runs_fails_assembly(
        target, corruption, monkeypatch):
    r = get_target(target).allocatable_regs
    functions = (("f", [R("ret")]),
                 ("never", [R("neg", [r[0]], [r[1]]),
                            R("mv", [r[0]], [r[1]]), R("ret")]))
    boot(target, *functions).call_function("f")   # intact: assembles

    rewrite, message = CORRUPTIONS[corruption]
    original = TargetEncoding.encode

    def encode(self, instr, pool, *args, **kwargs):
        data = original(self, instr, pool, *args, **kwargs)
        where = args[0] if args else kwargs.get("context", "")
        if where.startswith("never") and instr.op == "mv":
            return rewrite(self, data)
        return data

    monkeypatch.setattr(TargetEncoding, "encode", encode)
    with pytest.raises(EncodingError, match=message):
        boot(target, *functions)
