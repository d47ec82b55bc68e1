"""Encoder/decoder round-trips: TargetDescription and the VM cannot drift.

Every mnemonic either target declares must encode into exactly its
declared byte size and decode back to the identical instruction — the
invariant that keeps the simulator executing precisely what the size
accounting measures.  A whole-module round trip then pins the same
property on real compiler output for every pattern and both targets.
"""

import pytest

from repro.compiler import OptLevel
from repro.compiler.rtl.ir import RInstr
from repro.compiler.target import get_target
from repro.experiments.models import \
    hierarchical_machine_with_shadowed_composite
from repro.pipeline import compile_machine
from repro.vm import EncodingError, OperandPool, TargetEncoding, assemble
from repro.vm.encoding import instr_of, operand_key

TARGETS = ["rt32", "rt16"]


def _representative(op: str, target) -> RInstr:
    """A plausible instruction for *op* using the target's own registers
    and immediate ranges."""
    r = list(target.allocatable_regs)
    imm = min(7, target.small_imm_max)
    if op in ("mv",):
        return RInstr(op, defs=(r[0],), uses=(r[1],))
    if op == "argmv":
        return RInstr(op, uses=(r[0],), imm=1)
    if op == "retmv":
        return RInstr(op, defs=(r[0],))
    if op in ("li", "li32"):
        value = imm if op == "li" else target.imm16_max + 1
        return RInstr(op, defs=(r[0],), imm=value)
    if op == "la":
        return RInstr(op, defs=(r[0],), symbol="some_global", imm=8)
    if op in ("add", "sub", "mul", "div", "mod"):
        return RInstr(op, defs=(r[0],), uses=(r[1], r[2]))
    if op == "neg":
        return RInstr(op, defs=(r[0],), uses=(r[1],))
    if op == "addi":
        return RInstr(op, defs=(r[0],), uses=(r[1],), imm=imm)
    if op.startswith("set"):
        if op.endswith("i"):
            return RInstr(op, defs=(r[0],), uses=(r[1],), imm=imm)
        return RInstr(op, defs=(r[0],), uses=(r[1], r[2]))
    if op == "lw":
        return RInstr(op, defs=(r[0],), uses=("sp",), imm=4)
    if op == "sw":
        return RInstr(op, uses=(r[0], "sp"), imm=4)
    if op == "lwg":
        return RInstr(op, defs=(r[0],), symbol="some_global", imm=0)
    if op == "swg":
        return RInstr(op, uses=(r[0],), symbol="some_global", imm=4)
    if op == "b":
        return RInstr(op, target=".fn.exit")
    if op in ("bnez", "beqz"):
        return RInstr(op, uses=(r[0],), target=".fn.exit")
    if op == "jt":
        return RInstr(op, uses=(r[0],), imm=0, symbol="fn.jt0",
                      target=".fn.default",
                      table=(".fn.case0", ".fn.case1", ".fn.case2"))
    if op.startswith("b") and op[1:3] in ("eq", "ne", "lt", "le", "gt",
                                          "ge"):
        if op.endswith("i"):
            return RInstr(op, uses=(r[0],), imm=imm, target=".fn.exit")
        return RInstr(op, uses=(r[0], r[1]), target=".fn.exit")
    if op == "call":
        return RInstr(op, symbol="Cls::method")
    if op == "callr":
        return RInstr(op, uses=(r[0],))
    if op == "ret":
        return RInstr(op)
    if op == "push":
        return RInstr(op, uses=(r[0],))
    if op == "pop":
        return RInstr(op, defs=(r[0],))
    if op == "addsp":
        return RInstr(op, imm=-8)
    raise AssertionError(f"no representative for mnemonic {op!r}")


@pytest.mark.parametrize("target_name", TARGETS)
def test_every_mnemonic_round_trips(target_name):
    target = get_target(target_name)
    encoding = TargetEncoding(target)
    pool = OperandPool()
    for op in target.insn_sizes:
        if op == "label":
            continue
        original = _representative(op, target)
        data = encoding.encode(original, pool, context=op)
        assert len(data) == target.insn_size(op), op
        decoded_op, operands, size = encoding.decode(data, 0, pool)
        decoded = instr_of(decoded_op, operands)
        assert size == len(data), op
        assert decoded.op == op
        assert operand_key(decoded) == operand_key(original), op
        # Re-encoding the decoded instruction is byte-identical.
        assert encoding.encode(decoded, pool, context=op) == data, op


@pytest.mark.parametrize("target_name", TARGETS)
def test_opcode_table_derives_from_target(target_name):
    target = get_target(target_name)
    encoding = TargetEncoding(target)
    assert set(encoding.mnemonics) == set(target.insn_sizes) - {"label"}
    assert encoding.mnemonics == tuple(sorted(encoding.mnemonics))
    # Register numbering covers the whole file plus sp/lr, nothing else.
    assert set(encoding.reg_names) == (set(target.allocatable_regs)
                                       | set(target.scratch_regs)
                                       | {"sp", "lr"})


@pytest.mark.parametrize("target_name", TARGETS)
@pytest.mark.parametrize("pattern", ["nested-switch", "state-table",
                                     "state-pattern", "flat-switch"])
def test_module_round_trip_is_exact(target_name, pattern):
    """Assembling real compiler output re-decodes to the same stream and
    occupies exactly the accounted text bytes."""
    machine = hierarchical_machine_with_shadowed_composite()
    module = compile_machine(machine, pattern, OptLevel.OS,
                             target=target_name).module
    image = assemble(module)
    assert len(image.text) == module.text_size
    for fn in module.functions:
        addr = image.func_entry[fn.name]
        for instr in fn.instrs:
            if instr.op == "label":
                assert image.label_addr[instr.target] == addr
                continue
            decoded, size, owner = image.at(addr)
            assert owner == fn.name
            assert decoded.op == instr.op
            assert operand_key(decoded) == operand_key(instr)
            addr += size


def test_unknown_register_and_mnemonic_are_rejected():
    target = get_target("rt16")
    encoding = TargetEncoding(target)
    pool = OperandPool()
    with pytest.raises(EncodingError):
        encoding.encode(RInstr("mv", defs=("v0",), uses=("s1",)), pool)
    with pytest.raises(EncodingError):
        encoding.encode(RInstr("frobnicate", defs=("s0",)), pool)
    # rt16 has no s9: a register valid on rt32 only must not encode.
    with pytest.raises(EncodingError):
        encoding.encode(RInstr("mv", defs=("s9",), uses=("s1",)), pool)


def test_pool_overflow_is_loud():
    target = get_target("rt16")
    encoding = TargetEncoding(target)
    pool = OperandPool()
    capacity = encoding.pool_capacity("b")   # 2-byte insn -> 256 targets
    for i in range(capacity):
        encoding.encode(RInstr("b", target=f".fn.L{i}"), pool)
    with pytest.raises(EncodingError, match="operand pool overflow"):
        encoding.encode(RInstr("b", target=".fn.one_too_many"), pool)
