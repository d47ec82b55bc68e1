"""Property-based round-trips over *generator-produced* inputs.

Two serialization contracts the fuzz subsystem leans on, checked over
the fuzz generator's own output space (hypothesis drives the seeds and
profiles, the seeded generator supplies structure hypothesis could not
easily compose):

* ``uml.serialize``: ``load(dump(m))`` is structurally identical to
  ``m`` — same canonical dict, same engine fingerprint — for arbitrary
  generated machines (composites, cross-region transitions, guards
  with calls, duplicate transitions, dead regions, degenerate shapes);
* ``vm.encoding``: ``decode(encode(insn))`` is ``insn`` for arbitrary
  in-register-file instructions of every registered target.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.rtl.ir import RInstr
from repro.compiler.target import available_targets, get_target
from repro.engine.fingerprint import machine_fingerprint
from repro.fuzz import DEFAULT_PROFILES, generate_case
from repro.uml import dumps_machine, loads_machine, machine_to_dict
from repro.vm.encoding import OperandPool, TargetEncoding, instr_of

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

profiles = st.sampled_from(DEFAULT_PROFILES)
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestMachineSerializationRoundTrip:
    @given(seed=seeds, profile=profiles)
    @_SETTINGS
    def test_load_dump_is_identity(self, seed, profile):
        machine = generate_case(seed, profile).machine
        restored = loads_machine(dumps_machine(machine))
        assert machine_to_dict(restored) == machine_to_dict(machine)
        assert machine_fingerprint(restored) == \
            machine_fingerprint(machine)

    @given(seed=seeds, profile=profiles)
    @_SETTINGS
    def test_double_round_trip_is_stable(self, seed, profile):
        machine = generate_case(seed, profile).machine
        once = dumps_machine(loads_machine(dumps_machine(machine)))
        assert once == dumps_machine(machine)


def _encodings():
    return [TargetEncoding(get_target(name))
            for name in available_targets()]


_ENCODINGS = _encodings()
encodings = st.sampled_from(_ENCODINGS)


@st.composite
def instructions(draw, encoding):
    """A random in-register-file instruction of *encoding*'s target."""
    op = draw(st.sampled_from(encoding.mnemonics))
    regs = st.sampled_from(encoding.reg_names)
    n_defs = draw(st.integers(0, 2))
    n_uses = draw(st.integers(0, 2))
    imm = draw(st.one_of(st.none(), st.integers(-(2 ** 31), 2 ** 31 - 1)))
    symbol = draw(st.one_of(st.none(),
                            st.sampled_from(["f", "g_obj", "Ctx_init"])))
    label = draw(st.one_of(st.none(), st.sampled_from([".L0", ".L42"])))
    table = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from([".L0", ".L1", ".L2"]),
                 min_size=1, max_size=4).map(tuple)))
    return RInstr(op,
                  defs=tuple(draw(regs) for _ in range(n_defs)),
                  uses=tuple(draw(regs) for _ in range(n_uses)),
                  imm=imm, symbol=symbol, target=label, table=table,
                  comment="dropped by the codec")


class TestEncodingRoundTrip:
    @given(data=st.data(), encoding=encodings)
    @_SETTINGS
    def test_decode_encode_is_identity(self, data, encoding):
        pool = OperandPool()
        instr = data.draw(instructions(encoding))
        blob = encoding.encode(instr, pool, context="prop")
        assert len(blob) == encoding.size_of(instr.op)
        op, operands, size = encoding.decode(blob, 0, pool)
        decoded = instr_of(op, operands)
        assert size == len(blob)
        # Everything semantic survives; the comment is listing sugar.
        assert decoded.op == instr.op
        assert decoded.defs == instr.defs
        assert decoded.uses == instr.uses
        assert decoded.imm == instr.imm
        assert decoded.symbol == instr.symbol
        assert decoded.target == instr.target
        assert decoded.table == instr.table

    @given(data=st.data(), encoding=encodings)
    @_SETTINGS
    def test_stream_of_instructions_round_trips(self, data, encoding):
        pool = OperandPool()
        stream = [data.draw(instructions(encoding)) for _ in range(6)]
        blob = b"".join(encoding.encode(i, pool, context="prop")
                        for i in stream)
        offset, decoded = 0, []
        while offset < len(blob):
            op, operands, size = encoding.decode(blob, offset, pool)
            decoded.append(instr_of(op, operands))
            offset += size
        assert [d.op for d in decoded] == [i.op for i in stream]
        assert all(d.imm == i.imm and d.defs == i.defs
                   and d.uses == i.uses
                   for d, i in zip(decoded, stream))
