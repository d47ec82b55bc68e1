"""Masked dispatch against the scalar loop.

A wide untraced fleet advances a guarded cell by lane masks when every
candidate it may try has a static route and each guard a mask form; a
traced fleet always runs the scalar run-to-completion loop.  Each test
compares the two lane by lane — configuration, consumed flag,
attributes, firings — and requires a budget error from the same event,
with the same message, on both.  After every dispatch the wide fleet's
record of the configuration all its lanes hold must be None or held by
every lane.
"""

import random

import pytest

from repro.fleet import (Fleet, FleetExecutionError, FleetHarness,
                         FleetUnsupported, compile_table)
from repro.fleet import engine
from repro.fuzz.generate import DEFAULT_PROFILES, generate_case
from repro.uml import Assign, EmitStmt, StateMachineBuilder, parse_expr

WIDE = 64


def _fails(call, *args):
    """Run *call*; the budget (or other run-time) error's message, or
    None."""
    try:
        call(*args)
    except FleetExecutionError as exc:
        return str(exc)
    return None


def _lane(fleet, lane):
    """Everything the scalar loop leaves in one lane."""
    return (fleet.config_name(lane), bool(fleet.consumed[lane]),
            fleet.attributes_of(lane))


def _check_uniform(fleet):
    """The one-configuration record is None or held by every lane."""
    uniform = fleet._uniform
    assert uniform is None or (fleet.config == uniform).all(), uniform


def _adaptive(rng, length):
    """A stream for *fleet*: mostly an event that some candidate of a
    random lane's configuration answers (a uniform draw is mostly
    discarded), sometimes any event, out-of-alphabet ones included."""
    def events(fleet):
        table = fleet.program
        alphabet = table.event_names + ["zz0"]
        for _ in range(length):
            row = table.cells[int(fleet.config[rng.randrange(fleet.n)])]
            live = [name for name, cell in zip(table.event_names, row)
                    if not cell.empty]
            yield rng.choice(live if live and rng.random() < 0.8
                             else alphabet)
    return events


def _case_tables(count):
    for index in range(count):
        machine = generate_case(7000 + index,
                                DEFAULT_PROFILES[index % 6]).machine
        try:
            yield compile_table(machine)
        except FleetUnsupported:
            continue


def _broadcast(table, budget, events):
    """Step a wide fleet with *budget* beside a traced lane.  Returns
    whether the wide fleet stayed on masks throughout."""
    traced = Fleet(table, 1, trace=True,
                   step_budget=-1 if budget is None else budget)
    wide = Fleet(table, WIDE, step_budget=budget)
    failure = _fails(traced.start)
    if failure is not None and budget is None:
        return False         # an unbudgeted fleet would spin here
    assert _fails(wide.start) == failure
    if failure is not None:
        return False
    for event in events(traced):
        failure = _fails(traced.dispatch_all, event)
        if failure is not None and budget is None:
            return False
        assert _fails(wide.dispatch_all, event) == failure, event
        _check_uniform(wide)
        if failure is not None:
            return False
        expected = _lane(traced, 0)
        for lane in range(wide.n):
            assert _lane(wide, lane) == expected, (event, lane)
        assert wide.stats.fired == wide.n * traced.stats.fired
    return wide.stats.scalar_lane_events == 0


@pytest.mark.parametrize("family", ["fleet", "fuzz"])
def test_wide_fleets_match_a_traced_lane(family, fleet_family):
    rng = random.Random(len(family))
    tables = ([compile_table(machine) for machine in fleet_family]
              if family == "fleet" else list(_case_tables(48)))
    assert len(tables) >= 12
    for table in tables:
        for _ in range(2):
            length = rng.randint(10, 40)
            for budget in (rng.randint(2, 40), None):
                all_masked = _broadcast(table, budget,
                                        _adaptive(rng, length))
                if family == "fleet" and budget is None:
                    # guard_var > 0 guards and call-only effects: no
                    # lane-event of this family needs the scalar loop
                    assert all_masked, table.machine.name


def _split_machine():
    """Two guarded candidates and a discard on ``go``; a guarded inner
    candidate before an unguarded outer one on ``hop``, whose route
    fires a completion too.  ``wait`` enters E, whose guarded
    completion never fires but is consumed, so E's lanes leave with a
    route that must reset their consumed flag."""
    b = StateMachineBuilder("Split")
    b.attribute("n", 0)
    b.attribute("m", 0)
    outer = b.composite("P")
    outer.state("A")
    outer.initial_to("A")
    b.initial_to("P")
    for name in ("B", "C", "D", "E"):
        b.state(name)
        b.transition(name, "P", on="back", guard="n != 3")
    b.transition("A", "B", on="go", guard="n > 5")
    b.transition("A", "C", on="go", guard="n < 0 && m == 1")
    b.transition("A", "C", on="hop", guard="m == 1 || n > 6")
    b.transition("P", "D", on="hop")
    b.transition("A", "E", on="wait")
    b.completion("D", "B")
    b.completion("E", "B", guard="n > 100")
    return b.build()


def _per_lane(table, values, budget, events, externals=None):
    """A wide fleet whose lane *i* starts from ``values[i]`` (attribute
    name -> value, set after start) against one traced fleet per lane
    started from the same values."""
    wide = Fleet(table, len(values), step_budget=budget,
                 externals=externals)
    traced = [Fleet(table, 1, trace=True, step_budget=budget,
                    externals=externals) for _ in values]
    for fleet in [wide] + traced:
        fleet.start()
    for lane, lane_values in enumerate(values):
        for name, value in lane_values.items():
            index = table.attr_index[name]
            wide.V[index][lane] = value
            traced[lane].V[index][0] = value
    for event in events(wide):
        failures = [_fails(t.dispatch_all, event) for t in traced]
        failure = _fails(wide.dispatch_all, event)
        _check_uniform(wide)
        if failure is not None or any(failures):
            # The wide fleet raises on the first failing lane of its
            # group order; that lane's own fleet fails alike.
            assert failure is not None, (event, failures)
            lane = int(failure.split(":")[0].split()[1])
            assert failures[lane] == failure.replace(
                f"lane {lane}:", "lane 0:", 1), (event, failures)
            return wide
        for lane, fleet in enumerate(traced):
            assert _lane(wide, lane) == _lane(fleet, 0), (event, lane)
        assert wide.stats.fired == sum(t.stats.fired for t in traced)
    return wide


def test_masks_split_a_group_like_per_lane_guards():
    table = compile_table(_split_machine())
    values = [{"n": n, "m": m} for n in range(-2, 9) for m in (0, 1)]
    wide = _per_lane(table, values, None, lambda _: ["go"])
    landed = {wide.config_name(lane) for lane in range(wide.n)}
    assert landed == {"A", "B", "C"}     # both guards and the discard
    stream = ["go", "back", "hop", "back", "go", "hop", "go", "back", "hop",
              "back", "back"]
    wide = _per_lane(table, values, None, lambda _: stream)
    assert wide.stats.scalar_lane_events == 0
    assert wide.stats.fast_lane_events == wide.n * len(stream)
    # A's wait cell runs scalar (E's guarded completion); E's back cell
    # is masked and must reset the consumed flag E's lanes carry.  The
    # two n == 3 lanes stay in E and discard the second wait.
    wide = _per_lane(table, values, None,
                     lambda _: ["wait", "back", "wait", "back"])
    assert wide.stats.scalar_lane_events == 2 * wide.n - 2


def test_masks_split_generated_machines_like_per_lane_guards():
    rng = random.Random(11)
    for table in _case_tables(30):
        if not table.attr_names:
            continue
        values = [{name: rng.randint(-3, 4) for name in table.attr_names}
                  for _ in range(12)]
        _per_lane(table, values, rng.randint(2, 30),
                  _adaptive(rng, rng.randint(5, 25)))


@pytest.mark.parametrize("guard", ["n + 1 > 2", "n < 9223372036854775808",
                                   "probe(n) > 0"])
def test_guards_outside_the_mask_subset_run_scalar(guard):
    b = StateMachineBuilder("Scalar")
    b.attribute("n", 0)
    b.state("A")
    b.state("B")
    b.initial_to("A")
    b.transition("A", "B", on="go", guard=guard)
    b.transition("B", "A", on="back")
    table = compile_table(b.build())
    values = [{"n": n} for n in range(-3, 5)]
    wide = _per_lane(table, values, None, lambda _: ["go", "back", "go"],
                     externals={"probe": lambda n: n - 1})
    assert wide.stats.scalar_lane_events == 2 * len(values)
    assert wide.stats.fast_lane_events == len(values)


def test_broadcast_harness_never_regroups_its_lanes(fleet_family,
                                                     monkeypatch):
    """Every fleet of a broadcast harness starts identical and takes
    one stream, so each dispatch finds its lanes in one configuration
    and takes them as one group: ``np.unique`` never runs."""
    unique = engine._np.unique
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return unique(*args, **kwargs)

    monkeypatch.setattr(engine._np, "unique", counting)
    tables = [compile_table(machine) for machine in fleet_family]
    harness = FleetHarness([(table, 64) for table in tables], n_shards=2,
                           batch_size=32, routing="broadcast").start()
    rng = random.Random(3)
    alphabet = sorted({name for table in tables
                       for name in table.event_names})
    report = harness.run([rng.choice(alphabet) for _ in range(300)])
    assert report.lane_events == 300 * 64 * len(tables)
    assert all(shard.fast_fraction == 1.0 for shard in report.shards)
    assert calls == []


def _merge_machine():
    """``go`` splits lanes three ways by ``n``; ``reset`` takes every
    lane of every configuration to R, unguarded."""
    b = StateMachineBuilder("Merge")
    b.attribute("n", 0)
    for name in ("A", "B", "C", "R"):
        b.state(name)
    b.initial_to("A")
    b.transition("A", "B", on="go", guard="n > 0")
    b.transition("A", "C", on="go", guard="n < 0")
    for name in ("A", "B", "C"):
        b.transition(name, "R", on="reset")
    b.transition("R", "A", on="again")
    return b.build()


def test_split_lanes_merge_back_into_one_configuration():
    table = compile_table(_merge_machine())
    values = [{"n": n} for n in range(-3, 4)]
    wide = _per_lane(table, values, None, lambda _: ["go"])
    assert {wide.config_name(lane) for lane in range(wide.n)} == \
        {"A", "B", "C"}
    assert wide._uniform is None
    wide = _per_lane(table, values, None, lambda _: ["go", "reset"])
    assert {wide.config_name(lane) for lane in range(wide.n)} == {"R"}
    # The grouped dispatch leaves the record unset; the next dispatch
    # finds every lane in R and records it.
    wide = _per_lane(table, values, None,
                     lambda _: ["go", "reset", "tick"])
    assert wide._uniform == table.config_names.index("R")
    wide = _per_lane(table, values, None,
                     lambda _: ["go", "reset", "again", "reset"])
    assert wide._uniform == table.config_names.index("R")
    assert wide.stats.scalar_lane_events == 0


def test_one_configuration_meets_scalar_cells_and_pending_lanes():
    """The start emits ``kick``, so the first dispatch finds every lane
    pending; ``bump`` assigns, so its cell runs the scalar loop over
    the one group."""
    b = StateMachineBuilder("Kick")
    b.attribute("n", 0)
    for name in ("A", "B", "C"):
        b.state(name)
    b.initial_to("A", effect=[EmitStmt("kick")])
    b.transition("A", "B", on="kick")
    b.internal("B", on="bump", effect=[Assign("n", parse_expr("n + 1"))])
    b.transition("B", "C", on="go", guard="n > 1")
    b.transition("C", "B", on="back")
    table = compile_table(b.build())
    stream = ["go", "bump", "go", "bump", "go", "back", "bump", "go"]
    wide = _per_lane(table, [{}] * 8, None, lambda _: stream)
    assert wide.config_name(0) == "C"
    assert wide._uniform == table.config_names.index("C")
    # pending lanes and the three bumps ran scalar, every go and back
    # by one masked store
    assert wide.stats.scalar_lane_events == 4 * wide.n
    assert wide.stats.fast_lane_events == 4 * wide.n
