"""Every compiled fleet table and traced fleet run is pinned by a
committed golden fixture.

The conformance tests compare what a fleet *observes* with the
interpreter; they do not notice a change in how the table is built — a
configuration renamed or renumbered, a candidate losing its route or its
mask, a trace record moved.  This test pins all of it: one SHA-256 per
machine over

* the table's ``config_names``;
* the start program and every event and completion cell's candidates:
  end configuration name, internal flag, route (end name, consumed,
  fired, calls), description, guard and mask presence and the
  program's ``has_*`` flags, plus each cell's routes summary;
* a traced one-lane fleet's full trace (every record's kind and
  detail), final configuration and attributes over
  :func:`~repro.vm.conformance_scenarios` of the machine, a budget
  error included.

Machines: the paper's Fig. 1 pair, the eight machines of perfbench's
``fleet`` workload, and the ``generate_case(seed, DEFAULT_PROFILES[i %
6])`` machines of seeds 1000-1059 that the table compiler accepts.

Regenerate the fixture only after an intended change to how tables are
built or what a fleet traces, and say why in CHANGES.md::

    PYTHONPATH=src python tests/fleet/test_table_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.fleet import (Fleet, FleetExecutionError, FleetUnsupported,
                         compile_table)
from repro.fuzz.generate import DEFAULT_PROFILES, generate_case
from repro.vm import conformance_scenarios

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "table_golden.json"
#: perfbench's ``fleet`` machines: (n_live, n_dead, n_shadowed_composites,
#: guarded_fraction, entry_calls), drawn in this order from one seed.
FLEET_MACHINES = 2 * ((8, 2, 1, 0.25, 2), (6, 1, 0, 0.5, 3),
                      (10, 0, 2, 0.25, 1), (5, 3, 1, 0.75, 2))
FLEET_MACHINE_SEED = 0xF1EE7
GENERATED_SEEDS = range(1000, 1060)


def _machines():
    """``(key, machine)`` for every machine of the fixture."""
    rng = random.Random(FLEET_MACHINE_SEED)
    fleet = [generate_machine(WorkloadSpec(
        n_live=n_live, n_dead=n_dead, n_shadowed_composites=n_comp,
        guarded_fraction=guarded, entry_calls=entry,
        seed=rng.getrandbits(32), name=f"Fleet{index}"))
        for index, (n_live, n_dead, n_comp, guarded, entry)
        in enumerate(FLEET_MACHINES)]
    yield from ((m.name, m) for m in (
        flat_machine_with_unreachable_state(),
        hierarchical_machine_with_shadowed_composite(), *fleet))
    for i, seed in enumerate(GENERATED_SEEDS):
        case = generate_case(seed, DEFAULT_PROFILES[i % len(
            DEFAULT_PROFILES)])
        yield f"{seed}|{case.machine.name}", case.machine


def _program(table, program):
    return (table.config_names[program.end], program.internal,
            program.desc, program.has_assign, program.has_emit,
            program.has_call)


def _cell(table, cell):
    if cell is None:
        return None
    candidates = []
    for cand in cell.candidates:
        route = cand.route and (table.config_names[cand.route.end],
                                cand.route.consumed, cand.route.fired,
                                cand.route.has_call)
        candidates.append((_program(table, cand.program), route,
                           cand.guard is not None, cand.mask is not None))
    return (candidates, cell.routes is None, cell.routes_call,
            cell.routes_fired)


def _run(table, events):
    """A traced one-lane fleet over *events*: every trace record, the
    final configuration and attributes, and the error if one was
    raised."""
    fleet = Fleet(table, 1, trace=True)
    error = None
    try:
        fleet.start()
        for event in events:
            fleet.dispatch_all(event)
    except FleetExecutionError as exc:
        error = str(exc)
    records = [(r.kind.value, r.detail) for r in fleet.trace_of(0)]
    return (records, fleet.config_name(0), fleet.attributes_of(0), error)


def _digest(table, scenarios) -> str:
    hasher = hashlib.sha256()
    hasher.update(repr(table.config_names).encode())
    hasher.update(repr(_program(table, table.start)).encode())
    for row, completion in zip(table.cells, table.completion):
        hasher.update(repr([_cell(table, cell) for cell in row]).encode())
        hasher.update(repr(_cell(table, completion)).encode())
    for events in scenarios:
        hasher.update(b"\x00")
        hasher.update(repr(_run(table, events)).encode())
    return hasher.hexdigest()


def compute_digests():
    """``{machine key: digest}`` over every machine the table compiler
    accepts."""
    digests = {}
    for key, machine in _machines():
        try:
            table = compile_table(machine)
        except FleetUnsupported:
            continue
        digests[key] = _digest(table, conformance_scenarios(machine))
    return digests


def test_tables_and_traces_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert compute_digests() == golden


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
