"""Fleet benchmarks: table compile, vectorized dispatch, harness runs.

These pin the fleet engine's hot paths for ``scripts/check_bench.py``:

* **compile_table** — flattening the machine into dispatch arrays;
* **dispatch_10k** — one broadcast batch advancing 10^4 lanes;
* **harness_run** — a full sharded stream through ``FleetHarness``;
* **speedup** — the acceptance gate: at N=10^4 the vectorized engine
  must sustain >= 10x the per-instance interpreter's lane-event rate
  on the same machine and stream (measured here on a small interpreter
  sample and the full fleet, wall-clock but with a wide margin — the
  observed ratio is in the hundreds).
"""

import time

import pytest

from repro.experiments.models import \
    hierarchical_machine_with_shadowed_composite
from repro.fleet import (Fleet, FleetHarness, compile_table,
                         interpreter_dispatch_rate)

EVENTS = ["e1", "e2", "e5", "e3", "e9"] * 4


@pytest.fixture(scope="module")
def machine():
    return hierarchical_machine_with_shadowed_composite()


@pytest.fixture(scope="module")
def table(machine):
    return compile_table(machine)


def test_bench_fleet_compile_table(benchmark, machine):
    table = benchmark(lambda: compile_table(machine))
    assert table.n_configs > 1


def test_bench_fleet_dispatch_10k(benchmark, table):
    def run():
        fleet = Fleet(table, 10_000).start()
        for event in EVENTS:
            fleet.dispatch_all(event)
        return fleet

    fleet = benchmark(run)
    assert fleet.stats.lane_events == 10_000 * len(EVENTS)


def test_bench_fleet_harness_run(benchmark, table):
    def run():
        harness = FleetHarness(table, n_instances=4096, n_shards=4,
                               batch_size=32, routing="broadcast")
        harness.start()
        return harness.run(EVENTS)

    report = benchmark(run)
    assert report.lane_events == 4096 * len(EVENTS)


def test_fleet_speedup_over_interpreter(machine, table):
    """Acceptance gate (not a timing pin): >= 10x per-lane-event rate
    over per-instance interpretation at N=10^4.  Both sides time
    dispatches only: construction and ``start()`` stay outside."""
    n_lanes, sample = 10_000, 20

    fleet = Fleet(table, n_lanes).start()
    began = time.perf_counter()
    for event in EVENTS:
        fleet.dispatch_all(event)
    fleet_rate = (n_lanes * len(EVENTS)) / (time.perf_counter() - began)

    interp_rate = interpreter_dispatch_rate(machine, EVENTS, sample)

    assert interp_rate > 0
    speedup = fleet_rate / interp_rate
    assert speedup >= 10.0, (
        f"fleet {fleet_rate:,.0f} lane-events/s vs interpreter "
        f"{interp_rate:,.0f}: speedup {speedup:.1f}x < 10x floor")
