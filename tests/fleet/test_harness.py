"""The sharded fleet harness: routing, accounting, reports, budget."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.fleet import FleetHarness, compile_table
from repro.obs.metrics import REGISTRY

_REPO = pathlib.Path(__file__).resolve().parents[2]
#: The child imports `repro` like an installed package; run it with src/
#: on PYTHONPATH so the suite works without `pip install -e .`.
_ENV = dict(os.environ)
_ENV["PYTHONPATH"] = os.pathsep.join(
    [str(_REPO / "src")] + ([_ENV["PYTHONPATH"]]
                            if _ENV.get("PYTHONPATH") else []))


class TestRouting:
    def test_broadcast_every_lane_sees_every_event(self, flat_machine):
        harness = FleetHarness(flat_machine, n_instances=100, n_shards=4,
                               batch_size=8, routing="broadcast")
        harness.start()
        report = harness.run(["e1", "e3", "e1", "e4"])
        assert report.lane_events == 100 * 4
        assert harness.finals() == 100

    def test_round_robin_splits_the_stream(self, flat_machine):
        harness = FleetHarness(flat_machine, n_instances=8, n_shards=4,
                               batch_size=2, routing="round-robin")
        harness.start()
        report = harness.run(["e1"] * 8)
        # each shard received 2 of the 8 events, applied to all its lanes
        assert sum(s.events_routed for s in report.shards) == 8

    def test_unknown_routing_rejected(self, flat_machine):
        with pytest.raises(ValueError):
            FleetHarness(flat_machine, n_instances=4, routing="hash")


class TestSharding:
    def test_lanes_split_across_shards(self, flat_machine):
        harness = FleetHarness(flat_machine, n_instances=10, n_shards=4)
        assert harness.n_lanes == 10
        report = harness.start().run([])
        lanes = [shard.lanes for shard in report.shards]
        assert sum(lanes) == 10
        assert max(lanes) - min(lanes) <= 1

    def test_shards_clamped_to_instances(self, flat_machine):
        harness = FleetHarness(flat_machine, n_instances=2, n_shards=16)
        assert harness.n_shards <= 2

    def test_heterogeneous_fleet(self, flat_machine, hierarchical_machine):
        harness = FleetHarness([(flat_machine, 6),
                                (hierarchical_machine, 6)],
                               n_shards=2, routing="broadcast")
        harness.start()
        assert harness.n_lanes == 12
        harness.run(["e1", "e2"])


class TestReports:
    def test_throughput_report_fields(self, flat_machine):
        table = compile_table(flat_machine)
        harness = FleetHarness(table, n_instances=50, n_shards=2,
                               batch_size=4, routing="broadcast")
        harness.start()
        report = harness.run(["e1", "e3"])
        assert report.elapsed_s > 0
        assert report.events_per_sec > 0
        assert len(report.shards) == harness.n_shards
        for index, shard in enumerate(report.shards):
            assert shard.shard == index
            assert shard.p50_ms <= shard.p90_ms <= shard.p99_ms \
                <= shard.max_ms
        assert "lane-events" in report.summary()


class TestRegistry:
    def test_lane_events_count_once_per_delivery(self, flat_machine):
        """Reports stay cumulative, but the registry counts each
        lane-event once, when a flush delivers it."""
        counter = REGISTRY.get("fleet_lane_events_total")
        harness = FleetHarness(flat_machine, n_instances=100, n_shards=4,
                               batch_size=2, routing="broadcast")
        harness.start()
        before = counter.value()
        for _ in range(3):
            harness.run(["e1", "e3", "e1"])
        report = harness.run([])
        assert report.lane_events == 900
        assert counter.value() - before == 900


#: A harness over a machine whose completions cycle ``A -> B -> A``; it
#: prints the error its start raises.
LIVELOCK = """
from repro.fleet import FleetExecutionError, FleetHarness
from repro.uml import StateMachineBuilder
b = StateMachineBuilder("Livelock")
b.state("A")
b.state("B")
b.initial_to("A")
b.completion("A", "B")
b.completion("B", "A")
try:
    FleetHarness(b.build(), n_instances=8, n_shards=2).start()
except FleetExecutionError as exc:
    print(exc)
"""


class TestBudget:
    def test_livelocked_machine_raises_instead_of_spinning(self):
        """Harness fleets keep the step budget.  Run in a child process
        under a timeout, so a start that spins fails the test instead
        of hanging the suite."""
        proc = subprocess.run([sys.executable, "-c", LIVELOCK], env=_ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "run-to-completion step budget exceeded (10000)" in \
            proc.stdout
