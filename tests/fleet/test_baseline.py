"""The interpreter baseline must time dispatch only.

``run_fleet_throughput`` used to construct and ``start()`` each
interpreter instance *inside* the timed region, charging per-instance
setup to the baseline and inflating the reported fleet speedup.  The
pinned test here instruments the injectable clock and the interpreter
to prove the timed window contains nothing but ``dispatch`` calls.

The fleet gate (``scripts/check_bench.py --fleet-smoke``) must fail
with a FAIL line, not a traceback, when the smoke reports no speedup.
"""

import json
import pathlib
import runpy
import subprocess
import sys

import pytest

from repro.fleet import ThroughputReport, interpreter_dispatch_rate
from repro.fleet.baseline import FleetThroughputRow, run_fleet_throughput
from repro.semantics.runtime import MachineInstance
from repro.uml import StateMachineBuilder


def tiny_machine():
    b = StateMachineBuilder("Tiny")
    b.state("A")
    b.state("B")
    b.initial_to("A")
    b.transition("A", "B", on="go")
    b.transition("B", "A", on="back")
    return b.build()


class TestDispatchOnlyTiming:
    def test_timed_region_contains_only_dispatches(self, monkeypatch):
        log = []
        orig_init = MachineInstance.__init__
        orig_start = MachineInstance.start
        orig_dispatch = MachineInstance.dispatch
        monkeypatch.setattr(MachineInstance, "__init__",
                            lambda self, *a, **k: (log.append("construct"),
                                                   orig_init(self, *a, **k))[1])
        monkeypatch.setattr(MachineInstance, "start",
                            lambda self, *a, **k: (log.append("start"),
                                                   orig_start(self, *a, **k))[1])
        monkeypatch.setattr(MachineInstance, "dispatch",
                            lambda self, *a, **k: (log.append("dispatch"),
                                                   orig_dispatch(self, *a, **k))[1])

        ticks = iter([10.0, 14.0])

        def clock():
            log.append("tick")
            return next(ticks)

        rate = interpreter_dispatch_rate(tiny_machine(), ["go", "back"],
                                         sample=3, clock=clock)
        first, second = log.index("tick"), len(log) - 1 - \
            log[::-1].index("tick")
        assert log[first + 1:second] == ["dispatch"] * 6
        assert "construct" not in log[first:]
        assert "start" not in log[first:]
        assert rate == pytest.approx(6 / 4.0)

    def test_zero_sample_rate_is_zero(self):
        assert interpreter_dispatch_rate(tiny_machine(), ["go"], 0) == 0.0

    def test_zero_elapsed_rate_is_zero(self):
        assert interpreter_dispatch_rate(tiny_machine(), ["go"], 1,
                                         clock=lambda: 5.0) == 0.0

    def test_throughput_harness_uses_the_helper(self, monkeypatch):
        calls = {}

        def fake_rate(machine, events, sample, **kwargs):
            calls["args"] = (machine.name, list(events), sample)
            return 123.0

        import repro.fleet.baseline as baseline
        monkeypatch.setattr(baseline, "interpreter_dispatch_rate",
                            fake_rate)
        row = run_fleet_throughput(tiny_machine(), n_instances=8,
                                   n_events=5, n_shards=1,
                                   interp_sample=4)
        assert calls["args"][0] == "Tiny"
        assert calls["args"][2] == 4
        assert row.interp_events_per_sec == 123.0


class TestSpeedupRendering:
    def row(self, interp):
        # 50 lane-events in 0.05 s: 1000 events/sec.
        report = ThroughputReport(
            n_lanes=10, n_shards=1, routing="broadcast", events_routed=5,
            lane_events=50, fired=0, elapsed_s=0.05, shards=[])
        return FleetThroughputRow(
            machine_name="M", table="table[M]", stream_events=5,
            report=report, interp_sample=1, interp_events_per_sec=interp)

    def test_speedup_is_ratio(self):
        assert self.row(100.0).speedup == pytest.approx(10.0)
        assert self.row(100.0).speedup_display == "10.0x"

    def test_zero_baseline_is_not_infinite(self):
        row = self.row(0.0)
        assert row.speedup is None
        assert row.speedup_display == "n/a"

    def test_zero_baseline_survives_json(self):
        import json
        row = self.row(0.0)
        payload = json.dumps({"speedup": row.speedup})
        assert json.loads(payload)["speedup"] is None


class TestSmokeJsonGuard:
    def test_smoke_json_never_emits_infinity(self, monkeypatch, capsys):
        import repro.fleet.__main__ as fleet_main
        import repro.fleet.baseline as baseline
        monkeypatch.setattr(baseline, "interpreter_dispatch_rate",
                            lambda *a, **k: 0.0)
        code = fleet_main.main(["smoke", "--instances", "16",
                                "--events", "4", "--shards", "1",
                                "--json"])
        out = capsys.readouterr().out
        assert code == 0
        result = json.loads(out)   # valid JSON, no Infinity
        assert result["speedup_vs_interp"] is None


class TestFleetGate:
    SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "scripts" / \
        "check_bench.py"

    def test_gate_fails_cleanly_without_baseline(self, monkeypatch,
                                                 capsys):
        smoke = {"instances": 10000, "lane_events": 2000000,
                 "events_per_sec": 5e8, "speedup_vs_interp": None}

        def fake_run(cmd, **kwargs):
            return subprocess.CompletedProcess(
                cmd, 0, stdout=json.dumps(smoke), stderr="")

        monkeypatch.setattr(subprocess, "run", fake_run)
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), "--fleet-smoke",
                                          "--retries", "0"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(str(self.SCRIPT), run_name="__main__")
        assert exit_info.value.code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("check_bench --fleet-smoke: FAIL")
        assert "speedup n/a" in lines[-1]
