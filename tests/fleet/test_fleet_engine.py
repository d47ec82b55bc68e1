"""The fleet engine: trace parity, wide-lane agreement, stats, budgets."""

import pytest

from repro.fleet import (Fleet, FleetExecutionError, compile_table)
from repro.semantics.runtime import MachineInstance
from repro.semantics.trace import observable_equal
from repro.uml import Assign, StateMachineBuilder, calls, parse_expr


def interpreter_run(machine, events, externals=None):
    instance = MachineInstance(machine, externals=externals)
    instance.start()
    for event in events:
        instance.dispatch(event)
    return instance


class TestTraceParity:
    SCENARIOS = ([], ["e1"], ["e1", "e3"], ["e1", "e3", "e1", "e4"],
                 ["e4", "e4"], ["bogus", "e1"])

    def test_flat_machine_traced_lane(self, flat_machine):
        for events in self.SCENARIOS:
            ref = interpreter_run(flat_machine, events)
            fleet = Fleet(flat_machine, 1, trace=True).start()
            for event in events:
                fleet.dispatch_all(event)
            assert observable_equal(ref.trace, fleet.trace_of(0)), events
            assert ref.in_final == fleet.lane_in_final(0), events

    def test_hierarchical_machine_traced_lane(self, hierarchical_machine):
        for events in ([], ["e2"], ["e1", "e2"], ["e31", "e9", "e2"]):
            ref = interpreter_run(hierarchical_machine, events)
            fleet = Fleet(hierarchical_machine, 1, trace=True).start()
            for event in events:
                fleet.dispatch_all(event)
            assert observable_equal(ref.trace, fleet.trace_of(0)), events
            assert ref.in_final == fleet.lane_in_final(0), events

    def test_wide_fleet_matches_interpreter_everywhere(self, flat_machine):
        events = ["e1", "e3", "e1", "e4"]
        ref = interpreter_run(flat_machine, events)
        fleet = Fleet(flat_machine, 37).start()
        for event in events:
            fleet.dispatch_all(event)
        for lane in range(fleet.n):
            assert fleet.lane_in_final(lane) == ref.in_final
            assert fleet.attributes_of(lane) == dict(ref.attributes)
        assert fleet.finals() == (37 if ref.in_final else 0)


class TestVectorizedPath:
    def test_static_jumps_take_the_fast_path(self, flat_machine):
        fleet = Fleet(flat_machine, 64).start()
        fleet.dispatch_all("e1")
        fleet.dispatch_all("e3")
        assert fleet.stats.fast_lane_events == 128
        assert fleet.stats.scalar_lane_events == 0
        assert fleet.stats.fast_fraction == 1.0

    def test_traced_fleet_runs_scalar(self, flat_machine):
        fleet = Fleet(flat_machine, 2, trace=True).start()
        fleet.dispatch_all("e1")
        assert fleet.stats.scalar_lane_events == 2
        assert fleet.stats.fast_lane_events == 0

    def test_guarded_cell_vectorizes_and_assignment_runs_scalar(self):
        b = StateMachineBuilder("Guarded")
        b.attribute("n", 0)
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="go", guard="n == 0")
        b.transition("A", "A", on="bump",
                     effect=[Assign("n", parse_expr("n + 1"))])
        machine = b.build()
        ref = interpreter_run(machine, ["bump", "go"])
        fleet = Fleet(machine, 8).start()
        fleet.dispatch_all("bump")
        assert fleet.stats.scalar_lane_events == 8   # an assignment
        fleet.dispatch_all("go")
        assert fleet.stats.fast_lane_events == 8     # a lane mask
        assert fleet.stats.scalar_lane_events == 8
        for lane in range(8):
            assert fleet.attributes_of(lane) == dict(ref.attributes)
            assert fleet.config_name(lane) == "A"   # guard was false

    def test_vectorized_route_counts_every_firing(self):
        # A -e-> B, then B's completion -> C: the scalar path fires two
        # transitions per lane, and so must the route.
        b = StateMachineBuilder("Chain")
        b.state("A")
        b.state("B")
        b.state("C")
        b.initial_to("A")
        b.transition("A", "B", on="e")
        b.completion("B", "C")
        machine = b.build()
        traced = Fleet(machine, 1, trace=True).start()
        wide = Fleet(machine, 2).start()
        traced.dispatch_all("e")
        wide.dispatch_all("e")
        assert wide.stats.fast_lane_events == 2
        assert traced.stats.fired == 2
        assert wide.stats.fired == wide.n * traced.stats.fired
        assert wide.config_name(1) == traced.config_name(0) == "C"


class TestObservers:
    def test_current_and_active_states(self, hierarchical_machine):
        fleet = Fleet(hierarchical_machine, 3).start()
        # start: S1's unguarded completion fires immediately -> S2
        assert fleet.current_state(0) == "S2"
        assert "S2" in fleet.active_states(0)
        fleet.dispatch_all("e2")
        assert fleet.lane_in_final(2)
        assert fleet.current_state(2) is None

    def test_run_stream_equals_dispatch_loop(self, flat_machine):
        a = Fleet(flat_machine, 4).start().run_stream(["e1", "e3"])
        b = Fleet(flat_machine, 4).start()
        b.dispatch_all("e1")
        b.dispatch_all("e3")
        for lane in range(4):
            assert a.config_name(lane) == b.config_name(lane)


class TestExternalsAndEmits:
    def test_mapped_externals_receive_calls(self):
        b = StateMachineBuilder("Ext")
        b.state("A")
        b.state("B", entry=calls("beep"))
        b.initial_to("A")
        b.transition("A", "B", on="go")
        machine = b.build()
        seen = []
        fleet = Fleet(machine, 2,
                      externals={"beep": lambda: seen.append(1)}).start()
        fleet.dispatch_all("go")
        assert len(seen) == 2   # one call per lane

    def test_emitted_event_feeds_back(self):
        b = StateMachineBuilder("Emit")
        b.state("A")
        b.state("B")
        b.state("C")
        b.initial_to("A")
        b.transition("A", "B", on="go", effect=[__import__(
            "repro.uml.actions", fromlist=["EmitStmt"]).EmitStmt("next")])
        b.transition("B", "C", on="next")
        machine = b.build()
        ref = interpreter_run(machine, ["go"])
        fleet = Fleet(machine, 5).start()
        fleet.dispatch_all("go")
        for lane in range(5):
            assert fleet.config_name(lane) == "C"
        assert ref.current_state == "C"


class TestBudget:
    def _livelock_machine(self):
        b = StateMachineBuilder("Livelock")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.completion("A", "B")
        b.completion("B", "A")
        return b.build()

    def test_budget_exhaustion_raises(self):
        machine = self._livelock_machine()
        with pytest.raises(FleetExecutionError):
            Fleet(machine, 1, step_budget=100).start()

    def test_unbounded_budget_is_opt_in(self, flat_machine):
        fleet = Fleet(flat_machine, 1, step_budget=None).start()
        fleet.dispatch_all("e1")
        assert fleet.config_name(0) == "S3"

    @pytest.mark.parametrize("width, trace", [(1, True), (2, False)])
    def test_every_path_charges_the_budget(self, width, trace):
        b = StateMachineBuilder("PingPong")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="e")
        b.transition("B", "A", on="e")
        fleet = Fleet(b.build(), width, trace=trace, step_budget=5).start()
        for _ in range(5):
            fleet.dispatch_all("e")
        assert list(fleet._steps) == [5] * width
        with pytest.raises(FleetExecutionError, match="lane 0: .* budget"):
            fleet.dispatch_all("e")
        if not trace:
            assert fleet.stats.fast_lane_events == 5 * width


class TestSharedTable:
    def test_fleet_accepts_precompiled_table(self, flat_machine):
        table = compile_table(flat_machine)
        a = Fleet(table, 2).start()
        b = Fleet(table, 2).start()
        a.dispatch_all("e1")
        b.dispatch_all("e1")
        assert a.config_name(0) == b.config_name(0) == "S3"
