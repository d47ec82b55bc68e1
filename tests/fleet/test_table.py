"""The table compiler: config space, cell classification, rejections."""

import gc

import numpy as np
import pytest

from repro.fleet import FINAL_CONFIG, Fleet, FleetUnsupported, compile_table
from repro.semantics.variation import (ConflictPolicy,
                                       UML_DEFAULT_SEMANTICS)
from repro.uml import Assign, StateMachineBuilder, calls, parse_expr


class TestConfigSpace:
    def test_flat_machine_configs_and_columns(self, flat_machine):
        table = compile_table(flat_machine)
        # FINAL + (S1, S3 reachable; S2 unreachable but enterable
        # through its row only if some transition targets it — the
        # worklist only materializes configs reachable from start or
        # a fire destination).
        assert table.config_names[FINAL_CONFIG] == "<final>"
        assert "e1" in table.event_names
        # one extra column routes out-of-alphabet events
        assert table.n_columns == len(table.event_names) + 1
        assert table.column_of("no_such_event") == table.other_column

    def test_final_row_is_empty(self, flat_machine):
        table = compile_table(flat_machine)
        assert all(cell.empty for cell in table.cells[FINAL_CONFIG])
        assert table.completion[FINAL_CONFIG] is None

    def test_describe_mentions_static_fraction(self, hierarchical_machine):
        table = compile_table(hierarchical_machine)
        assert "static" in table.describe()

    def test_event_names_deduped_in_declaration_order(self):
        b = StateMachineBuilder("Dedup")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="x")
        b.transition("B", "A", on="x")
        b.transition("A", "final", on="y")
        table = compile_table(b.build())
        assert table.event_names.count("x") == 1


class TestClassification:
    def test_bare_jump_is_static(self):
        b = StateMachineBuilder("Bare")
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="go")
        table = compile_table(b.build())
        config_a = table.config_names.index("A")
        cell = table.cells[config_a][table.column_of("go")]
        assert cell.static_end is not None
        assert cell.static_consumed is False   # fresh external entry

    def test_assign_effect_is_dynamic(self):
        b = StateMachineBuilder("Dyn")
        b.attribute("n", 0)
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="go",
                     effect=[Assign("n", parse_expr("n + 1"))])
        table = compile_table(b.build())
        config_a = table.config_names.index("A")
        cell = table.cells[config_a][table.column_of("go")]
        assert cell.static_end is None

    def test_guarded_transition_is_dynamic(self):
        b = StateMachineBuilder("Guarded")
        b.attribute("n", 0)
        b.state("A")
        b.state("B")
        b.initial_to("A")
        b.transition("A", "B", on="go", guard="n == 0")
        table = compile_table(b.build())
        config_a = table.config_names.index("A")
        cell = table.cells[config_a][table.column_of("go")]
        assert cell.static_end is None

    def test_entry_calls_stay_static(self):
        # Calls are observable only when mapped/traced; the classifier
        # marks the route call-bearing but still static.
        b = StateMachineBuilder("Calls")
        b.state("A")
        b.state("B", entry=calls("beep"))
        b.initial_to("A")
        b.transition("A", "B", on="go")
        table = compile_table(b.build())
        config_a = table.config_names.index("A")
        cell = table.cells[config_a][table.column_of("go")]
        assert cell.static_end is not None
        assert cell.static_has_call


class TestRoutesAndMasks:
    def _table(self, *guards):
        b = StateMachineBuilder("Routes")
        b.attribute("n", 0)
        b.attribute("m", 0)
        b.state("A")
        b.initial_to("A")
        for index, guard in enumerate(guards):
            b.state(f"T{index}")
            b.transition("A", f"T{index}", on="go", guard=guard)
        return compile_table(b.build())

    def _cell(self, *guards):
        return self._go(self._table(*guards))

    @staticmethod
    def _go(table):
        return table.cells[table.config_names.index("A")][
            table.column_of("go")]

    def test_guarded_candidates_get_routes_and_masks(self):
        cell = self._cell("n > 0", "n < -1", None, "m == 0")
        assert cell.static_end is None
        # the fourth candidate follows an unguarded one: never tried
        assert [mask is None for mask, _ in cell.routes] == \
            [False, False, True]
        assert all(cand.route is not None for cand in cell.candidates)
        assert [route.fired for _, route in cell.routes] == [1, 1, 1]

    def test_unguarded_first_candidate_is_the_static_route(self):
        cell = self._cell(None, "n > 0")
        assert cell.routes == ((None, cell.candidates[0].route),)
        assert cell.static_end == cell.candidates[0].route.end

    @pytest.mark.parametrize("guard", [
        "n > 0", "n", "!m", "true", "1 < 0", "n < m", "(n > 0) == (m > 0)",
        "n > 1 || m < 0", "!(n == 1) && (m <= -3 || false)",
        "n != 9223372036854775807", "-9223372036854775808 < m"])
    def test_mask_agrees_with_the_scalar_guard(self, guard):
        table = self._table(guard)
        cand = self._go(table).candidates[0]
        assert cand.mask is not None
        fleet = Fleet(table, 25).start()
        fleet.V[0][:] = np.repeat(np.arange(-2, 3), 5)     # n
        fleet.V[1][:] = np.tile(np.arange(-2, 3), 5)       # m
        lanes = np.arange(3, fleet.n)
        assert cand.mask(fleet, lanes).tolist() == \
            [cand.guard(fleet, lane) for lane in lanes.tolist()]

    @pytest.mark.parametrize("guard", [
        "n + 1 > 2", "-n < 0", "n < 9223372036854775808", "probe() > 0",
        "n > 0 && probe() == 0"])
    def test_other_guards_have_no_mask(self, guard):
        cell = self._cell(guard)
        assert cell.candidates[0].mask is None
        assert cell.routes is None

    def test_route_counts_completion_firings(self):
        b = StateMachineBuilder("Chain")
        b.state("A")
        b.state("B")
        b.state("C")
        b.initial_to("A")
        b.transition("A", "B", on="e")
        b.completion("B", "C")
        table = compile_table(b.build())
        cell = table.cells[table.config_names.index("A")][
            table.column_of("e")]
        route = cell.static_route
        assert route.end == table.config_names.index("C")
        assert (route.consumed, route.fired, route.has_call) == \
            (False, 2, False)

    def test_guarded_completion_leaves_no_route(self):
        b = StateMachineBuilder("GuardedCompletion")
        b.attribute("n", 0)
        b.state("A")
        b.state("B")
        b.state("C")
        b.initial_to("A")
        b.transition("A", "B", on="e")
        b.completion("B", "C", guard="n == 0")
        table = compile_table(b.build())
        cell = table.cells[table.config_names.index("A")][
            table.column_of("e")]
        assert cell.candidates[0].route is None
        assert cell.routes is None


class TestRejections:
    def test_non_default_semantics_rejected(self, flat_machine):
        variant = UML_DEFAULT_SEMANTICS.with_(
            conflict_resolution=ConflictPolicy.OUTERMOST_FIRST)
        with pytest.raises(FleetUnsupported):
            compile_table(flat_machine, variant)

    def test_default_semantics_accepted(self, flat_machine):
        assert compile_table(flat_machine, UML_DEFAULT_SEMANTICS)

    def test_choice_pseudostate_rejected(self):
        b = StateMachineBuilder("Choice")
        b.attribute("n", 0)
        b.state("A")
        b.state("B")
        b.state("C")
        b.initial_to("A")
        pick = b.choice("pick")
        b.transition("A", pick, on="go")
        b.transition(pick, "B", guard="n == 0")
        b.transition(pick, "C")
        machine = b.build()
        with pytest.raises(FleetUnsupported):
            compile_table(machine)


class TestGarbage:
    def test_compiled_fleets_leave_no_cyclic_garbage(self, fleet_family):
        """Compiled guards and behaviors hold no reference back to
        themselves, so a table and its fleets are freed by reference
        counting alone."""
        def compile_and_run():
            for machine in fleet_family:
                table = compile_table(machine)
                fleet = Fleet(table, 100).start()
                for name in 4 * table.event_names:
                    fleet.dispatch_all(name)

        compile_and_run()            # warm up imports and caches
        gc.collect()
        gc.disable()
        try:
            compile_and_run()
            assert gc.collect() == 0
        finally:
            gc.enable()
