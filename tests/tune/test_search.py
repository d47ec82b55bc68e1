"""The search: lattice pruning, measurement, caching, persistence."""

import pytest

from repro.compiler import OptLevel
from repro.engine import ExperimentEngine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.optim import optimize, suggest_optimizations
from repro.tune import EventProfile, ObjectiveWeights, pass_subsets
from repro.tune.search import DEFAULT_LEVELS

FAST_LEVELS = (OptLevel.O0, OptLevel.OS)
FAST_PATTERNS = ["state-table", "flat-switch"]


@pytest.fixture(scope="module")
def machine():
    return hierarchical_machine_with_shadowed_composite()


@pytest.fixture(scope="module")
def rec(machine):
    return ExperimentEngine().tune(machine, patterns=FAST_PATTERNS,
                                   levels=FAST_LEVELS)


class TestPassSubsets:
    def test_powerset_in_order(self):
        prior = ["a", "b"]
        assert pass_subsets(prior) == [(), ("a",), ("b",), ("a", "b")]

    def test_empty_prior_keeps_baseline(self):
        assert pass_subsets([]) == [()]

    def test_duplicates_collapsed(self):
        assert pass_subsets(["a", "a"]) == [(), ("a",)]

    def test_subsets_preserve_prior_order(self):
        for subset in pass_subsets(["x", "y", "z"]):
            indices = [["x", "y", "z"].index(p) for p in subset]
            assert indices == sorted(indices)


class TestSearch:
    def test_lattice_dimensions(self, machine, rec):
        prior = [s.pass_name for s in suggest_optimizations(machine)]
        assert list(rec.prior) == prior
        expected = (len(FAST_PATTERNS) * len(FAST_LEVELS)
                    * 2 ** len(prior))
        assert len(rec.cells) == expected

    def test_winner_is_conformant_and_pareto_optimal(self, rec):
        assert rec.winner is not None
        assert rec.winner.conformant
        assert rec.winner in rec.frontier()
        assert rec.verify() == []

    def test_winner_beats_every_conformant_cell(self, rec):
        assert all(rec.winner.score <= c.score
                   for c in rec.conformant_cells)

    def test_record_identifies_the_question(self, machine, rec):
        from repro.engine.fingerprint import machine_fingerprint
        assert rec.machine_name == machine.name
        assert rec.machine_fingerprint == machine_fingerprint(machine)
        assert rec.target == "rt32"
        assert rec.objective == ObjectiveWeights()
        assert rec.profile == EventProfile()

    def test_winner_passes_actually_apply(self, machine, rec):
        # The winning subset must be a runnable selection as-is.
        report = optimize(machine, selection=list(rec.winner.passes))
        assert report.optimized is not None

    def test_narrower_lattice_is_a_different_record(self, machine):
        eng = ExperimentEngine()
        full = eng.tune(machine, patterns=FAST_PATTERNS,
                        levels=FAST_LEVELS)
        narrow = eng.tune(machine, patterns=["state-table"],
                          levels=FAST_LEVELS)
        assert {c.pattern for c in narrow.cells} == {"state-table"}
        assert len(narrow.cells) < len(full.cells)

    def test_default_levels_are_the_full_ladder(self):
        assert DEFAULT_LEVELS == (OptLevel.O0, OptLevel.O1, OptLevel.O2,
                                  OptLevel.OS)

    def test_flat_machine_tunes_too(self):
        rec = ExperimentEngine().tune(flat_machine_with_unreachable_state(),
                                      patterns=["nested-switch"],
                                      levels=(OptLevel.OS,))
        assert rec.winner is not None
        assert rec.verify() == []


class TestCaching:
    def test_second_tune_is_a_record_hit(self, machine):
        eng = ExperimentEngine()
        first = eng.tune(machine, patterns=FAST_PATTERNS,
                         levels=FAST_LEVELS)
        before = eng.stats.snapshot()
        second = eng.tune(machine, patterns=FAST_PATTERNS,
                          levels=FAST_LEVELS)
        after = eng.stats.snapshot()
        assert second is first
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1

    def test_cell_measurements_shared_with_dynamics(self, machine):
        # A warm engine that already ran the tuner serves the dynamics
        # harness's (pattern, level) cells from cache: the tuner's
        # baseline subset measurements are the same artifacts.
        eng = ExperimentEngine()
        eng.tune(machine, patterns=["state-table"],
                 levels=(OptLevel.OS,))
        before = eng.stats.snapshot()["misses"]
        eng.vm_conformance(machine, pattern="state-table",
                           level=OptLevel.OS)
        assert eng.stats.snapshot()["misses"] == before

    def test_persists_and_reloads_byte_identical(self, machine, tmp_path):
        cold = ExperimentEngine(cache_dir=str(tmp_path))
        first = cold.tune(machine, patterns=FAST_PATTERNS,
                          levels=FAST_LEVELS)
        warm = ExperimentEngine(cache_dir=str(tmp_path))
        second = warm.tune(machine, patterns=FAST_PATTERNS,
                           levels=FAST_LEVELS)
        assert second.to_json() == first.to_json()
        snap = warm.stats.snapshot()
        assert snap["misses"] == 0
        assert snap["disk_hits"] == snap["hits"] == 1

    def test_record_from_warm_cells_equals_a_cold_search(self, machine,
                                                         rec):
        """Cells another objective already measured serve the search
        without changing its record."""
        eng = ExperimentEngine()
        eng.tune(machine, patterns=FAST_PATTERNS, levels=FAST_LEVELS,
                 objective=ObjectiveWeights(cycles=0.0, text=1.0))
        before = eng.stats.snapshot()["misses"]
        warm = eng.tune(machine, patterns=FAST_PATTERNS,
                        levels=FAST_LEVELS)
        assert eng.stats.snapshot()["misses"] == before + 1  # the record
        assert warm.to_json() == rec.to_json()

    def test_objective_change_misses(self, machine, tmp_path):
        eng = ExperimentEngine(cache_dir=str(tmp_path))
        eng.tune(machine, patterns=["state-table"], levels=(OptLevel.OS,))
        heavy_text = eng.tune(machine, patterns=["state-table"],
                              levels=(OptLevel.OS,),
                              objective=ObjectiveWeights(cycles=0.0,
                                                         text=1.0))
        assert heavy_text.objective.text == 1.0
        # Same measurements, different election key: the record is
        # recomputed but every cell measurement is served from cache.
        assert eng.stats.snapshot()["misses"] >= 2


class TestMetrics:
    def test_cell_outcomes_counted(self, machine):
        from repro.obs.metrics import REGISTRY
        counter = REGISTRY.counter("tune_cells_total", "")
        before = counter.value(outcome="conformant")
        ExperimentEngine().tune(machine, patterns=["state-table"],
                                levels=(OptLevel.OS,))
        assert counter.value(outcome="conformant") > before
