"""Tests for the experiment harnesses and the workload generator."""

import pytest

from repro.analysis import find_dead_code, measure_model
from repro.codegen import ALL_PATTERNS
from repro.engine import ExperimentEngine
from repro.experiments.figure1 import run_figure1
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.table1 import PAPER_TABLE1, run_table1
from repro.experiments.table2 import PAPER_TABLE2, run_table2
from repro.experiments.sweeps import (opt_level_sweep, pass_ablation,
                                      unreachable_sweep)
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.optim import check_equivalence, optimize
from repro.uml import validate_machine


class TestWorkloadGenerator:
    def test_generated_machine_validates(self):
        machine = generate_machine(WorkloadSpec(n_live=5, n_dead=2,
                                                n_shadowed_composites=1))
        validate_machine(machine)

    def test_deterministic_in_seed(self):
        from repro.uml import dumps_machine
        a = generate_machine(WorkloadSpec(seed=42))
        b = generate_machine(WorkloadSpec(seed=42))
        assert dumps_machine(a) == dumps_machine(b)

    def test_dead_state_count(self):
        spec = WorkloadSpec(n_live=4, n_dead=3)
        report = find_dead_code(generate_machine(spec))
        flat_dead = [d for d in report.dead_states if not d.is_composite]
        assert len(flat_dead) == 3

    def test_shadowed_composites_detected(self):
        spec = WorkloadSpec(n_live=4, n_shadowed_composites=2,
                            composite_width=2)
        report = find_dead_code(generate_machine(spec))
        composites = [d for d in report.dead_states if d.is_composite]
        assert len(composites) == 2
        assert all(d.nested_state_count == 2 for d in composites)

    def test_clean_spec_produces_clean_machine(self):
        report = find_dead_code(generate_machine(WorkloadSpec(n_live=6)))
        assert report.is_clean

    def test_metrics_scale_with_spec(self):
        small = measure_model(generate_machine(WorkloadSpec(n_live=4)))
        large = measure_model(generate_machine(WorkloadSpec(n_live=12)))
        assert large.total_states > small.total_states
        assert large.transitions > small.transitions

    def test_optimizer_is_behavior_preserving_on_workloads(self):
        for seed in (1, 2, 3):
            machine = generate_machine(WorkloadSpec(
                n_live=4, n_dead=1, n_shadowed_composites=1, seed=seed))
            report = optimize(machine)
            eq = check_equivalence(machine, report.optimized,
                                   exhaustive_depth=1, n_random=10)
            assert eq.equivalent, f"seed {seed}: {eq.summary()}"


class TestFigure1Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_figure1()

    def test_two_rows(self, rows):
        assert len(rows) == 2

    def test_flat_row_shape(self, rows):
        flat = rows[0]
        assert flat.size_after < flat.size_before
        assert flat.dce_kept_dead_code
        assert flat.behavior_preserved

    def test_hierarchical_gain_exceeds_paper_threshold(self, rows):
        assert rows[1].gain_percent > 45.0

    @pytest.mark.parametrize("target", [None, "rt16"])
    def test_dce_column_reads_each_rows_own_compile(self, target):
        # The DCE column asks the comparison's size_before compile, so
        # the figure misses the module cache exactly as often as its two
        # comparisons do on their own.
        engine = ExperimentEngine()
        run_figure1(target=target, engine=engine)
        alone = ExperimentEngine()
        for machine in (flat_machine_with_unreachable_state(),
                        hierarchical_machine_with_shadowed_composite()):
            alone.optimize_and_compare(machine, target=target)
        assert engine.stats.misses == alone.stats.misses
        for gen_cls in ALL_PATTERNS:
            rows = run_figure1(pattern=gen_cls.name, target=target,
                               engine=engine)
            assert all(row.dce_kept_dead_code for row in rows), gen_cls.name


class TestTable1Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.pattern: r for r in run_table1()}

    def test_three_patterns(self, rows):
        assert set(rows) == set(PAPER_TABLE1)

    def test_gain_order(self, rows):
        assert rows["state-table"].gain_percent < \
            rows["nested-switch"].gain_percent

    def test_all_behavior_preserved(self, rows):
        assert all(r.behavior_preserved for r in rows.values())


class TestTable2Harness:
    def test_matrix_matches_paper(self):
        for row in run_table2(with_evidence=False):
            assert row.values == PAPER_TABLE2[row.alternative]


class TestSweeps:
    def test_unreachable_sweep_monotone(self):
        points = unreachable_sweep(dead_counts=(0, 2, 4))
        gains = [p.gain_percent for p in points]
        assert gains == sorted(gains)

    def test_pass_ablation_ends_at_full_pipeline_size(self):
        points = pass_ablation()
        assert points[-1].size_after <= points[0].size_after

    def test_opt_levels_cover_all_four(self):
        labels = {p.label for p in opt_level_sweep()}
        assert labels == {"-O0", "-O1", "-O2", "-Os"}
