"""End-to-end pipeline tests (the two-step optimization approach)."""

import pytest

from repro import (build_flat_example, build_hierarchical_example,
                   compile_machine, optimize_and_compare, run_pipeline)
from repro.compiler import OptLevel
from repro.semantics import SemanticsConfig


class TestRunPipeline:
    def test_baseline_vs_two_step(self):
        machine = build_hierarchical_example()
        baseline = run_pipeline(machine, optimize_model=False)
        two_step = run_pipeline(machine, optimize_model=True)
        assert two_step.total_size < baseline.total_size
        assert baseline.model_report is None
        assert two_step.model_report is not None
        assert two_step.model_report.changed

    def test_selection_is_honored(self):
        machine = build_hierarchical_example()
        only_guards = run_pipeline(
            machine, model_optimizations=["simplify-guards"])
        full = run_pipeline(machine)
        assert full.total_size < only_guards.total_size

    def test_non_uml_semantics_blocks_shadowing(self):
        machine = build_hierarchical_example()
        non_uml = run_pipeline(machine, semantics=SemanticsConfig(
            completion_priority=False))
        uml = run_pipeline(machine)
        # Without completion priority, S3 is live and must stay.
        assert non_uml.total_size > uml.total_size
        assert "remove-shadowed-transitions" in \
            non_uml.model_report.skipped_passes

    def test_summary_text(self):
        result = run_pipeline(build_flat_example())
        text = result.summary()
        assert "Fig1Flat" in text and "bytes" in text

    @pytest.mark.parametrize("pattern", ["state-table", "nested-switch",
                                         "state-pattern"])
    @pytest.mark.parametrize("level", [OptLevel.O0, OptLevel.OS])
    def test_every_pattern_level_combination_compiles(self, pattern, level):
        result = run_pipeline(build_flat_example(), pattern=pattern,
                              level=level)
        assert result.total_size > 0


class TestOptimizeAndCompare:
    def test_gain_fields_consistent(self):
        cmp = optimize_and_compare(build_flat_example())
        assert cmp.gain_bytes == cmp.size_before - cmp.size_after
        assert 0 < cmp.gain_percent < 100

    def test_equivalence_checked_by_default(self):
        cmp = optimize_and_compare(build_flat_example())
        assert cmp.equivalence.scenarios_run > 0
        assert cmp.equivalence.equivalent

    def test_check_behavior_false_skips_scenarios(self):
        cmp = optimize_and_compare(build_flat_example(),
                                   check_behavior=False)
        assert cmp.equivalence.scenarios_run == 0

    def test_summary_mentions_sizes(self):
        cmp = optimize_and_compare(build_flat_example())
        assert str(cmp.size_before) in cmp.summary()

    def test_semantics_is_threaded_through(self):
        """Regression: ``optimize_and_compare`` used to drop *semantics*
        and always compare under ``UML_DEFAULT_SEMANTICS``."""
        machine = build_hierarchical_example()
        default = optimize_and_compare(machine, check_behavior=False)
        non_uml = optimize_and_compare(
            machine, check_behavior=False,
            semantics=SemanticsConfig(completion_priority=False))
        # Without completion priority the shadowing passes are skipped,
        # S3 stays live, and the optimized model compiles bigger.
        assert non_uml.size_after > default.size_after
        assert non_uml.size_before == default.size_before
        assert "remove-shadowed-transitions" in \
            non_uml.model_report.skipped_passes

    def test_semantics_reaches_the_equivalence_check(self):
        machine = build_hierarchical_example()
        non_uml = optimize_and_compare(
            machine, semantics=SemanticsConfig(completion_priority=False))
        # Machines must still be equivalent *under the chosen semantics*.
        assert non_uml.equivalence.equivalent


class TestCompileMachine:
    def test_unknown_pattern_raises(self):
        with pytest.raises(KeyError):
            compile_machine(build_flat_example(), pattern="nope")
