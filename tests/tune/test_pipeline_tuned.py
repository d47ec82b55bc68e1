"""Tuned compilation through the pipeline and engine surfaces."""

import pytest

from repro.codegen import generator_by_name
from repro.compiler import OptLevel, compile_unit
from repro.engine import ExperimentEngine
from repro.experiments.models import (
    hierarchical_machine_with_shadowed_composite)
from repro.pipeline import optimize_and_compare, tuned_compile

FAST = dict(patterns=["state-table", "flat-switch"],
            levels=(OptLevel.O0, OptLevel.OS))


@pytest.fixture(scope="module")
def machine():
    return hierarchical_machine_with_shadowed_composite()


@pytest.fixture(scope="module")
def engine(machine):
    eng = ExperimentEngine()
    eng.tune(machine, **FAST)           # warm the measurements once
    return eng


class TestTunedCompile:
    def test_compiles_with_the_winning_config(self, machine, engine):
        tuned = tuned_compile(machine, engine=engine, **FAST)
        winner = tuned.record.require_winner()
        assert tuned.result.pattern == winner.pattern
        assert tuned.result.opt_level.value == winner.level

    def test_module_matches_direct_compile(self, machine, engine):
        tuned = tuned_compile(machine, engine=engine, **FAST)
        winner = tuned.winner
        from repro.optim import optimize
        optimized = optimize(machine,
                             selection=list(winner.passes)).optimized
        direct = compile_unit(
            generator_by_name(winner.pattern).generate(optimized),
            OptLevel(winner.level))
        assert tuned.total_size == direct.total_size

    def test_tuned_size_never_worse_than_measured_text(self, machine,
                                                       engine):
        tuned = tuned_compile(machine, engine=engine, **FAST)
        # The record's text_bytes is the VM image's encoded text; the
        # compiled module reports the same encoded size.
        assert tuned.result.compile_result.module.text_size == \
            tuned.winner.text_bytes

    def test_summary_mentions_winner_and_size(self, machine, engine):
        tuned = tuned_compile(machine, engine=engine, **FAST)
        assert tuned.winner.pattern in tuned.summary()
        assert str(tuned.total_size) in tuned.summary()


class TestTunedCompare:
    def test_tuned_flag_overrides_manual_choice(self, machine, engine):
        record = engine.tune(machine)    # default lattice
        result = optimize_and_compare(machine, pattern="nested-switch",
                                      level=OptLevel.O0, engine=engine,
                                      tuned=True)
        assert result.pattern == record.winner.pattern

    def test_tuned_compare_is_behavior_checked(self, machine, engine):
        result = optimize_and_compare(machine, engine=engine, tuned=True)
        assert result.equivalence.equivalent
