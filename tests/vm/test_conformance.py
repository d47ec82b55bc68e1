"""Trace-level conformance: executed code equals the interpreter.

The acceptance grid: every codegen pattern x {-O0, -Os} x {rt32, rt16}
on generator workloads must produce a VM-executed trace observationally
equal to the reference interpreter's on every scenario.
"""

import pytest

from repro.compiler import OptLevel
from repro.engine import ExperimentEngine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.optim import optimize
from repro.vm import check_vm_conformance, conformance_scenarios

PATTERNS = ["nested-switch", "state-table", "state-pattern", "flat-switch"]
LEVELS = [OptLevel.O0, OptLevel.OS]
TARGETS = ["rt32", "rt16"]

WORKLOADS = [
    WorkloadSpec(n_live=4, n_dead=1, events_per_state=2, seed=11,
                 name="ConfFlat"),
    WorkloadSpec(n_live=3, n_shadowed_composites=1, composite_width=2,
                 guarded_fraction=0.4, seed=23, name="ConfHier"),
]


@pytest.fixture(scope="module", params=[s.name for s in WORKLOADS])
def workload(request):
    spec = next(s for s in WORKLOADS if s.name == request.param)
    return generate_machine(spec)


@pytest.fixture(scope="module")
def scenarios_of():
    cache = {}

    def get(machine):
        if machine.name not in cache:
            cache[machine.name] = conformance_scenarios(
                machine, exhaustive_depth=1, n_random=6, random_length=8)
        return cache[machine.name]

    return get


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("pattern", PATTERNS)
def test_conformance_grid_on_workloads(workload, pattern, level, target,
                                       scenarios_of):
    report = check_vm_conformance(workload, pattern=pattern, level=level,
                                  target=target,
                                  scenarios=scenarios_of(workload))
    assert report.conformant, report.summary()
    assert report.scenarios_run == len(scenarios_of(workload))
    assert report.events_dispatched > 0
    assert report.cycles_per_event > 0


def test_paper_models_conform_at_full_depth():
    for machine in (flat_machine_with_unreachable_state(),
                    hierarchical_machine_with_shadowed_composite()):
        report = check_vm_conformance(machine)
        assert report.conformant, report.summary()


def test_optimized_model_still_conforms():
    """Model optimization + compilation + execution, end to end: the
    paper's two-step pipeline preserves behavior down to the metal."""
    machine = hierarchical_machine_with_shadowed_composite()
    optimized = optimize(machine).optimized
    scenarios = conformance_scenarios(machine, exhaustive_depth=2,
                                      n_random=4)
    report = check_vm_conformance(optimized, pattern="nested-switch",
                                  scenarios=scenarios)
    assert report.conformant, report.summary()


def test_default_level_is_the_paper_measurement_level():
    machine = flat_machine_with_unreachable_state()
    report = check_vm_conformance(machine, pattern="state-table",
                                  target="rt16")
    assert report.conformant
    assert report.level is OptLevel.OS
    assert report.target_name == "rt16"
    assert "conformant" in report.summary()


def test_mismatch_is_reported_not_raised():
    """A machine the pattern cannot express reports a failure."""
    from repro.uml import StateMachineBuilder
    b = StateMachineBuilder("Choice")
    b.attribute("x", 1)
    b.state("A")
    b.choice("c")
    b.state("B")
    b.initial_to("A")
    b.transition("A", "c", on="go")
    b.transition("c", "B", guard="x > 0")
    b.transition("c", "A")
    machine = b.build()
    report = check_vm_conformance(machine, pattern="nested-switch",
                                  scenarios=[("go",)])
    assert not report.conformant
    assert "compile/assemble failed" in report.mismatches[0][1]


def test_engine_caches_conformance_runs():
    machine = flat_machine_with_unreachable_state()
    engine = ExperimentEngine()
    first = engine.vm_conformance(machine, n_random=2)
    misses = engine.stats.misses
    again = engine.vm_conformance(machine, n_random=2)
    assert again is first
    assert engine.stats.misses == misses
    assert engine.stats.hits >= 1
    # Different scenario parameters are a different cache entry.
    other = engine.vm_conformance(machine, n_random=3)
    assert other is not first


def test_vm_conformance_scenario_machine_replays_original_workload():
    """Before/after dynamics cells must measure the SAME event
    sequences: the optimized clone replays the original's scenarios."""
    machine = hierarchical_machine_with_shadowed_composite()
    optimized = optimize(machine).optimized
    engine = ExperimentEngine()
    own = engine.vm_conformance(optimized)
    cross = engine.vm_conformance(optimized, scenario_machine=machine)
    assert cross is not own          # different cache entries
    assert cross.conformant, cross.summary()
    # The original's 6-event alphabet yields far more scenarios than the
    # optimized machine's own reduced alphabet...
    assert cross.scenarios_run > own.scenarios_run
    # ...and exactly as many dispatched events as the 'before' cell, so
    # cycles/event denominators are comparable.
    before = engine.vm_conformance(machine)
    assert cross.events_dispatched == before.events_dispatched
    assert cross.scenarios_run == before.scenarios_run


def test_dynamics_rows_cover_grid_and_conform():
    from repro.experiments.dynamics import run_dynamics
    rows = run_dynamics(machine=flat_machine_with_unreachable_state())
    assert len(rows) == 4 * 2   # every pattern x {O0, Os}
    for row in rows:
        assert row.conformant_before and row.conformant_after, row
        assert row.cycles_per_event_before > 0
        # model optimization removes the unreachable state: code shrinks
        assert row.text_after <= row.text_before
