"""Fuzz oracle compiles go through the unit cache — byte-identically.

A fuzz campaign is mutant chains: each case differs from its parent by
one model edit, so the per-unit cache serves most of every compile.
That is only sound if the unit path is byte-exact, which these tests
pin against a whole-program compile of the checked-in corpus fixtures
(real shrunk machines, not synthetic toys).
"""

import pathlib

import pytest

from repro.codegen import generator_by_name
from repro.compiler import OptLevel, compile_unit
from repro.engine import ExperimentEngine
from repro.engine.cache import CompileCache
from repro.exec import VMExecutor, observe
from repro.fuzz import DifferentialOracle, FuzzCase, OracleConfig
from repro.fuzz.corpus import entry_from_json
from repro.vm.harness import CompiledProgram
from repro.vm.image import assemble

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ALL = sorted(FIXTURES.glob("*.json"))


def fixture_case(path) -> FuzzCase:
    return FuzzCase.from_dict(entry_from_json(path.read_text())["case"])


@pytest.mark.parametrize("path", ALL, ids=lambda p: p.stem)
def test_fixture_modules_full_vs_delta_byte_identical(path):
    case = fixture_case(path)
    full = compile_unit(generator_by_name("flat-switch").generate(
        case.machine), OptLevel.OS)
    image = assemble(full.module)
    delta = CompiledProgram(case.machine, "flat-switch",
                            unit_cache=CompileCache())
    assert delta.compile_result.module.listing() == full.module.listing()
    assert bytes(delta.image.text) == bytes(image.text)
    assert sorted(delta.image.initial_memory.items()) == \
        sorted(image.initial_memory.items())


def test_observations_identical_with_and_without_unit_cache():
    case = fixture_case(ALL[0])
    stimuli = tuple(s.events for s in case.stimuli) or \
        ((("e1", 0),),)
    plain = observe(VMExecutor("flat-switch"), case.machine, stimuli)
    cache = CompileCache()
    for _ in range(2):                  # cold, then warm
        executor = VMExecutor("flat-switch", unit_cache=cache)
        assert observe(executor, case.machine, stimuli) == plain
    assert cache.stats.hits > 0, "second compile must reuse units"


def test_oracle_path_uses_engine_unit_tier_by_default(memory_engine):
    case = fixture_case(ALL[0])
    oracle = DifferentialOracle(
        engine=memory_engine,
        config=OracleConfig(patterns=("flat-switch",), targets=("rt32",),
                            levels=("-Os",), check_optimized=False,
                            check_fleet=False))
    oracle.run_case(case)
    assert memory_engine.units.stats.snapshot()["lookups"] > 0, \
        "the oracle's VM cells must compile per unit"


@pytest.mark.fuzz
def test_grid_on_a_partly_warm_engine_equals_a_cold_one():
    """Cells an earlier, narrower grid already ran come from the cache
    beside freshly run ones: the verdicts must not change."""
    config = OracleConfig(patterns=("nested-switch", "flat-switch",
                                    "state-table", "state-pattern"))

    def outcomes(engine, config):
        oracle = DifferentialOracle(engine=engine, config=config)
        return [(result.status, result.divergences, result.executors_run,
                 result.cells_skipped, result.coverage)
                for result in (oracle.run_case(fixture_case(path))
                               for path in ALL)]
    warm = ExperimentEngine()
    outcomes(warm, OracleConfig(patterns=("flat-switch",)))
    hits_before = warm.stats.hits
    assert outcomes(warm, config) == outcomes(ExperimentEngine(), config)
    assert warm.stats.hits > hits_before
