"""Component-level throughput benchmarks.

Not a paper table — these measure the substrates themselves so
performance regressions in the reproduction are visible: interpreter
run-to-completion rate, model optimizer, each generator, and MGCC's
middle end + backend.
"""

import pytest

from repro.codegen import (NestedSwitchGenerator, StatePatternGenerator,
                           StateTableGenerator)
from repro.compiler import OptLevel, compile_unit
from repro.exec import InterpreterExecutor, run_scenario
from repro.experiments.models import \
    hierarchical_machine_with_shadowed_composite
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.optim import optimize


@pytest.fixture(scope="module")
def big_machine():
    return generate_machine(WorkloadSpec(n_live=16, n_dead=4,
                                         n_shadowed_composites=1))


def test_bench_interpreter(benchmark, big_machine):
    events = [f"ev{i % 20 + 1}" for i in range(100)]
    executor = InterpreterExecutor()
    benchmark(lambda: run_scenario(executor, big_machine, events))


def test_bench_model_optimizer(benchmark, big_machine):
    benchmark(lambda: optimize(big_machine))


@pytest.mark.parametrize("gen_cls", [StateTableGenerator,
                                     NestedSwitchGenerator,
                                     StatePatternGenerator],
                         ids=lambda g: g.name)
def test_bench_generator(benchmark, big_machine, gen_cls):
    benchmark(lambda: gen_cls().generate(big_machine))


@pytest.mark.parametrize("level", [OptLevel.O0, OptLevel.OS],
                         ids=lambda l: l.value)
def test_bench_compiler(benchmark, big_machine, level):
    unit = NestedSwitchGenerator().generate(big_machine)
    benchmark(lambda: compile_unit(unit, level))
