"""Every machine compile runs the unit pipeline.

The whole-program ``compile_program`` (and ``compile_unit`` over it) is
the reference the unit path is pinned against and the API for a
hand-written translation unit; no machine compile of the pipeline, the
engine or the VM harness reaches it, with or without a unit cache.
"""

import sys

import pytest

from repro.compiler import driver
from repro.engine import CompileCache, ExperimentEngine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.pipeline import compile_machine
from repro.vm import check_vm_conformance
from repro.vm.harness import CompiledProgram

PATTERNS = ("nested-switch", "flat-switch", "state-table", "state-pattern")


@pytest.fixture
def no_whole_program_compile(monkeypatch):
    """``compile_program`` raises, wherever a ``repro`` module binds it."""
    original = driver.compile_program

    def refuse(*args, **kwargs):
        raise AssertionError("whole-program compile_program was called")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and \
                getattr(module, "compile_program", None) is original:
            monkeypatch.setattr(module, "compile_program", refuse)


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("build", [
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite,
], ids=["Fig1Flat", "Fig1Hier"])
def test_machine_compiles_never_take_the_whole_program_path(
        no_whole_program_compile, build, pattern):
    machine = build()
    sizes = {
        compile_machine(machine, pattern).total_size,
        ExperimentEngine().compile_machine(machine, pattern).total_size,
        CompiledProgram(machine, pattern).compile_result.total_size,
        CompiledProgram(machine, pattern, unit_cache=CompileCache())
        .compile_result.total_size,
    }
    assert len(sizes) == 1
    report = check_vm_conformance(machine, pattern=pattern)
    assert report.conformant, report.summary()
