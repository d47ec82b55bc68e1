"""A VM grid compiles its target-independent half once.

On the unit-cache path (the fuzz oracle's), every ``CompiledProgram``
of one machine and generator shares one front end (generated C++,
lowered GIMPLE, layout), and each unit's middle end runs once for both
targets.  These tests pin the call counts, byte identity of every cell
against a cold ``compile_unit``, that no cell's compile reaches another
cell's output, and that cells sharing a front end compile one at a
time.
"""

import collections
import gc
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.codegen import generator_by_name
from repro.codegen.base import CodegenError
from repro.compiler import OptLevel, compile_unit, split_units
from repro.compiler.driver import backend_function, optimize_function
from repro.compiler.frontend.lower import lower_unit
from repro.engine.cache import CompileCache
from repro.exec import VMExecutor
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.fuzz import generate_case
from repro.fuzz.generate import DEFAULT_PROFILES
from repro.vm import harness
from repro.vm.harness import CompiledProgram
from repro.vm.image import assemble

PATTERNS = ("nested-switch", "flat-switch", "state-table", "state-pattern")
TARGETS = ("rt32", "rt16")
CELLS = [(level, target) for level in OptLevel for target in TARGETS]

#: Fresh-machine builders: each call returns a new machine object, so
#: each compile order starts with empty memos.
MACHINES = {
    "Fig1Flat": flat_machine_with_unreachable_state,
    "Fig1Hier": hierarchical_machine_with_shadowed_composite,
    **{f"case{seed}": (lambda seed=seed: generate_case(
        seed, DEFAULT_PROFILES[seed % len(DEFAULT_PROFILES)]).machine)
       for seed in range(10)},
}


@pytest.fixture
def calls(monkeypatch):
    """Calls of each compile stage, wherever a ``repro`` module binds it."""
    counts = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for original in (lower_unit, optimize_function, backend_function):
        wrapper = counted(original.__name__, original)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, wrapper)
    generator_cls = type(generator_by_name("nested-switch"))
    monkeypatch.setattr(generator_cls, "generate",
                        counted("generate", generator_cls.generate))
    return counts


def _load_grid(machine, unit_cache):
    for level in (OptLevel.O0, OptLevel.OS):
        for target in TARGETS:
            VMExecutor("nested-switch", level=level, target=target,
                       unit_cache=unit_cache).load(machine)


def test_grid_generates_and_lowers_once(hierarchical_machine, calls):
    """{-O0, -Os} x {rt32, rt16} on one unit cache: one front end, one
    middle end per (unit, level), a backend per cell."""
    _load_grid(hierarchical_machine, CompileCache())
    assert calls == {"generate": 1, "lower_unit": 1,
                     "optimize_function": 9, "backend_function": 36}


def test_without_unit_cache_every_program_generates(hierarchical_machine,
                                                    calls):
    _load_grid(hierarchical_machine, None)
    assert calls["generate"] == 4
    assert calls["lower_unit"] == 4


def _compiled(result, image):
    return (result.module.listing(), bytes(image.text),
            sorted(image.initial_memory.items()), result.pass_stats,
            result.program.dump())


def _cold(machine, pattern, level, target):
    try:
        result = compile_unit(generator_by_name(pattern).generate(machine),
                              level, target=target)
    except CodegenError as exc:
        return repr(exc)
    return _compiled(result, assemble(result.module, target=result.target))


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("name", sorted(MACHINES))
def test_every_cell_equals_a_cold_compile(name, pattern):
    build = MACHINES[name]
    cold = {cell: _cold(build(), pattern, *cell) for cell in CELLS}
    for first in TARGETS:
        machine, cache = build(), CompileCache()
        for level, target in sorted(CELLS, key=lambda c: c[1] != first):
            try:
                program = CompiledProgram(machine, pattern, level=level,
                                          target=target, unit_cache=cache)
            except CodegenError as exc:
                shared = repr(exc)
            else:
                shared = _compiled(program.compile_result, program.image)
            assert shared == cold[(level, target)], \
                f"{first}-first: {level.value}/{target}"


def test_cells_do_not_alias(hierarchical_machine):
    """The front end's program, a finished artifact's function and each
    artifact's statistics survive every other cell's compile."""
    pattern = "state-pattern"
    pristine = lower_unit(generator_by_name(pattern).generate(
        hierarchical_machine)).dump()
    cache = CompileCache()
    for level in OptLevel:
        rt32 = CompiledProgram(hierarchical_machine, pattern, level=level,
                               target="rt32", unit_cache=cache)
        finished = rt32.compile_result.program.dump()
        rt16 = CompiledProgram(hierarchical_machine, pattern, level=level,
                               target="rt16", unit_cache=cache)
        assert rt32.compile_result.program.dump() == finished
        for name, fn in rt32.compile_result.program.functions.items():
            assert rt16.compile_result.program.functions[name] is fn

        front = harness._shared_front_end(hierarchical_machine,
                                          generator_by_name(pattern))
        plans = [split_units(front.program, level, target=target,
                             extra_key=pattern) for target in TARGETS]
        for unit32, unit16 in zip(*(plan.units for plan in plans)):
            artifact32, artifact16 = (
                cache.get_or_compute(unit.fingerprint, pytest.fail)
                for unit in (unit32, unit16))
            assert artifact32.optimized_fn is artifact16.optimized_fn
            assert artifact32.pass_stats is not artifact16.pass_stats
    assert front.program.dump() == pristine


def test_shared_front_end_dies_with_its_machine():
    machine = hierarchical_machine_with_shadowed_composite()
    CompiledProgram(machine, "nested-switch", unit_cache=CompileCache())
    front = harness._shared_front_end(machine,
                                      generator_by_name("nested-switch"))
    refs = weakref.ref(machine), weakref.ref(front.program)
    del machine, front
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_cells_sharing_a_front_end_compile_one_at_a_time(monkeypatch):
    """On CPython 3.11 two threads that first read one object's __dict__
    at once (cloning a shared node, pickling a shared middle end) can
    corrupt memory, so cells on a thread pool must take turns."""
    busy, peak = collections.Counter(), collections.Counter()
    guard = threading.Lock()
    compile_program = harness.compile_program_incremental

    def tracked(program, *args, **kwargs):
        with guard:
            busy[id(program)] += 1
            peak[id(program)] = max(peak[id(program)], busy[id(program)])
        time.sleep(0.01)                 # widen any overlap
        try:
            return compile_program(program, *args, **kwargs)
        finally:
            with guard:
                busy[id(program)] -= 1

    monkeypatch.setattr(harness, "compile_program_incremental", tracked)
    machine, cache = hierarchical_machine_with_shadowed_composite(), \
        CompileCache()
    with ThreadPoolExecutor(max_workers=4) as pool:
        list(pool.map(lambda cell: CompiledProgram(
            machine, "nested-switch", level=cell[0], target=cell[1],
            unit_cache=cache), CELLS))
    assert list(peak.values()) == [1]
