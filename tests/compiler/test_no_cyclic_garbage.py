"""Generating and compiling a machine leave no cyclic garbage.

Every object code generation or a compile allocates must die by
reference counting: a reference cycle (say, a self-recursive nested
function, whose closure cell refers to itself) keeps its frame and
everything the frame holds, the unit being generated or the function
being compiled included, alive until the cyclic collector runs, and the
collector's passes are then paid by every later allocation.
"""

from __future__ import annotations

import gc

from repro.codegen import ALL_PATTERNS
from repro.compiler import OptLevel, compile_program_incremental, lower_unit
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)


def test_fig1_compile_grid_leaves_no_cyclic_garbage():
    machines = (flat_machine_with_unreachable_state(),
                hierarchical_machine_with_shadowed_composite())

    def grid():
        for machine in machines:
            for generator in ALL_PATTERNS:
                unit = generator().generate(machine)
                for level in OptLevel:
                    for target in ("rt32", "rt16"):
                        compile_program_incremental(lower_unit(unit), level,
                                                    target=target)

    grid()  # warm-up: first-use caches and imports
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        grid()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
