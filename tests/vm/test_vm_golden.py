"""Every simulated number is pinned by a committed golden fixture.

The conformance tests check that compiled code *behaves* like the model;
they do not notice a change in what the simulator *counts*.  This test
pins both: one SHA-256 per (machine, pattern, level, target) cell over
what :func:`repro.exec.observe` reports for the cell's conformance
scenarios — each observation's payloads, final and terminated flags,
record kinds and error, plus every :class:`~repro.vm.VmMetrics` field —
and over the assembled image text.  A cell whose pattern rejects the
machine is pinned by its ``unsupported:`` observations.

Cells: the paper's Fig. 1 pair x every codegen pattern x every
optimization level x {rt32, rt16}, plus one generated machine per fuzz
profile (``generate_case(seed, DEFAULT_PROFILES[i % 6])`` for the i-th
seed of 1000-1005) x every pattern x {-O0, -Os} x {rt32, rt16}: 160
cells.  The cells share one :class:`~repro.engine.cache.CompileCache`,
so each machine's front end is generated and lowered once.

Regenerate the fixture only after an intended change to compiled code
or to the simulator's cost model, and say why in CHANGES.md::

    PYTHONPATH=src python tests/vm/test_vm_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

from repro.codegen.base import CodegenError
from repro.compiler import OptLevel
from repro.engine.cache import CompileCache
from repro.exec import VMExecutor, observe
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.fuzz.generate import DEFAULT_PROFILES, generate_case
from repro.vm import conformance_scenarios

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "vm_golden.json"
PATTERNS = ("nested-switch", "flat-switch", "state-table", "state-pattern")
TARGETS = ("rt32", "rt16")
GENERATED_SEEDS = range(1000, 1006)


def _grid():
    """``(machine, levels)`` for every machine of the grid."""
    paper = (flat_machine_with_unreachable_state(),
             hierarchical_machine_with_shadowed_composite())
    generated = [generate_case(seed, DEFAULT_PROFILES[i % len(
        DEFAULT_PROFILES)]).machine
        for i, seed in enumerate(GENERATED_SEEDS)]
    return ([(m, tuple(OptLevel)) for m in paper]
            + [(m, (OptLevel.O0, OptLevel.OS)) for m in generated])


def _digest(executor: VMExecutor, machine, scenarios) -> str:
    hasher = hashlib.sha256()
    for obs in observe(executor, machine, scenarios):
        metrics = None if obs.extra is None else \
            dataclasses.astuple(obs.extra)
        hasher.update(repr((obs.payloads, obs.final, obs.terminated,
                            obs.kinds, obs.error, metrics)).encode())
        hasher.update(b"\x00")
    try:
        hasher.update(executor.program_for(machine).image.text)
    except CodegenError:
        pass   # rejected shape: the unsupported observations pin it
    return hasher.hexdigest()


def compute_digests():
    """``{"machine|pattern|level|target": digest}`` over the grid."""
    cache = CompileCache()
    digests = {}
    for machine, levels in _grid():
        scenarios = conformance_scenarios(machine)
        for pattern in PATTERNS:
            for level in levels:
                for target in TARGETS:
                    executor = VMExecutor(pattern, level, target,
                                          unit_cache=cache)
                    key = "|".join((machine.name, pattern, level.value,
                                    target))
                    digests[key] = _digest(executor, machine, scenarios)
    return digests


def test_simulated_numbers_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert len(golden) == 160
    assert compute_digests() == golden


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
