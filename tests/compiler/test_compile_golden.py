"""Compiled output is pinned by a committed golden fixture.

The unit path (:func:`compile_program_incremental`) and the whole-program
path (:func:`compile_unit`) share their middle and back ends
(``optimize_function``, ``backend_function``), so a test that compares
the two paths cannot see a change in those shared stages.  This test
compares both against output recorded in ``fixtures/compile_golden.json``:
one SHA-256 per (machine, pattern, level, target) over the assembly
listing, the ordered pass statistics, the final GIMPLE dump and the
total size.  Coverage is the paper's Fig. 1 pair x every codegen
pattern x every optimization level x {rt32, rt16}.

Regenerate the fixture only after an intended change to compiled
output, and say why in CHANGES.md::

    PYTHONPATH=src python tests/compiler/test_compile_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.codegen import ALL_PATTERNS
from repro.compiler import (OptLevel, compile_program_incremental,
                            compile_unit, lower_unit)
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "compile_golden.json"
TARGETS = ("rt32", "rt16")


def _digest(result) -> str:
    hasher = hashlib.sha256()
    for part in (result.module.listing(), json.dumps(result.pass_stats),
                 result.program.dump(), str(result.total_size)):
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


def _via_compile_unit(unit, level, target):
    return compile_unit(unit, level, target=target)


def _via_units(unit, level, target):
    return compile_program_incremental(lower_unit(unit), level,
                                       target=target)


def compute_digests(compile_fn=_via_compile_unit):
    """``{"machine|pattern|level|target": digest}`` over the grid."""
    digests = {}
    for machine in (flat_machine_with_unreachable_state(),
                    hierarchical_machine_with_shadowed_composite()):
        for gen_cls in ALL_PATTERNS:
            unit = gen_cls().generate(machine)
            for level in OptLevel:
                for target in TARGETS:
                    key = "|".join((machine.name, gen_cls.name,
                                    level.value, target))
                    digests[key] = _digest(compile_fn(unit, level, target))
    return digests


@pytest.mark.parametrize("compile_fn", [_via_compile_unit, _via_units],
                         ids=["compile_unit", "units"])
def test_output_matches_golden_fixture(compile_fn):
    golden = json.loads(FIXTURE.read_text())
    assert len(golden) == 64
    assert compute_digests(compile_fn) == golden


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
