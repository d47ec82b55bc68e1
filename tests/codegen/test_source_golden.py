"""Every generated translation unit is pinned by a committed golden fixture.

The shape tests in ``test_generated_cpp_golden.py`` check features of
the printed C++; they do not notice a change elsewhere in a unit.  This
test pins whole units: one SHA-256 per (machine, pattern) over
``repr(unit)`` and ``print_unit(unit)``, so a refactor of the generators
that claims identical output is checked node by node.  A pair whose
pattern declines the machine is pinned by its ``CodegenError`` text.

Machines: the Fig. 1 pair, the hand-optimized pair and
``generate_case(seed, DEFAULT_PROFILES[i % 6])`` for the i-th seed of
1000-1059, each x every codegen pattern: 256 entries.

Regenerate the fixture only after an intended change to generated code,
and say why in CHANGES.md::

    PYTHONPATH=src python tests/codegen/test_source_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.codegen import ALL_PATTERNS, CodegenError
from repro.cpp import print_unit
from repro.experiments.models import (
    flat_machine_optimized_by_hand, flat_machine_with_unreachable_state,
    hierarchical_machine_optimized_by_hand,
    hierarchical_machine_with_shadowed_composite)
from repro.fuzz.generate import DEFAULT_PROFILES, generate_case

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "source_golden.json"
GENERATED_SEEDS = range(1000, 1060)


def _machines():
    paper = [flat_machine_with_unreachable_state(),
             flat_machine_optimized_by_hand(),
             hierarchical_machine_with_shadowed_composite(),
             hierarchical_machine_optimized_by_hand()]
    return paper + [
        generate_case(seed, DEFAULT_PROFILES[i % len(DEFAULT_PROFILES)]
                      ).machine
        for i, seed in enumerate(GENERATED_SEEDS)]


def compute_digests():
    """``{"machine|pattern": digest or "declined: <message>"}``."""
    entries = {}
    for machine in _machines():
        for generator in ALL_PATTERNS:
            key = f"{machine.name}|{generator.name}"
            try:
                unit = generator().generate(machine)
            except CodegenError as exc:
                entries[key] = f"declined: {exc}"
                continue
            entries[key] = hashlib.sha256(
                (repr(unit) + "\0" + print_unit(unit)).encode()).hexdigest()
    return entries


def test_generated_units_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text())
    assert len(golden) == 4 * (4 + len(GENERATED_SEEDS))
    assert compute_digests() == golden


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_digests(), indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
