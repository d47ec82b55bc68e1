#!/usr/bin/env python3
"""Digest a wide grid of compiles, to pin compiled output across commits.

Compiles the Fig. 1 pair plus ``generate_case(seed,
DEFAULT_PROFILES[i % 6])`` for the i-th seed of 1000-1059, x 4 code
generation patterns x 4 optimization levels x {rt32, rt16}: 1904
compiles (10 machine/pattern pairs raise ``CodegenError`` and are
skipped).  Each compile is digested over its listing,
``json.dumps(pass_stats)`` (key order matters), ``total_size``, the
final GIMPLE dump and the assembled image text, once through the
whole-program compile (``compile_unit``) and once through the unit path
(``compile_program_incremental``).  Prints one line::

    1904 <whole-program digest> <unit-path digest>

The two digests agree when both paths compile alike.  A change that
claims identical output must print the parent commit's line; the line
must not depend on ``PYTHONHASHSEED`` either.  The script imports
``repro`` from the environment, so it digests whichever tree is on the
path::

    PYTHONPATH=src python scripts/digest_compiles.py
    (cd ../parent && PYTHONPATH=src python "$OLDPWD/scripts/digest_compiles.py")

Takes about 90 s on a 2-core Xeon.
"""

from __future__ import annotations

import hashlib
import json

from repro.codegen import ALL_PATTERNS, CodegenError
from repro.compiler import (OptLevel, compile_program_incremental,
                            compile_unit, lower_unit)
from repro.experiments.models import (
    flat_machine_with_unreachable_state as flat,
    hierarchical_machine_with_shadowed_composite as hier)
from repro.fuzz.generate import DEFAULT_PROFILES, generate_case
from repro.vm.image import assemble


def digest(result) -> str:
    """One compile's digest: listing, pass stats, size, GIMPLE, image."""
    parts = (result.module.listing(), json.dumps(result.pass_stats),
             str(result.total_size), result.program.dump())
    return hashlib.sha256("\0".join(parts).encode()
                          + assemble(result.module).text).hexdigest()


def main() -> None:
    machines = [flat(), hier()] + [
        generate_case(seed, DEFAULT_PROFILES[i % 6]).machine
        for i, seed in enumerate(range(1000, 1060))]
    whole, units, count = hashlib.sha256(), hashlib.sha256(), 0
    for machine in machines:
        for generator in ALL_PATTERNS:
            try:
                unit = generator().generate(machine)
            except CodegenError:
                continue
            for level in OptLevel:
                for target in ("rt32", "rt16"):
                    whole.update(digest(compile_unit(
                        unit, level, target=target)).encode())
                    units.update(digest(compile_program_incremental(
                        lower_unit(unit), level, target=target)).encode())
                    count += 1
    print(count, whole.hexdigest(), units.hexdigest())


if __name__ == "__main__":
    main()
