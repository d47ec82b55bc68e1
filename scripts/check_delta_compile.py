#!/usr/bin/env python3
"""Gate the delta-compile contract: edit one transition, pay for one.

For a corpus of generated machines this script

1. compiles each machine cold through the per-unit path (populating a
   unit cache),
2. applies :func:`repro.experiments.workload.mutate_one_transition` —
   one event transition becomes a self-loop, everything else is
   untouched,
3. recompiles the mutant against the warm unit cache, and
4. verifies the delta module is **byte-identical** to a monolithic
   compile of the same mutant,

then asserts the two acceptance floors over the whole corpus:

* **unit reuse >= 90 %** — of all units across all mutant recompiles,
  at least nine in ten come from the cache;
* **delta speedup >= 3x** — total mutant-recompile wall time at least
  three times smaller than total cold-compile wall time.

The corpus uses the ``state-pattern`` generator: one event-handler
method per (state, event) pair, i.e. the pattern whose unit DAG is
fine-grained enough for structure sharing to mean something.  The
coarse patterns (nested-/flat-switch collapse the machine into ~5
functions) are covered by the byte-identity tests in
``tests/compiler/test_units.py``; a one-transition edit there rightly
recompiles the dispatch unit, which *is* most of the module.

Usage::

    python scripts/check_delta_compile.py [--reuse-floor 0.9]
        [--speedup-floor 3.0] [--level -Os] [--target rt32]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codegen import generator_by_name                     # noqa: E402
from repro.compiler import (OptLevel, compile_program,          # noqa: E402
                            compile_program_incremental)
from repro.compiler.frontend.lower import lower_unit            # noqa: E402
from repro.engine.cache import CompileCache                     # noqa: E402
from repro.experiments.workload import (WorkloadSpec,           # noqa: E402
                                        generate_machine,
                                        mutate_one_transition)

PATTERN = "state-pattern"

#: The corpus: three sizes, distinct seeds, one shadowed composite in
#: the largest so hierarchy is represented.
CORPUS = (
    WorkloadSpec(n_live=12, events_per_state=3, seed=11),
    WorkloadSpec(n_live=20, events_per_state=3, seed=3),
    WorkloadSpec(n_live=24, events_per_state=2,
                 n_shadowed_composites=1, seed=29),
)


def lowered(machine):
    return lower_unit(generator_by_name(PATTERN).generate(machine))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="delta-compile reuse + speedup gate")
    parser.add_argument("--reuse-floor", type=float, default=0.9)
    parser.add_argument("--speedup-floor", type=float, default=3.0)
    parser.add_argument("--level", default="-Os",
                        choices=[l.value for l in OptLevel])
    parser.add_argument("--target", default="rt32")
    args = parser.parse_args(argv)
    level = OptLevel(args.level)

    cache = CompileCache()
    reused = total = 0
    cold_seconds = 0.0
    delta_seconds = 0.0
    rows = []

    for spec in CORPUS:
        machine = generate_machine(spec)
        compile_program_incremental(lowered(machine), level,
                                    target=args.target, unit_cache=cache,
                                    extra_key=PATTERN)
        mutant = mutate_one_transition(machine)

        # Unit-cache hits are reused units, misses compiled ones.
        before = cache.stats.snapshot()
        t0 = time.perf_counter()
        delta = compile_program_incremental(
            lowered(mutant), level, target=args.target, unit_cache=cache,
            extra_key=PATTERN)
        delta_seconds += time.perf_counter() - t0
        after = cache.stats.snapshot()
        hits = after["hits"] - before["hits"]
        lookups = after["lookups"] - before["lookups"]
        reused += hits
        total += lookups

        program = lowered(mutant)
        t0 = time.perf_counter()
        mono = compile_program(program, level, target=args.target)
        cold_seconds += time.perf_counter() - t0

        if delta.module.listing() != mono.module.listing():
            sys.exit(f"FAIL {machine.name}: delta module differs from "
                     "monolithic compile of the same mutant")
        rows.append((machine.name, hits, lookups))

    speedup = cold_seconds / delta_seconds if delta_seconds else float("inf")
    for name, hits, lookups in rows:
        print(f"  {name}: reused {hits}/{lookups} units "
              f"({hits / lookups:.0%})")
    reuse_rate = reused / total if total else 0.0
    print(f"corpus: reuse {reused}/{total} "
          f"({reuse_rate:.1%}), cold {1e3 * cold_seconds:.0f} ms, "
          f"delta {1e3 * delta_seconds:.0f} ms -> {speedup:.1f}x; "
          f"all mutant modules byte-identical to monolithic compiles")

    if reuse_rate < args.reuse_floor:
        sys.exit(f"FAIL: unit reuse {reuse_rate:.1%} below the "
                 f"{args.reuse_floor:.0%} floor")
    if speedup < args.speedup_floor:
        sys.exit(f"FAIL: delta speedup {speedup:.1f}x below the "
                 f"{args.speedup_floor}x floor")
    print("OK: delta-compile floors cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
