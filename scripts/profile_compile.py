#!/usr/bin/env python3
"""Break a cold compile down by pipeline stage.

Runs the real pipeline (``repro.pipeline.compile_machine``: generate,
lower, then the unit-by-unit compile with no unit cache, plus assembly)
under a private 100 %-sampled :mod:`repro.obs` tracer and aggregates
the compiler's own stage/pass spans — frontend (generate, lower),
middle end (inline, each SSA pass, SSA construction/destruction),
backend (isel, fuse, regalloc, peephole, prologue) and assembly — into
a table of milliseconds and shares.  Splitting the program into units
and relinking them are not stages of the table.
There is no second timing system here: the numbers are exactly the
spans every traced run exports, so this is the measurement behind the
delta-compile design (the middle end and backend dominate a cold
compile, which is the work the per-unit cache
(:mod:`repro.compiler.units`) skips for unchanged units).

Usage::

    python scripts/profile_compile.py [--pattern state-pattern]
        [--level -Os] [--target rt32] [--n-live 20]
        [--events-per-state 3] [--seed 3] [--repeat 3]
        [--trace-out TRACE.json]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.compiler import OptLevel                             # noqa: E402
from repro.compiler.target import resolve_target                # noqa: E402
from repro.experiments.workload import (WorkloadSpec,           # noqa: E402
                                        generate_machine)
from repro.obs.export import write_chrome_trace                 # noqa: E402
from repro.obs.trace import Tracer, set_tracer, span            # noqa: E402
from repro.pipeline import compile_machine                      # noqa: E402
from repro.vm.image import assemble                             # noqa: E402

#: Table rows in pipeline order (stage -> which phase it belongs to).
STAGE_PHASES = [
    ("generate", "frontend"), ("lower", "frontend"),
    ("inline", "middle"), ("ssa-build", "middle"),
    ("ccp", "middle"), ("cse", "middle"), ("copyprop", "middle"),
    ("dce", "middle"), ("cfg", "middle"), ("ssa-out", "middle"),
    ("isel", "backend"), ("fuse", "backend"), ("regalloc", "backend"),
    ("peephole", "backend"), ("prologue", "backend"),
    ("assemble", "assemble"),
]

#: Span name -> table stage.  The compiler emits ``stage.<name>`` for
#: structural stages and ``pass.<name>`` per SSA pass.
SPAN_STAGES = {
    **{f"stage.{name}": name for name, _ in STAGE_PHASES},
    **{f"pass.{name}": name for name, phase in STAGE_PHASES
       if phase == "middle"},
}


def profile_once(machine, pattern: str, level: OptLevel, target) -> list:
    """One traced cold compile; returns the finished span dicts."""
    tracer = Tracer(sample_ratio=1.0, max_spans=1_000_000,
                    process="profile")
    previous = set_tracer(tracer)
    try:
        with span("profile.compile") as root:
            root.set(machine=machine.name, pattern=pattern,
                     level=level.value, target=target.name)
            result = compile_machine(machine, pattern=pattern,
                                     level=level, target=target)
            assemble(result.module)
        return tracer.drain()
    finally:
        set_tracer(previous)


def aggregate(spans) -> dict:
    """Sum span durations into the stage table (seconds)."""
    seconds = {name: 0.0 for name, _ in STAGE_PHASES}
    for rendered in spans:
        stage = SPAN_STAGES.get(rendered.get("name", ""))
        if stage is not None:
            seconds[stage] += rendered.get("dur", 0.0)
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="per-stage cold-compile timing table (from obs "
                    "spans)",
        epilog="example: python scripts/profile_compile.py "
               "--repeat 5 --trace-out compile-trace.json  "
               "# table on stdout + a Perfetto-loadable trace of the "
               "last run")
    parser.add_argument("--pattern", default="state-pattern")
    parser.add_argument("--level", default="-Os",
                        choices=[l.value for l in OptLevel])
    parser.add_argument("--target", default=None)
    parser.add_argument("--n-live", type=int, default=20)
    parser.add_argument("--events-per-state", type=int, default=3)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--trace-out", default=None,
                        metavar="TRACE.json",
                        help="also write the last run's spans as "
                             "Chrome trace JSON")
    args = parser.parse_args(argv)

    level = OptLevel(args.level)
    target = resolve_target(args.target)
    machine = generate_machine(WorkloadSpec(
        n_live=args.n_live, events_per_state=args.events_per_state,
        seed=args.seed))

    totals = {name: 0.0 for name, _ in STAGE_PHASES}
    last_spans = []
    for _ in range(max(1, args.repeat)):
        last_spans = profile_once(machine, args.pattern, level, target)
        for stage, secs in aggregate(last_spans).items():
            totals[stage] += secs
    for stage in totals:
        totals[stage] /= max(1, args.repeat)
    grand = sum(totals.values()) or 1e-12

    print(f"cold compile profile: {machine.name} "
          f"[{args.pattern}, {level.value}, {target.name}], "
          f"mean of {max(1, args.repeat)} run(s)")
    print(f"{'stage':<12} {'phase':<10} {'ms':>9} {'share':>7}")
    print("-" * 41)
    phase_totals = {}
    for stage, phase in STAGE_PHASES:
        secs = totals[stage]
        phase_totals[phase] = phase_totals.get(phase, 0.0) + secs
        print(f"{stage:<12} {phase:<10} {1e3 * secs:>9.2f} "
              f"{secs / grand:>6.1%}")
    print("-" * 41)
    for phase, secs in phase_totals.items():
        print(f"{phase:<23} {1e3 * secs:>9.2f} {secs / grand:>6.1%}")
    print(f"{'total':<23} {1e3 * grand:>9.2f} {'100.0%':>7}")
    if args.trace_out:
        count = write_chrome_trace(
            args.trace_out, last_spans,
            metadata={"mode": "profile", "machine": machine.name,
                      "pattern": args.pattern, "level": level.value})
        print(f"wrote {count} span(s) to {args.trace_out}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
