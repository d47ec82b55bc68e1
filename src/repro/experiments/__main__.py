"""Run every experiment harness: ``python -m repro.experiments``.

``--target`` selects the backend ISA (any name in the target registry;
see ``repro.compiler.target``).  Unknown names exit with status 2 and
the list of registered targets on stderr.

One engine (and so one compile cache) is shared by every harness, so
work repeated across tables — baseline compiles, the shared model
optimization — is computed once.  ``--cache-stats`` prints the engine's
hit/miss statistics to stderr after the run.

``--cache-dir DIR`` makes the cache persistent: artifacts live in a
:mod:`repro.store` directory (tiered memory-over-disk backend), so a
second run of the suite — in a new process, a CI job, another machine
sharing the directory — is served from disk instead of recompiling.
Output is byte-identical between cold and warm runs;
``scripts/check_warm_cache.py`` asserts exactly that plus a >=90 %
disk-hit rate.

``--trace-out TRACE.json`` samples every compile and writes the run's
spans (engine, cache, per-stage compiler timings) as Chrome trace
JSON — load it in Perfetto or ``python -m repro.obs view``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..compiler.target import (UnknownTargetError, available_targets,
                               get_target)
from ..engine import ExperimentEngine
from . import dynamics, figure1, sweeps, table1, table2, tuning


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables/figures and the "
                    "reproduction's extra sweeps.")
    parser.add_argument(
        "--target", default="rt32", metavar="NAME",
        help="backend ISA to compile for (registered targets: "
             f"{', '.join(available_targets())}; default: %(default)s)")
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="print the shared engine's cache statistics to stderr")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist compiled artifacts in a repro.store directory "
             "(tiered memory-over-disk cache); warm reruns are served "
             "from disk")
    parser.add_argument(
        "--throughput", action="store_true",
        help="append the fleet throughput table (wall-clock, "
             "non-deterministic; never part of the default output, "
             "which CI diffs byte-for-byte across runs)")
    parser.add_argument(
        "--tune", action="store_true",
        help="append the autotuner table (pattern x level x model-pass "
             "lattice measured on the simulator; deterministic but "
             "opt-in — it searches ~100 cells instead of 8)")
    parser.add_argument(
        "--trace-out", default=None, metavar="TRACE.json",
        help="sample every compile and write the run's spans as "
             "Chrome trace JSON (Perfetto / python -m repro.obs view)")
    args = parser.parse_args(argv)
    try:
        target = get_target(args.target)
    except UnknownTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace_out:
        from ..obs.trace import configure
        configure(sample_ratio=1.0, process="experiments")

    engine = ExperimentEngine(cache_dir=args.cache_dir)
    try:
        for title, module in (("FIGURE 1", figure1), ("TABLE 1", table1),
                              ("TABLE 2", table2), ("SWEEPS", sweeps),
                              ("DYNAMICS", dynamics)):
            print("#" * 72)
            print(f"# {title}  (target: {target.name})")
            print("#" * 72)
            print(module.main(target=target, engine=engine))
            print()
        if args.tune:
            print("#" * 72)
            print(f"# AUTOTUNER  (target: {target.name})")
            print("#" * 72)
            print(tuning.main(target=target, engine=engine))
            print()
        if args.throughput:
            print("#" * 72)
            print(f"# FLEET THROUGHPUT  (target: {target.name})")
            print("#" * 72)
            print(dynamics.throughput_main())
            print()
    finally:
        if args.trace_out:
            from ..obs.export import write_chrome_trace
            from ..obs.trace import get_tracer
            count = write_chrome_trace(
                args.trace_out, get_tracer().drain(),
                metadata={"mode": "experiments", "target": target.name})
            print(f"wrote {count} span(s) to {args.trace_out}",
                  file=sys.stderr)
    if args.cache_stats:
        print(engine.describe(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
