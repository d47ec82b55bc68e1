"""CLI: ``python -m repro.tune search | show | apply``.

* **search** — run the autotuner for one machine and print the winner
  plus the measured Pareto frontier (``--json``: the canonical
  :class:`~repro.tune.record.TuningRecord` rendering, byte-identical
  on warm reruns).  With ``--cache-dir`` the record and every
  measurement persist in the artifact store.
* **show** — print a previously persisted record *without* searching
  (exit 1 if the store has no record for the question asked).
* **apply** — compile the machine with the winning configuration and
  report the resulting module size (searches first if no record is
  cached; instant when warm).

Machines are named: ``hierarchical`` (the paper's Fig. 1 hierarchical
machine, the default), ``flat`` (Fig. 1 flat), or ``workload:<seed>``
(a generated workload machine).  All measurements are simulated and
deterministic; ``--stats-out FILE`` additionally writes the engine's
cache counters as JSON, which is how ``scripts/check_tune.py`` asserts
a warm rerun recomputes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..compiler import OptLevel
from ..compiler.target import UnknownTargetError, get_target
from ..engine import ExperimentEngine
from ..engine.fingerprint import tune_fingerprint
from ..uml.statemachine import StateMachine
from .record import EventProfile, ObjectiveWeights, TuningError
from .search import DEFAULT_LEVELS

__all__ = ["main"]


def named_machine(name: str) -> StateMachine:
    from ..experiments.models import (
        flat_machine_with_unreachable_state,
        hierarchical_machine_with_shadowed_composite)
    if name == "hierarchical":
        return hierarchical_machine_with_shadowed_composite()
    if name == "flat":
        return flat_machine_with_unreachable_state()
    if name.startswith("workload:"):
        from ..experiments.workload import generate_machine, mixed_workload
        seed = int(name.split(":", 1)[1])
        return generate_machine(mixed_workload(seed, f"TuneWorkload{seed}"))
    raise SystemExit(f"error: unknown machine {name!r} (use "
                     f"'hierarchical', 'flat', or 'workload:<seed>')")


def parse_levels(spec: Optional[str]) -> Optional[List[OptLevel]]:
    if spec is None:
        return None
    by_value = {lv.value: lv for lv in OptLevel}
    levels = []
    for item in spec.split(","):
        item = item.strip()
        if item not in by_value:
            raise SystemExit(f"error: unknown level {item!r} "
                             f"(choose from {sorted(by_value)})")
        levels.append(by_value[item])
    return levels


def render_record(record, verbose: bool) -> str:
    """Human rendering: winner line + the Pareto frontier (every
    measured cell with ``--verbose``)."""
    from ..experiments.report import render_table
    frontier = record.frontier()
    shown = record.cells if verbose else \
        [c for c in record.cells if c in frontier]
    rows = [["*" if c == record.winner else
             ("f" if c in frontier else ""),
             c.pattern, c.level, "+".join(c.passes) or "(none)",
             "yes" if c.conformant else "NO",
             f"{c.cycles_per_event:.1f}", c.text_bytes,
             c.peak_dispatch_cycles, f"{c.score:.1f}"]
            for c in shown]
    title = (f"Autotuner {'cells' if verbose else 'Pareto frontier'} - "
             f"{record.machine_name} on {record.target} "
             f"(* = winner, f = frontier)")
    table = render_table(title, ["", "pattern", "level", "model passes",
                                 "conformant", "cyc/ev", "text B", "peak",
                                 "score"], rows)
    prior = "+".join(record.prior) or "(none)"
    return (f"{table}\n"
            f"static prior (suggest_optimizations): {prior}\n"
            f"{record.summary()}")


def make_engine(args: argparse.Namespace) -> ExperimentEngine:
    return ExperimentEngine(cache_dir=args.cache_dir)


def tune_args(args: argparse.Namespace) -> dict:
    return dict(target=args.target,
                objective=ObjectiveWeights(cycles=args.w_cycles,
                                           text=args.w_text,
                                           peak=args.w_peak),
                profile=EventProfile(seed=args.profile_seed),
                levels=parse_levels(args.levels))


def finish(engine: ExperimentEngine, args: argparse.Namespace) -> None:
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump({"module": engine.stats.snapshot(),
                       "unit": engine.unit_stats.snapshot()}, fh,
                      indent=2)
    if args.cache_stats:
        print(engine.describe(), file=sys.stderr)


def cmd_search(args: argparse.Namespace) -> int:
    machine = named_machine(args.machine)
    engine = make_engine(args)
    record = engine.tune(machine, **tune_args(args))
    if args.json:
        print(record.to_json())
    else:
        print(render_record(record, args.verbose))
    finish(engine, args)
    return 0 if record.winner is not None else 1


def cmd_show(args: argparse.Namespace) -> int:
    machine = named_machine(args.machine)
    engine = make_engine(args)
    params = tune_args(args)
    levels = params["levels"] or list(DEFAULT_LEVELS)
    from ..codegen import ALL_PATTERNS
    patterns = [gen_cls.name for gen_cls in ALL_PATTERNS]
    key = tune_fingerprint(machine, params["target"],
                           params["objective"].key(),
                           params["profile"].key(), patterns, levels)
    backend = getattr(engine.cache, "backend", None)
    try:
        record, _origin = backend.load(key)
    except (KeyError, AttributeError):
        print(f"no tuning record for machine {args.machine!r} on "
              f"{params['target']} under this objective/profile — run "
              f"'python -m repro.tune search' first (same --cache-dir)",
              file=sys.stderr)
        return 1
    print(record.to_json() if args.json
          else render_record(record, args.verbose))
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    from ..pipeline import tuned_compile
    machine = named_machine(args.machine)
    engine = make_engine(args)
    params = tune_args(args)
    try:
        tuned = tuned_compile(machine, engine=engine, **params)
    except TuningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"winner": tuned.winner.to_dict(),
                          "total_size": tuned.total_size,
                          "machine": tuned.record.machine_name,
                          "target": tuned.record.target},
                         sort_keys=True, indent=2))
    else:
        print(tuned.summary())
    finish(engine, args)
    return 0


def add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--machine", default="hierarchical",
                     help="hierarchical | flat | workload:<seed> "
                          "(default: %(default)s)")
    sub.add_argument("--target", default="rt32", metavar="NAME")
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persist measurements and the tuning record "
                          "in a repro.store directory")
    sub.add_argument("--levels", default=None, metavar="-O0,-Os",
                     help="comma-separated opt levels to sweep "
                          "(default: the full ladder)")
    sub.add_argument("--w-cycles", type=float, default=1.0,
                     help="objective weight: cycles/event")
    sub.add_argument("--w-text", type=float, default=0.25,
                     help="objective weight: encoded text bytes")
    sub.add_argument("--w-peak", type=float, default=0.0,
                     help="objective weight: peak dispatch cycles")
    sub.add_argument("--profile-seed", type=int, default=0xFACE,
                     help="event-profile scenario seed")
    sub.add_argument("--json", action="store_true",
                     help="canonical machine-readable output")
    sub.add_argument("--verbose", action="store_true",
                     help="print every measured cell, not just the "
                          "Pareto frontier")
    sub.add_argument("--stats-out", default=None, metavar="FILE",
                     help="write engine cache counters as JSON "
                          "(check_tune.py's warm-rerun assertion)")
    sub.add_argument("--cache-stats", action="store_true",
                     help="print engine cache statistics to stderr")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="profile-guided optimization autotuner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
            ("search", cmd_search, "measure the lattice, elect a winner"),
            ("show", cmd_show, "print a persisted record (no search)"),
            ("apply", cmd_apply, "compile with the winning config")):
        cmd = sub.add_parser(name, help=help_text)
        add_common(cmd)
        cmd.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        get_target(args.target)
    except UnknownTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
