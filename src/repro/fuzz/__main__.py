"""Fuzz the pipeline: ``python -m repro.fuzz <command>``.

Commands
--------

``run``
    Generate and judge N cases (``--cases``, ``--seed``), shrink and
    persist whatever diverges.  Exit status: 0 when every executed case
    agreed, 1 when any divergence was found, 2 on usage errors — so CI
    can smoke-run the fuzzer and also assert that ``--inject-bug``
    *does* get caught.
``replay``
    Re-run corpus entries (ids, or ``--file`` JSON exports) under their
    recorded oracle configs and check they still diverge exactly as
    recorded.  Exit 0 when everything reproduces.
``shrink``
    Re-shrink an existing corpus entry (useful after oracle changes).
``corpus``
    List entries, ``--show`` one as JSON, or ``--export`` it to a file.

``--cache-dir`` gives the engine a persistent artifact store, so a
re-run (or a CI job with a restored cache) is served from disk;
``--corpus-dir`` (default ``.repro-fuzz``) is where minimized repros
land.  All randomness derives from ``--seed``: the same invocation
regenerates the same cases, byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..codegen import ALL_PATTERNS
from ..compiler.driver import OptLevel
from ..compiler.target import UnknownTargetError, get_target
from ..engine import ExperimentEngine
from .corpus import Corpus, entry_from_json, entry_to_json, replay_entry
from .generate import DEFAULT_PROFILES
from .oracle import DifferentialOracle, OracleConfig
from .runner import FuzzRunner
from .shrink import shrink_case

_DEFAULT_CORPUS = ".repro-fuzz"
_LEVEL_CHOICES = tuple(level.value for level in OptLevel)
_PATTERN_CHOICES = tuple(g.name for g in ALL_PATTERNS)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist engine artifacts (repro.store "
                             "directory); warm reruns are served from "
                             "disk")
    parser.add_argument("--corpus-dir", default=_DEFAULT_CORPUS,
                        metavar="DIR",
                        help="repro corpus directory "
                             "(default: %(default)s)")


def _add_oracle(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--patterns", nargs="+", metavar="NAME",
                        choices=_PATTERN_CHOICES, default=None,
                        help="pin the codegen pattern grid (default: "
                             "rotate one pattern per case)")
    parser.add_argument("--targets", nargs="+", metavar="NAME",
                        default=["rt32", "rt16"],
                        help="backend ISAs to execute on "
                             "(default: %(default)s)")
    parser.add_argument("--levels", nargs="+", metavar="LVL",
                        choices=_LEVEL_CHOICES,
                        default=list(_LEVEL_CHOICES),
                        help="optimization levels (default: all)")
    parser.add_argument("--no-model-opt", action="store_true",
                        help="skip the model-optimizer executor")
    parser.add_argument("--inject-bug", action="store_true",
                        help="run the model optimizer with a "
                             "deliberately broken pass (oracle/shrinker "
                             "validation: divergences are expected)")


def _engine(args) -> ExperimentEngine:
    return ExperimentEngine(cache_dir=args.cache_dir)


def _oracle_config(args) -> OracleConfig:
    return OracleConfig(
        patterns=tuple(args.patterns) if args.patterns else None,
        targets=tuple(args.targets),
        levels=tuple(args.levels),
        check_optimized=not args.no_model_opt,
        inject_bug=args.inject_bug)


def _check_targets(args) -> Optional[str]:
    for name in args.targets:
        try:
            get_target(name)
        except UnknownTargetError as exc:
            return str(exc)
    return None


def cmd_run(args) -> int:
    error = _check_targets(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.trace_out:
        from ..obs.trace import configure
        configure(sample_ratio=1.0, process="fuzz")
    engine = _engine(args)
    corpus = Corpus(args.corpus_dir)
    config = _oracle_config(args)

    def progress(done: int, total: int, report) -> None:
        if done % args.progress_every == 0 or done == total:
            print(f"[{done}/{total}] {report.stats.summary()}; "
                  f"coverage {len(runner.coverage)}", file=sys.stderr)

    runner = FuzzRunner(engine=engine, config=config,
                        profiles=DEFAULT_PROFILES, corpus=corpus,
                        shrink_limit=args.max_shrink,
                        on_progress=progress)
    try:
        report = runner.run(args.cases, seed=args.seed)
    finally:
        if args.trace_out:
            from ..obs.export import write_chrome_trace
            from ..obs.trace import get_tracer
            count = write_chrome_trace(
                args.trace_out, get_tracer().drain(),
                metadata={"mode": "fuzz", "cases": args.cases})
            print(f"wrote {count} span(s) to {args.trace_out}",
                  file=sys.stderr)
    print(report.summary())
    if args.cache_stats:
        print(engine.describe(), file=sys.stderr)
    return 0 if report.clean else 1


def cmd_replay(args) -> int:
    engine = _engine(args)
    corpus = Corpus(args.corpus_dir)
    oracle = DifferentialOracle(engine=engine)
    entries = []
    for path in args.file or []:
        with open(path, "r", encoding="utf-8") as fh:
            entries.append(entry_from_json(fh.read()))
    for case_id in args.ids:
        entries.append(corpus.get(case_id))
    if not entries:
        entries = [corpus.get(case_id) for case_id in corpus.ids()]
    if not entries:
        print("corpus is empty; nothing to replay", file=sys.stderr)
        return 2
    failures = 0
    for entry in entries:
        outcome = replay_entry(entry, oracle=oracle)
        print(outcome.summary())
        if not outcome.reproduces:
            failures += 1
    return 0 if failures == 0 else 1


def cmd_shrink(args) -> int:
    engine = _engine(args)
    corpus = Corpus(args.corpus_dir)
    entry = corpus.get(args.id)
    from .case import FuzzCase
    from .corpus import semantics_from_dict
    case = FuzzCase.from_dict(entry["case"])
    config = OracleConfig.from_dict(entry["oracle"])
    semantics = semantics_from_dict(entry.get("semantics"))
    oracle = DifferentialOracle(engine=engine, config=config,
                                semantics=semantics)
    result = oracle.run_case(case)
    if not result.diverged:
        print(f"{args.id}: case no longer diverges; nothing to shrink")
        return 1
    report = shrink_case(case, result, oracle)
    print(report.summary())
    # Re-judge the minimized case under the full stored config: replay
    # must observe exactly what we record.
    final = oracle.run_case(report.minimized)
    corpus.add(report.minimized, config,
               expect=final.divergent_executors(),
               note=f"re-shrunk from {args.id}",
               semantics=semantics)
    print(f"stored {report.minimized.case_id}")
    return 0


def cmd_corpus(args) -> int:
    corpus = Corpus(args.corpus_dir)
    if args.show:
        print(entry_to_json(corpus.get(args.show)))
        return 0
    if args.export:
        case_id, path = args.export
        corpus.export_file(case_id, path)
        print(f"exported {case_id} -> {path}")
        return 0
    ids = corpus.ids()
    if not ids:
        print("corpus is empty")
        return 0
    for case_id in ids:
        entry = corpus.get(case_id)
        expect = entry.get("expect", [])
        print(f"{case_id}  expect={','.join(expect) or '(clean)'}  "
              f"{entry.get('note', '')}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided differential fuzzing of the "
                    "model -> passes -> targets -> VM pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="generate and judge N cases")
    p_run.add_argument("--cases", type=int, default=100, metavar="N")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-shrink", type=int, default=5, metavar="N",
                       help="shrink at most N divergent cases "
                            "(default: %(default)s)")
    p_run.add_argument("--progress-every", type=int, default=50,
                       metavar="N",
                       help="progress line to stderr every N cases")
    p_run.add_argument("--trace-out", default=None,
                       metavar="TRACE.json",
                       help="sample every compile and write the run's "
                            "spans as Chrome trace JSON")
    p_run.add_argument("--cache-stats", action="store_true",
                       help="print engine cache statistics to stderr")
    _add_common(p_run)
    _add_oracle(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_replay = sub.add_parser("replay",
                              help="re-run corpus entries / JSON files")
    p_replay.add_argument("ids", nargs="*", metavar="CASE_ID")
    p_replay.add_argument("--file", action="append", metavar="PATH",
                          help="replay an exported JSON entry")
    _add_common(p_replay)
    p_replay.set_defaults(fn=cmd_replay)

    p_shrink = sub.add_parser("shrink",
                              help="re-shrink a corpus entry")
    p_shrink.add_argument("id", metavar="CASE_ID")
    _add_common(p_shrink)
    p_shrink.set_defaults(fn=cmd_shrink)

    p_corpus = sub.add_parser("corpus", help="inspect the corpus")
    p_corpus.add_argument("--show", metavar="CASE_ID")
    p_corpus.add_argument("--export", nargs=2,
                          metavar=("CASE_ID", "PATH"))
    _add_common(p_corpus)
    p_corpus.set_defaults(fn=cmd_corpus)

    args = parser.parse_args(argv)
    if getattr(args, "cases", 1) < 0 \
            or getattr(args, "progress_every", 1) < 1:
        print("error: --cases must be >= 0, --progress-every >= 1",
              file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
