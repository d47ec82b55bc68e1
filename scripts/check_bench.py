#!/usr/bin/env python3
"""Benchmark regression guard.

Compares a fresh ``pytest-benchmark`` JSON run against the most recent
committed baseline (``BENCH_*.json`` in the repository root) and fails
when any shared benchmark regressed by more than the threshold
(default 25 %).  The *minimum* round time is compared (falling back to
median, then mean, when a file lacks it): scheduler/GC interference
only ever adds time, so the per-run minimum is by far the most stable
statistic — measured locally it varies a few percent between runs
where medians and means swing past the threshold on their own.

The baseline may have been captured on different hardware than the
fresh run (a committed baseline vs a CI runner), so per-benchmark
ratios are normalized by a suite-wide **drift anchor** before the
threshold applies.  The anchor is the *low quartile* of the ratios:
hardware drift slows every benchmark, so the least-slowed quartile
tracks it, while a code regression — even a broad one in the compiler
core — spares the non-compile benchmarks (interpreter, generators,
cache hits) that then hold the anchor near 1 and let the slowed
majority fail.  A benchmark regresses when its drift-normalized ratio
exceeds ``1 + threshold``.

Timing flaps are whole-process-correlated (load/frequency windows hit
a stretch of the suite at once), so before declaring a regression the
suite is re-run (``--retries``, default 1) and fresh times are merged
by per-benchmark min — a genuine code regression survives every
re-run; a noisy window does not.

With no ``BENCH_*.json`` checked in the script reports that and exits 0,
so CI can run it unconditionally; ``BENCH_baseline.json`` is committed,
which makes the guard active on every PR.

``--fleet-smoke`` runs a different gate entirely: a fixed-seed
10^4-instance fleet throughput smoke (``python -m repro.fleet smoke
--json``), asserting an absolute sustained events/sec floor and a
minimum speedup over per-instance interpretation.  Absolute floors are
deliberately conservative (100k events/sec where the observed rate is
tens of millions) so the gate trips on a broken vectorized path, not a
slow runner.

Usage:
    python scripts/check_bench.py [--fresh PATH] [--baseline PATH]
                                  [--threshold 0.25]
    python scripts/check_bench.py --fleet-smoke

Without ``--fresh`` the benchmark suite is run first (requires
pytest-benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_means(path: pathlib.Path) -> dict:
    """benchmark fullname -> min (or median/mean) round seconds, from a
    pytest-benchmark JSON."""
    with open(path) as fh:
        data = json.load(fh)
    means = {}
    for bench in data.get("benchmarks", []):
        name = bench.get("fullname") or bench.get("name")
        stats = bench.get("stats", {})
        value = stats.get("min", stats.get("median", stats.get("mean")))
        if name and value is not None:
            means[name] = value
    return means


def find_baseline(exclude: pathlib.Path | None) -> pathlib.Path | None:
    candidates = [p for p in REPO_ROOT.glob("BENCH_*.json")
                  if exclude is None or p.resolve() != exclude.resolve()]
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.stat().st_mtime)


def run_fresh() -> pathlib.Path:
    out = pathlib.Path(tempfile.mkdtemp()) / "bench_fresh.json"
    cmd = [sys.executable, "-m", "pytest", "benchmarks", "-q",
           "--benchmark-json", str(out), "--benchmark-warmup=off",
           "--benchmark-disable-gc", "--benchmark-min-rounds=10"]
    proc = subprocess.run(cmd, cwd=REPO_ROOT)
    if proc.returncode != 0:
        sys.exit(f"benchmark run failed (exit {proc.returncode})")
    return out


def compare(baseline: dict, fresh: dict, shared: list,
            threshold: float) -> list:
    """Print the per-benchmark comparison; return the regressed names."""
    ratios = {name: (fresh[name] / baseline[name] if baseline[name]
                     else 1.0) for name in shared}
    # Drift anchor: the low quartile of the ratios. Hardware drift moves
    # every benchmark, so the least-slowed quartile tracks it; a code
    # regression spares the unrelated benchmarks, which hold the anchor
    # down and expose the slowed ones. Only *slowdown* drift (> 1) is
    # normalized away: on uniformly faster hardware raw ratios are
    # already < 1 and dividing by a < 1 anchor would manufacture
    # regressions out of benchmarks that merely failed to speed up as
    # much as the rest.
    ordered = sorted(ratios.values())
    drift = max(ordered[len(ordered) // 4], 1.0)
    print(f"check_bench: suite-wide slowdown drift "
          f"{(drift - 1.0) * 100.0:+.1f}% (low-quartile ratio clamped "
          f"at 1.0; hardware/load, normalized away)")

    failures = []
    for name in shared:
        ratio = ratios[name]
        normalized = ratio / drift
        status = "OK"
        if normalized > 1.0 + threshold:
            status = "REGRESSION"
            failures.append(name)
        print(f"  {status:10s} {name}: {baseline[name]:.6f}s -> "
              f"{fresh[name]:.6f}s ({(ratio - 1.0) * 100.0:+.1f}% raw, "
              f"{(normalized - 1.0) * 100.0:+.1f}% vs drift)")
    return failures


def run_fleet_smoke(min_events_per_sec: float, min_speedup: float,
                    retries: int) -> int:
    """The fleet throughput gate: shell out to the fixed-seed smoke,
    parse its JSON, assert the floors.  Wall-clock, so a failed attempt
    gets re-run (a genuinely broken fast path fails every time).  A
    null speedup (the interpreter baseline timed at 0 events/sec)
    misses the speedup floor."""
    cmd = [sys.executable, "-m", "repro.fleet", "smoke",
           "--instances", "10000", "--seed", "0", "--json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    for attempt in range(retries + 1):
        proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            sys.exit(f"fleet smoke failed (exit {proc.returncode})")
        result = json.loads(proc.stdout)
        eps = result["events_per_sec"]
        speedup = result["speedup_vs_interp"]
        shown = "n/a" if speedup is None else f"{speedup:.1f}x"
        print(f"check_bench --fleet-smoke: {result['instances']} "
              f"instances, {eps:,.0f} events/sec "
              f"({result['lane_events']} lane-events), "
              f"{shown} vs per-instance interpretation")
        if eps >= min_events_per_sec and speedup is not None \
                and speedup >= min_speedup:
            print(f"check_bench --fleet-smoke: PASS (floors: "
                  f"{min_events_per_sec:,.0f} events/sec, "
                  f"{min_speedup:.0f}x speedup)")
            return 0
        if attempt < retries:
            print(f"check_bench --fleet-smoke: below floor; re-running "
                  f"to rule out a noisy window "
                  f"(retry {attempt + 1}/{retries})")
    print(f"check_bench --fleet-smoke: FAIL - events/sec {eps:,.0f} "
          f"(floor {min_events_per_sec:,.0f}) speedup {shown} "
          f"(floor {min_speedup:.0f}x)")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", type=pathlib.Path,
                        help="pytest-benchmark JSON of the fresh run "
                             "(default: run the benchmarks/ suite now)")
    parser.add_argument("--baseline", type=pathlib.Path,
                        help="baseline JSON (default: newest BENCH_*.json "
                             "in the repo root)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative min-round-time regression "
                             "(default: %(default)s)")
    parser.add_argument("--retries", type=int, default=1,
                        help="fresh re-runs merged by per-benchmark min "
                             "before declaring a regression (default: "
                             "%(default)s; 0 disables)")
    parser.add_argument("--fleet-smoke", action="store_true",
                        help="run the fixed-seed fleet throughput gate "
                             "instead of the baseline comparison")
    parser.add_argument("--min-events-per-sec", type=float,
                        default=100_000.0,
                        help="--fleet-smoke: absolute sustained "
                             "events/sec floor (default: %(default)s)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="--fleet-smoke: minimum speedup over "
                             "per-instance interpretation "
                             "(default: %(default)s)")
    args = parser.parse_args()

    if args.fleet_smoke:
        return run_fleet_smoke(args.min_events_per_sec, args.min_speedup,
                               args.retries)

    if args.fresh is not None and not args.fresh.is_file():
        sys.exit(f"check_bench: fresh run file not found: {args.fresh}")
    fresh_path = args.fresh if args.fresh else run_fresh()
    baseline_path = args.baseline or find_baseline(exclude=fresh_path)
    if baseline_path is None:
        print("check_bench: no BENCH_*.json baseline committed yet; "
              "nothing to compare against (inert pass).")
        return 0

    baseline = load_means(baseline_path)
    fresh = load_means(fresh_path)
    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        print(f"check_bench: no shared benchmarks between "
              f"{baseline_path.name} and {fresh_path.name} (inert pass).")
        return 0

    failures = compare(baseline, fresh, shared, args.threshold)
    for attempt in range(args.retries if failures else 0):
        # Timing flaps are whole-process-correlated (load/frequency
        # windows), so a re-run merged by per-benchmark min is the
        # reliable tiebreak: a *code* regression survives every re-run.
        print(f"check_bench: {len(failures)} suspect benchmark(s); "
              f"re-running the suite to rule out a noisy window "
              f"(retry {attempt + 1}/{args.retries})")
        rerun = load_means(run_fresh())
        fresh = {name: min(fresh[name], rerun.get(name, fresh[name]))
                 for name in fresh}
        failures = compare(baseline, fresh, shared, args.threshold)
        if not failures:
            break

    if failures:
        print(f"check_bench: {len(failures)}/{len(shared)} benchmarks "
              f"regressed more than {args.threshold:.0%} vs "
              f"{baseline_path.name}")
        return 1
    print(f"check_bench: {len(shared)} benchmarks within "
          f"{args.threshold:.0%} of {baseline_path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
