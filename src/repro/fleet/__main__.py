"""CLI: fleet throughput smoke.

``python -m repro.fleet smoke`` runs a fixed-seed fleet (default 10^4
instances of a generated workload machine) through
:func:`repro.fleet.baseline.run_fleet_throughput`, the measurement the
``python -m repro.experiments --throughput`` table takes too: sustained
events/sec through the sharded harness, the per-instance interpreter
on a small sample of the same workload, and the speedup.  ``--json``
prints a machine-readable result, which ``scripts/check_bench.py
--fleet-smoke`` parses and holds to its floors.

All numbers here are wall-clock — this tool quantifies the engine and
never feeds the deterministic experiment tables.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..experiments.workload import generate_machine, mixed_workload
from .baseline import run_fleet_throughput

__all__ = ["main"]


def cmd_smoke(args: argparse.Namespace) -> int:
    machine = generate_machine(mixed_workload(args.seed, "FleetSmoke"))
    row = run_fleet_throughput(machine, n_instances=args.instances,
                               n_events=args.events, n_shards=args.shards,
                               batch_size=args.batch_size,
                               stream_seed=args.seed + 1,
                               interp_sample=args.interp_sample)
    report = row.report
    speedup = row.speedup
    result = {
        "machine": row.machine_name,
        "table": row.table,
        "instances": report.n_lanes,
        "shards": report.n_shards,
        "stream_events": row.stream_events,
        "lane_events": report.lane_events,
        "elapsed_s": round(report.elapsed_s, 6),
        "events_per_sec": round(report.events_per_sec, 1),
        "interp_sample": row.interp_sample,
        "interp_events_per_sec": round(row.interp_events_per_sec, 1),
        # None, not inf, when the baseline rate is 0: "infx" is a
        # measurement artifact and raw inf is not even valid JSON.
        "speedup_vs_interp": (round(speedup, 2)
                              if speedup is not None else None),
        "shard_p99_ms": [round(s.p99_ms, 3) for s in report.shards],
    }
    if args.json:
        print(json.dumps(result, indent=2))
    else:
        print(report.summary())
        print(f"interpreter sample ({row.interp_sample} instances): "
              f"{row.interp_events_per_sec:,.0f} events/sec per lane")
        print("fleet speedup vs per-instance interpretation: "
              f"{row.speedup_display}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="fleet throughput smoke (wall-clock)")
    sub = parser.add_subparsers(dest="command", required=True)
    smoke = sub.add_parser("smoke", help="fixed-seed throughput smoke")
    smoke.add_argument("--instances", type=int, default=10_000)
    smoke.add_argument("--events", type=int, default=200,
                       help="stream length (every instance sees all of "
                            "it: broadcast routing)")
    smoke.add_argument("--shards", type=int, default=4)
    smoke.add_argument("--batch-size", type=int, default=32)
    smoke.add_argument("--seed", type=int, default=0)
    smoke.add_argument("--interp-sample", type=int, default=25,
                       help="interpreter instances for the baseline rate")
    smoke.add_argument("--json", action="store_true")
    smoke.set_defaults(fn=cmd_smoke)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
