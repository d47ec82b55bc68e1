"""One benchmark process: set up one workload, then probe it or time it.

Run by :mod:`run` (never directly); prints one JSON object as its last
line of standard output.  Set-up time is measured from the top of this
file (after a few host-speed samples), so it includes the ``repro``
imports.
"""

import time

from speed import SpeedGauge

_SETUP_GAUGE = SpeedGauge()
_SETUP_GAUGE.sample(5)
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS, counts_delta, registry_counts  # noqa: E402


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for
    (kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def _timed(workload, seconds: float, trace: bool):
    probe = None
    if trace:
        from layers import Probe
        probe = Probe().install()
    before = registry_counts()
    try:
        latencies = workload.run(seconds)
    finally:
        if probe is not None:
            probe.uninstall()
    out = {
        "speed_factor": workload.gauge.factor(),
        "latencies": latencies,
        "elapsed_s": workload.elapsed,
        "ops_per_s": workload.ops_per_s(latencies, workload.elapsed),
        "registry": counts_delta(before, registry_counts()),
    }
    if probe is not None:
        from layers import layer_table
        out["layers"] = layer_table(probe)
        out["counts"] = dict(probe.counts)
        out["timer_s"] = dict(probe.timer_s)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("probe", "timed"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    result = {"setup_s": time.perf_counter() - _T0}
    _SETUP_GAUGE.sample(5)
    result["setup_factor"] = _SETUP_GAUGE.factor()
    try:
        if args.mode == "probe":
            result["digest"] = workload.probe()
        else:
            result.update(_timed(workload, args.seconds, bool(args.trace)))
            workload.op_failures += workload.check()
            result["extras"] = workload.layer_extras()
    finally:
        workload.close()
    result["attempted"] = workload.attempted
    result["failed"] = workload.op_failures
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
