"""Repository benchmark: four seeded closed-loop workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compare --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
table.  Every phase runs in a fresh Python process (:mod:`child`), so no
cache, memo table or registry count leaks from one phase to the next:

* untraced: two *probe* processes (set-up plus a fixed, seed-determined
  amount of work; their determinism digests must be identical) and one
  *timed* process (set-up, the timed window, then the output checks).
  ``setup_s`` is the median of the three set-ups.
* traced: one untraced and one traced timed process; the difference of
  their ``ops_per_s`` is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("compare", "fuzz", "serve", "fleet")
#: Wall-clock budget of one invocation; each phase gets what is left.
BUDGET_S = 170.0

#: name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("code_bytes", "bytes", "lower"),
    ("vm_cycles_per_event", "cycles", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYERS = ("semantics", "optim", "codegen", "compiler", "vm", "fleet",
          "fuzz", "engine", "store", "service")

PER_LAYER = tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("semantics.equivalence_s", "s", "lower"),
    ("semantics.scenarios", "count", "lower"),
    ("semantics.dispatches", "count", "lower"),
    ("semantics.dispatch_s", "s", "lower"),
    ("optim.optimize_s", "s", "lower"),
    ("optim.elements_removed", "count", "higher"),
    ("codegen.generate_s", "s", "lower"),
    ("compiler.lower_s", "s", "lower"),
    ("compiler.optimize_function_s", "s", "lower"),
    ("compiler.backend_function_s", "s", "lower"),
    ("compiler.unit_compile_s", "s", "lower"),
    ("compiler.units_compiled", "count", "lower"),
    ("compiler.units", "count", "lower"),
    ("compiler.unit_reuse_ratio", "ratio", "higher"),
    ("pass.ccp_s", "s", "lower"),
    ("stage.ssa-build_s", "s", "lower"),
    ("stage.ssa-out_s", "s", "lower"),
    ("stage.regalloc_s", "s", "lower"),
    ("unit.compile.self_s", "s", "lower"),
    ("vm.assemble_s", "s", "lower"),
    ("vm.dispatches", "count", "lower"),
    ("vm.dispatch_s", "s", "lower"),
    ("vm.text_bytes", "bytes", "lower"),
    ("fleet.compile_table_s", "s", "lower"),
    ("fleet.dispatch_s", "s", "lower"),
    ("fleet.lane_events", "count", "higher"),
    ("fleet.fast_frac", "ratio", "higher"),
    ("fleet.speedup_vs_interp", "ratio", "higher"),
    ("fuzz.generate_s", "s", "lower"),
    ("fuzz.oracle_s", "s", "lower"),
    ("fuzz.executors_run", "count", "higher"),
    ("fuzz.cells_skipped", "count", "lower"),
    ("engine.module_lookups", "count", "lower"),
    ("engine.module_hit_ratio", "ratio", "higher"),
    ("engine.unit_lookups", "count", "lower"),
    ("engine.unit_hit_ratio", "ratio", "higher"),
    ("engine.inflight_waits", "count", "lower"),
    ("store.reads", "count", "lower"),
    ("store.writes", "count", "lower"),
    ("store.read_s", "s", "lower"),
    ("store.write_s", "s", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("service.server_s", "s", "lower"),
    ("service.wire_s", "s", "lower"),
    ("service.queue_high_water", "count", "lower"),
    ("service.busy_rejections", "count", "lower"),
    ("service.worker_utilization", "ratio", "higher"),
    ("bench.op_wall_s", "s", "lower"),
    ("bench.coverage_frac", "ratio", "higher"),
    ("bench.ops_per_s_untraced", "1/s", "higher"),
    ("bench.ops_per_s_traced", "1/s", "higher"),
    ("bench.trace_overhead_frac", "ratio", "lower"),
)

_MIDDLE_END = ("stage.inline", "stage.ssa-build", "stage.ssa-out")
_BACK_END = ("stage.isel", "stage.fuse", "stage.regalloc", "stage.peephole",
             "stage.prologue")


class BenchError(Exception):
    """A phase could not run to completion."""


def percentile(ordered: List[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile of an ascending list, and how many
    samples lie beyond it."""
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank], len(ordered) - rank - 1


def run_child(args: argparse.Namespace, mode: str, trace: int,
              scratch: str, deadline: float) -> Dict[str, Any]:
    """Run one phase in a fresh process and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(trace), "--scratch", scratch]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               TMPDIR=scratch)
    # A session of its own, so a timeout can stop the phase's workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} phase exceeded the time budget")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # stray workers, if any
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} phase exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{mode} phase printed no result") from None


def end_to_end(probes: List[Dict[str, Any]], timed: Dict[str, Any]
               ) -> Tuple[Dict[str, float], List[str]]:
    digest = probes[0]["digest"]
    ordered = sorted(timed["latencies"])
    p50, _ = percentile(ordered, 0.50)
    p90, beyond = percentile(ordered, 0.90)
    factor = timed["speed_factor"]
    phases = probes + [timed]
    values = {
        "setup_s": statistics.median(
            p["setup_s"] * p["setup_factor"] for p in phases),
        "ops_per_s": timed["ops_per_s"] / factor,
        "latency_p50_ms": p50 * 1e3 * factor,
        "latency_p90_ms": p90 * 1e3 * factor,
        "code_bytes": digest["code_bytes"],
        "vm_cycles_per_event": digest["vm_cycles"] / digest["vm_events"],
        # Probes do a fixed amount of work; the window's op count varies.
        "peak_rss_mb": max(p["peak_rss_mb"] for p in probes),
    }
    notes = [f"latency samples: {len(ordered)} ops, {beyond} beyond p90",
             f"times above are at reference host speed; this host ran at "
             f"{factor:.3f}x it during the window (raw: ops_per_s "
             f"{timed['ops_per_s']:.6g}, p50 {p50 * 1e3:.6g} ms, "
             f"p90 {p90 * 1e3:.6g} ms)",
             "set-up samples (raw s @ speed): " + ", ".join(
                 f"{p['setup_s']:.3f} @ {p['setup_factor']:.3f}"
                 for p in phases)]
    return values, notes


def per_layer(traced: Dict[str, Any], untraced: Dict[str, Any]
              ) -> Dict[str, float]:
    table = traced["layers"]
    total, own, count = table["total_s"], table["span_self_s"], \
        table["count"]
    counts, timers, extras = traced["counts"], traced["timer_s"], \
        traced["extras"]
    registry = traced["registry"]

    def tot(*names: str) -> float:
        return sum(total.get(name, 0.0) for name in names)

    def reg(name: str, **labels: str) -> float:
        return sum(value for key, value in registry.items()
                   if key.startswith(name + "{") and
                   all(f"{k}={v}" in key for k, v in labels.items()))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    values = {f"{layer}.self_s": table["self_s"][layer] for layer in LAYERS}
    passes = [name for name in total if name.startswith("pass.")]
    module_hits = reg("engine_cache_hits_total", cache="module") \
        + extras.get("worker.module_hits", 0)
    module_lookups = module_hits + \
        reg("engine_cache_misses_total", cache="module") \
        + extras.get("worker.module_misses", 0)
    unit_hits = reg("engine_cache_hits_total", cache="unit") \
        + extras.get("worker.unit_hits", 0)
    unit_lookups = unit_hits + reg("engine_cache_misses_total", cache="unit") \
        + extras.get("worker.unit_misses", 0)
    reused = reg("engine_cache_hits_total", cache="unit") \
        + extras.get("worker.reused_units", 0)
    compiled = reg("engine_cache_misses_total", cache="unit") \
        + extras.get("worker.compiled_units", 0)
    op_wall = sum(traced["latencies"])
    # Rates at reference host speed, so host drift between the two
    # processes does not read as tracing overhead.
    traced_rate = traced["ops_per_s"] / traced["speed_factor"]
    untraced_rate = untraced["ops_per_s"] / untraced["speed_factor"]
    server_s = extras.get("service.server_s", 0.0)
    values.update({
        "semantics.equivalence_s": tot("semantics.equivalence"),
        "semantics.scenarios": counts.get("semantics.scenarios", 0),
        "semantics.dispatches": counts.get("semantics.dispatches", 0),
        "semantics.dispatch_s": timers.get("semantics.dispatch", 0.0),
        "optim.optimize_s": tot("optim.optimize"),
        "optim.elements_removed": counts.get("optim.elements_removed", 0),
        "codegen.generate_s": tot("codegen.generate")
        + own.get("stage.generate", 0.0),
        "compiler.lower_s": tot("compiler.lower")
        + own.get("stage.lower", 0.0),
        # Worker processes (serve) are not wrapped: use their stage spans.
        "compiler.optimize_function_s": tot("compiler.optimize_function")
        if count.get("compiler.optimize_function")
        else tot(*_MIDDLE_END, *passes),
        "compiler.backend_function_s": tot("compiler.backend_function")
        if count.get("compiler.backend_function") else tot(*_BACK_END),
        "compiler.unit_compile_s": tot("compiler.unit_compile")
        or tot("unit.compile"),
        "compiler.units_compiled": compiled,
        "compiler.units": reused + compiled,
        "compiler.unit_reuse_ratio": ratio(reused, reused + compiled),
        "pass.ccp_s": tot("pass.ccp"),
        "stage.ssa-build_s": tot("stage.ssa-build"),
        "stage.ssa-out_s": tot("stage.ssa-out"),
        "stage.regalloc_s": tot("stage.regalloc"),
        "unit.compile.self_s": own.get("unit.compile", 0.0),
        "vm.assemble_s": tot("vm.assemble") + own.get("stage.assemble", 0.0),
        "vm.dispatches": counts.get("vm.dispatches", 0),
        "vm.dispatch_s": timers.get("vm.dispatch", 0.0),
        "vm.text_bytes": counts.get("vm.text_bytes", 0),
        "fleet.compile_table_s": tot("fleet.compile_table"),
        "fleet.dispatch_s": timers.get("fleet.dispatch", 0.0),
        "fleet.lane_events": extras.get("fleet.lane_events", 0),
        "fleet.fast_frac": extras.get("fleet.fast_frac", 0.0),
        "fleet.speedup_vs_interp": extras.get("fleet.speedup_vs_interp",
                                              0.0),
        "fuzz.generate_s": tot("fuzz.generate"),
        "fuzz.oracle_s": tot("fuzz.oracle"),
        "fuzz.executors_run": extras.get("fuzz.executors_run", 0),
        "fuzz.cells_skipped": extras.get("fuzz.cells_skipped", 0),
        "engine.module_lookups": module_lookups,
        "engine.module_hit_ratio": ratio(module_hits, module_lookups),
        "engine.unit_lookups": unit_lookups,
        "engine.unit_hit_ratio": ratio(unit_hits, unit_lookups),
        "engine.inflight_waits": reg("engine_cache_hits_total",
                                     origin="inflight"),
        "store.reads": count.get("store.read", 0),
        "store.writes": count.get("store.write", 0),
        "store.read_s": tot("store.read"),
        "store.write_s": tot("store.write"),
        "store.bytes_written": table["store_bytes_written"],
        "service.server_s": server_s,
        "service.wire_s": op_wall - server_s if server_s else 0.0,
        "service.queue_high_water": extras.get("service.queue_high_water", 0),
        "service.busy_rejections": extras.get("service.busy_rejections", 0),
        "service.worker_utilization":
            extras.get("service.worker_utilization", 0.0),
        "bench.op_wall_s": op_wall,
        "bench.coverage_frac": ratio(sum(table["self_s"].values()), op_wall),
        "bench.ops_per_s_untraced": untraced_rate,
        "bench.ops_per_s_traced": traced_rate,
        "bench.trace_overhead_frac": 1.0 - ratio(traced_rate, untraced_rate),
    })
    return values


def render(title: str, specs, values: Dict[str, float],
           notes: List[str]) -> str:
    lines = [title]
    for name, unit, better in specs:
        lines.append(f"  {name:<30} {values[name]:>16.6g} {unit:<7} "
                     f"({better} is better)")
    lines.extend("  " + note for note in notes)
    return "\n".join(lines)


def layer_notes(values: Dict[str, float]) -> List[str]:
    """Self time per layer as a share of op wall time, largest marked."""
    wall = values["bench.op_wall_s"]
    ranked = sorted(LAYERS, key=lambda l: -values[f"{l}.self_s"])
    notes = ["self time by layer (share of op wall time "
             f"{wall:.3f} s):"]
    for index, layer in enumerate(ranked):
        seconds = values[f"{layer}.self_s"]
        mark = "  <- largest" if index == 0 else ""
        notes.append(f"  {layer:<10} {seconds:9.3f} s "
                     f"{seconds / wall if wall else 0.0:7.1%}{mark}")
    notes.append(f"layer coverage of op wall time: "
                 f"{values['bench.coverage_frac']:.1%}")
    notes.append(f"tracing overhead: "
                 f"{values['bench.trace_overhead_frac']:.1%} of ops_per_s "
                 f"({values['bench.ops_per_s_untraced']:.4g} untraced, "
                 f"{values['bench.ops_per_s_traced']:.4g} traced)")
    return notes


def measure(args: argparse.Namespace, scratch: str) -> Dict[str, Any]:
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        untraced = run_child(args, "timed", 0, scratch, deadline)
        traced = run_child(args, "timed", 1, scratch, deadline)
        phases = [untraced, traced]
        values = per_layer(traced, untraced)
        specs, notes = PER_LAYER, layer_notes(values)
        deterministic = True
    else:
        probes = [run_child(args, "probe", 0, scratch, deadline)
                  for _ in range(2)]
        timed = run_child(args, "timed", 0, scratch, deadline)
        phases = probes + [timed]
        values, notes = end_to_end(probes, timed)
        specs = END_TO_END
        digests = [json.dumps(p["digest"], sort_keys=True) for p in probes]
        deterministic = digests[0] == digests[1]
        notes.append("determinism (two probes of one seed): " +
                     ("identical" if deterministic else
                      "MISMATCH\n    " + "\n    ".join(digests)))
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    notes.append(f"failed_frac: {failed}/{attempted} = "
                 f"{failed / max(1, attempted):.4f}")
    print(render(f"{args.workload} (seed {args.seed}, "
                 f"{args.seconds:g} s, trace {args.trace})",
                 specs, values, notes))
    return {"correct": failed == 0 and deterministic,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in specs}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the cleanup below stops the phase
    # process group and removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found next to perfbench/; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    scratch_root = os.path.join(ROOT, ".perfbench-scratch")
    scratch = os.path.join(scratch_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        result = measure(args, scratch)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass                      # another run still uses it
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
