"""The compile service end to end: persistent store + socket server.

Starts a compile service backed by a persistent artifact store, submits
work over a unix socket — single compiles and a deduplicated batch —
and then shows the punchline of the store layer: a *second* service
(standing in for a new process, a CI job, another host sharing the
directory) answers the same requests from disk without compiling
anything.

Run:  python examples/service_demo.py
"""

import tempfile

from repro.engine import ExperimentEngine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.service import ServiceThread, compile_params

cache_dir = tempfile.mkdtemp(prefix="repro-demo-store-")
flat = flat_machine_with_unreachable_state()
hierarchical = hierarchical_machine_with_shadowed_composite()

print("=== cold service (empty store) ===")
engine = ExperimentEngine(cache_dir=cache_dir)
with ServiceThread(engine) as handle:
    print("listening on", handle.address)
    with handle.client() as client:
        print("ping ->", client.ping())

        result = client.compile_machine(flat, pattern="nested-switch",
                                        target="rt16")
        print(f"{result['machine']} [{result['pattern']}, "
              f"{result['level']}, {result['target']}] -> "
              f"{result['total_size']} bytes")

        # A batch grid with a repeat: the service compiles each unique
        # job once, results come back in input order.
        jobs = [compile_params(flat, pattern=p)
                for p in ("nested-switch", "state-table", "state-pattern",
                          "nested-switch")]
        jobs.append(compile_params(hierarchical, pattern="flat-switch"))
        batch = client.request("batch", jobs=jobs)
        sizes = [job["total_size"] for job in batch["results"]]
        print(f"batch of {len(jobs)} jobs -> sizes {sizes} "
              f"({batch['deduplicated']} deduplicated)")
        assert sizes[0] == sizes[3], "repeat job must match"

        print("service totals:", client.metrics()["service"])
print("cold engine:", engine.describe())

print()
print("=== warm service (same store, fresh process) ===")
warm_engine = ExperimentEngine(cache_dir=cache_dir)
with ServiceThread(warm_engine) as handle:
    with handle.client() as client:
        again = client.compile_machine(flat, pattern="nested-switch",
                                       target="rt16")
assert again == result, "service answers must be reproducible"
assert warm_engine.stats.misses == 0, "warm service must not compile"
assert warm_engine.stats.disk_hits == 1
print("warm engine:", warm_engine.describe())
print("same request, zero compilation — served from", cache_dir)
