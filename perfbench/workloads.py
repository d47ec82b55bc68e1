"""The four benchmark workloads.

Every workload is a closed loop driven through public ``repro`` entry
points only.  A workload object goes through three phases, each run in a
fresh Python process by :mod:`perfbench.child`:

* ``__init__(seed, scratch)`` is the set-up (inputs from the seed, store
  seeding, server spawn, table compile).  It is never timed by the ops.
* ``probe()`` runs a fixed, seed-determined amount of work and returns
  the *determinism digest*: code bytes, simulated VM cycles and events,
  cache hit and miss counts and pass-apply counts.  Two probes of one
  seed must return identical digests.
* ``run(seconds)`` is the timed window.  It returns the per-op latencies
  and keeps whatever :meth:`check` needs.  ``check()`` runs after the
  window and returns the number of failed ops.

``close()`` stops everything the set-up started.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import statistics
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro.codegen import ALL_PATTERNS, CodegenError, generator_by_name
from repro.compiler import OptLevel
from repro.engine import ExperimentEngine
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.obs.metrics import REGISTRY
from repro.pipeline import optimize_and_compare
from speed import SpeedGauge

PATTERNS = tuple(gen.name for gen in ALL_PATTERNS)


def registry_counts() -> Dict[str, float]:
    """Flat ``name{labels}`` -> value view of the counters the digest
    and the per-layer table read (read as deltas: the registry is
    process-wide)."""
    out: Dict[str, float] = {}
    for name in ("engine_cache_hits_total", "engine_cache_misses_total",
                 "vm_cycles_total", "vm_events_total"):
        metric = REGISTRY.get(name)
        if metric is None:
            continue
        for labels, value in metric.series().items():
            out[f"{name}{{{labels}}}"] = value
    return out


def counts_delta(before: Dict[str, float],
                 after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0.0) for key in sorted(after)
            if after[key] != before.get(key, 0.0)}


def registry_sum(delta: Dict[str, float], name: str, **labels: str) -> float:
    """Sum of the *name* series in *delta* whose labels include *labels*."""
    total = 0.0
    for key, value in delta.items():
        if not key.startswith(name + "{"):
            continue
        if all(f"{k}={v}" in key for k, v in labels.items()):
            total += value
    return total


def merge_counts(into: Dict[str, int], more: Dict[str, int]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + int(value)


#: The paper's configuration: nested switch, -Os, the 32-bit target.
PAPER_CONFIG = dict(pattern="nested-switch", level=OptLevel.OS,
                    target="rt32")


def fig1_machines() -> list:
    """The paper's two Fig. 1 machines."""
    return [flat_machine_with_unreachable_state(),
            hierarchical_machine_with_shadowed_composite()]


def optimized_quality(machines, digest: Dict[str, Any],
                      vm: bool = True) -> int:
    """Add the code bytes and pass counts (and, with *vm*, the simulated
    cycles and events) of each machine after model optimization, under
    :data:`PAPER_CONFIG`, into *digest*; returns how many compiled
    machines did not conform to the interpreter.  The VM replays the
    original machine's scenarios, as the dynamics table does."""
    engine = ExperimentEngine()
    nonconformant = 0
    for machine in machines:
        result = engine.run_pipeline(machine, **PAPER_CONFIG)
        digest["code_bytes"] += result.total_size
        merge_counts(digest["passes"], result.compile_result.pass_stats)
        if not vm:
            continue
        report = engine.vm_conformance(result.model_report.optimized,
                                       scenario_machine=machine,
                                       **PAPER_CONFIG)
        digest["vm_cycles"] += report.cycles - report.init_cycles
        digest["vm_events"] += report.events_dispatched
        nonconformant += 0 if report.conformant else 1
    return nonconformant


class Workload:
    """Common shape; see the module docstring."""

    name = ""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.op_failures = 0
        #: kernel timings taken beside the timed ops (see speed.py)
        self.gauge = SpeedGauge()

    def probe(self) -> Dict[str, Any]:          # pragma: no cover
        raise NotImplementedError

    def run(self, seconds: float) -> List[float]:   # pragma: no cover
        raise NotImplementedError

    def check(self) -> int:
        """Failed ops found by checking outputs after the window."""
        return 0

    def ops_per_s(self, latencies: List[float], elapsed: float) -> float:
        """One closed-loop caller: ops over the time spent in them."""
        return len(latencies) / sum(latencies)

    def layer_extras(self) -> Dict[str, float]:
        """Workload-specific per-layer readings (traced run only)."""
        return {}

    def close(self) -> None:
        pass


def rate_by_kind(latencies: List[float], kinds: int) -> float:
    """Ops per second of a loop whose op ``i`` repeats input
    ``i % kinds``: one pass, from each input's median latency, so a
    burst of host contention moves one sample of a median, not the rate.
    (Latency percentiles stay over every op: with few inputs, a
    percentile of per-input medians jumps between two inputs' values.)"""
    if len(latencies) < kinds:            # the window ended mid-pass
        return len(latencies) / sum(latencies)
    return kinds / sum(statistics.median(latencies[kind::kinds])
                       for kind in range(kinds))


def closed_loop(seconds: float, op, gauge: SpeedGauge
                ) -> Tuple[List[float], float]:
    """Call ``op(i)`` back to back until *seconds* have elapsed, with a
    host-speed sample before each op; returns per-op latencies and the
    elapsed window."""
    latencies: List[float] = []
    clock = time.perf_counter
    start = clock()
    index = 0
    while clock() - start < seconds:
        gauge.sample()
        began = clock()
        op(index)
        latencies.append(clock() - began)
        index += 1
    return latencies, clock() - start


# ---------------------------------------------------------------------------
# compare: the paper's experiment
# ---------------------------------------------------------------------------

#: (n_live, n_dead, n_shadowed_composites, guarded_fraction).  Fixed so
#: that every seed gets the same mix of removable structure and the same
#: alphabet sizes (hence scenario counts); the seed varies the graph.
COMPARE_FAMILY = ((3, 1, 0, 0.0), (4, 2, 1, 0.25), (5, 1, 1, 0.5),
                  (4, 0, 2, 0.25), (6, 4, 0, 0.0), (8, 2, 1, 0.25),
                  (7, 3, 0, 0.5), (3, 0, 2, 0.0))


class CompareWorkload(Workload):
    """Each op is one ``optimize_and_compare`` on a fresh engine, cycling
    through the two Fig. 1 machines and a seeded family."""

    name = "compare"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        rng = random.Random(seed)
        family = [generate_machine(WorkloadSpec(
            n_live=n_live, n_dead=n_dead, n_shadowed_composites=n_comp,
            guarded_fraction=guarded, seed=rng.getrandbits(32),
            name=f"Fam{index}"))
            for index, (n_live, n_dead, n_comp, guarded)
            in enumerate(COMPARE_FAMILY)]
        self.machines = fig1_machines() + family
        rng.shuffle(self.machines)
        self.results: List[Any] = []

    def _op(self, index: int, engine: Optional[ExperimentEngine] = None):
        machine = self.machines[index % len(self.machines)]
        engine = engine if engine is not None else ExperimentEngine()
        self.attempted += 1
        try:
            result = optimize_and_compare(machine, engine=engine,
                                          **PAPER_CONFIG)
        except Exception as exc:           # a crash is a failed op
            print(f"compare: {machine.name}: {exc!r}", file=sys.stderr)
            self.op_failures += 1
            return None
        self.results.append(result)
        return result

    def probe(self) -> Dict[str, Any]:
        """One pass: cache counts of each comparison, then code bytes,
        pass counts and VM cycles of each machine after optimization."""
        digest = {"code_bytes": 0, "vm_cycles": 0, "vm_events": 0,
                  "cache": {}, "passes": {}}
        for index in range(len(self.machines)):
            engine = ExperimentEngine()
            if self._op(index, engine) is None:
                continue
            snap = engine.stats.snapshot()
            units = engine.unit_stats.snapshot()
            merge_counts(digest["cache"], {
                "module_hits": snap["hits"], "module_misses": snap["misses"],
                "unit_hits": units["hits"], "unit_misses": units["misses"]})
        self.op_failures += optimized_quality(self.machines, digest)
        return digest

    def run(self, seconds: float) -> List[float]:
        self.results = []
        latencies, self.elapsed = closed_loop(seconds, self._op, self.gauge)
        return latencies

    def ops_per_s(self, latencies: List[float], elapsed: float) -> float:
        return rate_by_kind(latencies, len(self.machines))

    def check(self) -> int:
        return sum(1 for result in self.results
                   if not result.equivalence.equivalent)


# ---------------------------------------------------------------------------
# fuzz: differential fuzzing, compiler-dominated
# ---------------------------------------------------------------------------

FUZZ_LEVELS = ("-O0", "-Os")
#: The cases are fixed; the seed orders them.  With seeded cases, the
#: heavy-tailed cost of a case moved p90 latency and cycles/event by a
#: quarter between seeds.
FUZZ_POOL_SEED = 0xF022


class FuzzWorkload(Workload):
    """Each op is one fuzz case, ``FuzzRunner(profiles=(profile,),
    config=...).run(1, seed)``: generate, the interpreter, the model-opt
    clone, the VM over pattern x {-O0, -Os} x {rt32, rt16}, and the
    fleet.

    The pool holds one case for every (profile, pattern) pair, in seeded
    order; ops cycle through it, and every pass starts on a fresh engine
    so that it redoes the same work.  The coverage-guided scheduler of
    one long ``run`` would let each seed's early coverage pick the
    profile mix, which alone moved throughput by a third between seeds.
    Two levels instead of four halve the cost of a case, so a 10 s
    window judges about 75 cases."""

    name = "fuzz"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        from repro.fuzz import DEFAULT_PROFILES, FuzzRunner, OracleConfig
        self.runner_cls = FuzzRunner
        case_seeds = random.Random(FUZZ_POOL_SEED)
        self.pool = [(profile, OracleConfig(patterns=(pattern,),
                                            levels=FUZZ_LEVELS),
                      case_seeds.getrandbits(32))
                     for pattern in PATTERNS for profile in DEFAULT_PROFILES]
        random.Random(seed).shuffle(self.pool)
        self.engine = ExperimentEngine()
        self.stats: Dict[str, int] = {}

    def _op(self, index: int) -> None:
        if index and index % len(self.pool) == 0:
            self.engine = ExperimentEngine()
        profile, config, case_seed = self.pool[index % len(self.pool)]
        runner = self.runner_cls(engine=self.engine, config=config,
                                 profiles=(profile,))
        self.attempted += 1
        try:
            report = runner.run(1, seed=case_seed)
        except Exception as exc:           # a crash is a failed case
            print(f"fuzz: case {index} crashed: {exc!r}", file=sys.stderr)
            self.op_failures += 1
            return
        merge_counts(self.stats, {
            key: getattr(report.stats, key) for key in (
                "executed", "rejected", "diverged", "executors_run",
                "cells_skipped")})

    def probe(self) -> Dict[str, Any]:
        """One pass over the pool."""
        before = registry_counts()
        for index in range(len(self.pool)):
            self._op(index)
        delta = counts_delta(before, registry_counts())
        self.op_failures += self.stats.get("diverged", 0)
        digest = {
            "vm_cycles": registry_sum(delta, "vm_cycles_total"),
            "vm_events": registry_sum(delta, "vm_events_total"),
            "cache": {key: value for key, value in delta.items()
                      if key.startswith("engine_cache")},
            "stats": dict(self.stats),
        }
        # Random machines' code sizes are too heavy-tailed to compare
        # across seeds; code bytes come from the Fig. 1 pair.
        reference = {"code_bytes": 0, "passes": {}}
        self.op_failures += optimized_quality(fig1_machines(), reference,
                                              vm=False)
        digest.update(reference)
        return digest

    def run(self, seconds: float) -> List[float]:
        latencies, self.elapsed = closed_loop(seconds, self._op, self.gauge)
        return latencies

    def ops_per_s(self, latencies: List[float], elapsed: float) -> float:
        return rate_by_kind(latencies, len(self.pool))

    def check(self) -> int:
        return self.stats.get("diverged", 0)

    def layer_extras(self) -> Dict[str, float]:
        return {"fuzz.executors_run": self.stats.get("executors_run", 0),
                "fuzz.cells_skipped": self.stats.get("cells_skipped", 0)}


# ---------------------------------------------------------------------------
# serve: the compile cluster over the wire, store reads beside writes
# ---------------------------------------------------------------------------

SERVE_BATCH = 4
SERVE_CLIENTS = 2
SERVE_PROBE_BATCHES = 6
#: Set-up and the output check each use both cores of the reference
#: machine (nproc = 2).
SERVE_HELPERS = 2
SERVE_GAUGE_PERIOD_S = 0.05
#: One fixed job mix: the seed orders it and picks the seeded half, so
#: every seed's window serves nearly the same work.
SERVE_CORPUS_SEED = 20260808


def _params_key(params: Dict[str, Any]) -> str:
    return json.dumps(params, sort_keys=True)


def _helper_pool() -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=SERVE_HELPERS,
                               mp_context=multiprocessing.get_context(
                                   "spawn"))


def _seed_store(store_dir: str, keys: List[str]) -> int:
    """Compile the jobs *keys* name into the store (a set-up helper
    process); returns their total code bytes."""
    from repro.service.protocol import job_from_params
    engine = ExperimentEngine(cache_dir=store_dir, shards=2)
    total = 0
    for key in keys:
        job = job_from_params(json.loads(key))
        total += engine.compile_machine(
            job.machine, pattern=job.pattern, level=job.level,
            target=job.target, semantics=job.semantics).total_size
    return total


def _verify(store_dir: str, items: List[Tuple[int, Dict[str, Any],
                                              Dict[str, Any], bool]]
            ) -> List[int]:
    """Batch indices whose served payload differs from a local reference
    engine (a check helper process).  A seeded job's reference is the
    entry set-up compiled into the store; every other job is compiled
    afresh, never read back from what the server wrote."""
    from repro.service.loadgen import verify_payloads
    stored = ExperimentEngine(cache_dir=store_dir, shards=2)
    fresh = ExperimentEngine()
    return [index for index, params, payload, seeded in items
            if verify_payloads([params], [payload],
                               engine=stored if seeded else fresh)]


class ServeWorkload(Workload):
    """Each op is one batch of 4 compile jobs sent by one of 2 client
    threads to a ``ServiceThread(workers=1, shards=2)`` whose store was
    seeded with a seeded half of the corpus."""

    name = "serve"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        from repro.service.loadgen import LoadgenSpec, build_corpus
        from repro.service.protocol import job_from_params
        from repro.service.server import ServiceThread
        spec = LoadgenSpec(machines=8, mutants=3, fuzz_machines=100,
                           patterns=PATTERNS,
                           levels=("-O0", "-O1", "-O2", "-Os"),
                           targets=(None, "rt16"), duplicate_fraction=0.15,
                           asm_fraction=0.1, seed=SERVE_CORPUS_SEED)
        # Screen by generation only: a pattern that rejects a machine
        # does so in codegen, so no job is compiled twice in set-up.
        corpus = []
        for params in build_corpus(spec, screen=False):
            job = job_from_params(params)
            try:
                generator_by_name(job.pattern).generate(job.machine)
            except CodegenError:
                continue
            corpus.append(params)
        random.Random(seed).shuffle(corpus)
        self.corpus = corpus
        # Every other distinct job in corpus order, so any prefix the
        # window reaches is half disk-served.
        unique = list(dict.fromkeys(_params_key(p) for p in corpus))
        self.seeded = set(unique[::2])
        self.store_dir = os.path.join(scratch, "store")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        # Seed the store through engines with the server's topology.
        keys = sorted(self.seeded)
        with _helper_pool() as pool:
            self.seeded_code_bytes = sum(pool.map(
                _seed_store, [self.store_dir] * SERVE_HELPERS,
                [keys[n::SERVE_HELPERS] for n in range(SERVE_HELPERS)]))
        self.handle = ServiceThread(workers=1, shards=2,
                                    cache_dir=self.store_dir,
                                    host="127.0.0.1", port=0)
        self.handle.start()
        self.handle.wait_workers_ready()
        self.batches = [corpus[start:start + SERVE_BATCH]
                        for start in range(0, len(corpus), SERVE_BATCH)]
        self.served: Dict[int, List[Dict[str, Any]]] = {}
        self.errors: Dict[int, str] = {}

    def _metrics(self) -> Dict[str, Any]:
        with self.handle.client() as client:
            return client.metrics()

    def probe(self) -> Dict[str, Any]:
        digest: Dict[str, Any] = {"code_bytes": self.seeded_code_bytes,
                                  "passes": {}, "served_bytes": 0}
        with self.handle.client() as client:
            for index in range(min(SERVE_PROBE_BATCHES, len(self.batches))):
                self.attempted += 1
                for payload in client.submit_batch(self.batches[index]):
                    digest["served_bytes"] += payload["total_size"]
                    merge_counts(digest["passes"], payload["pass_stats"])
        cache = self._metrics()["cache"]
        digest["cache"] = {key: cache.get(key, 0) for key in (
            "hits", "misses", "disk_hits", "unit_hits", "unit_misses",
            "unit_disk_hits", "reused_units", "compiled_units")}
        # Served code is never executed: simulated cycles come from the
        # Fig. 1 pair.
        reference = {"code_bytes": 0, "passes": {}, "vm_cycles": 0,
                     "vm_events": 0}
        self.op_failures += optimized_quality(fig1_machines(), reference)
        digest["vm_cycles"] = reference["vm_cycles"]
        digest["vm_events"] = reference["vm_events"]
        return digest

    def run(self, seconds: float) -> List[float]:
        lock = threading.Lock()
        next_batch = [0]
        latencies: List[float] = []
        clock = time.perf_counter
        ends: List[float] = []
        self.metrics_before = self._metrics()
        start = clock()

        def drive() -> None:
            with self.handle.client() as client:
                while clock() - start < seconds:
                    with lock:
                        index = next_batch[0]
                        if index >= len(self.batches):
                            break
                        next_batch[0] += 1
                    began = clock()
                    try:
                        payloads = client.submit_batch(self.batches[index])
                    except Exception as exc:     # error reply: op failed
                        payloads = None
                        self.errors[index] = repr(exc)
                    elapsed = clock() - began
                    with lock:
                        latencies.append(elapsed)
                        if payloads is not None:
                            self.served[index] = payloads
            ends.append(clock())

        threads = [threading.Thread(target=drive, name=f"bench-client-{n}")
                   for n in range(SERVE_CLIENTS)]
        for thread in threads:
            thread.start()
        # Compiles run in the worker process; this otherwise idle thread
        # gauges the host all through the window (the median shrugs off
        # the samples a busy event-loop thread stretches).
        while any(thread.is_alive() for thread in threads):
            self.gauge.sample()
            time.sleep(SERVE_GAUGE_PERIOD_S)
        for thread in threads:
            thread.join()
        self.elapsed = max(ends) - start
        self.metrics_after = self._metrics()
        self.attempted += len(latencies)
        return latencies

    def ops_per_s(self, latencies: List[float], elapsed: float) -> float:
        return len(latencies) / elapsed        # two concurrent clients

    def check(self) -> int:
        items = [(index, params, payload, _params_key(params) in self.seeded)
                 for index, payloads in sorted(self.served.items())
                 for params, payload in zip(self.batches[index], payloads)]
        failed = set(self.errors)
        with _helper_pool() as pool:
            for indices in pool.map(
                    _verify, [self.store_dir] * SERVE_HELPERS,
                    [items[n::SERVE_HELPERS] for n in range(SERVE_HELPERS)]):
                failed.update(indices)
        return len(failed)

    def layer_extras(self) -> Dict[str, float]:
        before, after = self.metrics_before, self.metrics_after
        cache = {key: after["cache"].get(key, 0) - before["cache"].get(key, 0)
                 for key in after["cache"]
                 if isinstance(after["cache"].get(key), (int, float))}

        def batch_seconds(doc) -> float:
            series = doc["registry"].get("service_request_seconds", {})
            return sum(entry.get("sum") or 0.0 for label, entry in
                       series.get("series", {}).items() if "batch" in label)

        return {
            "service.server_s": batch_seconds(after) - batch_seconds(before),
            "service.queue_high_water": after["queue"]["high_water"],
            "service.busy_rejections": after["queue"]["busy_rejections"]
            - before["queue"]["busy_rejections"],
            "service.worker_utilization":
                after["workers"].get("utilization") or 0.0,
            "worker.module_hits": cache.get("hits", 0),
            "worker.module_misses": cache.get("misses", 0),
            "worker.disk_hits": cache.get("disk_hits", 0),
            "worker.unit_hits": cache.get("unit_hits", 0),
            "worker.unit_misses": cache.get("unit_misses", 0),
            "worker.reused_units": cache.get("reused_units", 0),
            "worker.compiled_units": cache.get("compiled_units", 0),
        }

    def close(self) -> None:
        self.handle.stop()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
            if child.is_alive():
                child.terminate()
                child.join(timeout=10)
        shutil.rmtree(self.store_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# fleet: vectorized dispatch at scale
# ---------------------------------------------------------------------------

#: (n_live, n_dead, n_shadowed_composites, guarded_fraction, entry_calls)
FLEET_MACHINES = 2 * ((8, 2, 1, 0.25, 2), (6, 1, 0, 0.5, 3),
                  (10, 0, 2, 0.25, 1), (5, 3, 1, 0.75, 2))
FLEET_LANES = 10_000
FLEET_SHARDS = 2
FLEET_BATCH = 32
FLEET_PROBE_BATCHES = 20
FLEET_SAMPLE_LANES = 8
FLEET_SLICES = 5
#: The machines are fixed; the seed draws the stream.  Seeded wiring let
#: the share of guarded transitions the stream hits, and with it the
#: throughput, swing by a quarter between seeds.
FLEET_MACHINE_SEED = 0xF1EE7


def _terminating_events(machine) -> set:
    """Event names that move the top region into its final state."""
    finals = set(id(v) for v in machine.top.final_states())
    return {event.name for t in machine.all_transitions()
            if id(t.target) in finals for event in t.triggers}


class FleetWorkload(Workload):
    """A ``FleetHarness`` broadcasts one seeded stream to 10^4 lanes of
    eight fixed generated machines.  Each op is one batch of 32 stream
    events, which flushes every shard queue once."""

    name = "fleet"

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        from repro.fleet.harness import FleetHarness
        from repro.fleet.table import compile_table
        rng = random.Random(FLEET_MACHINE_SEED)
        self.machines = [generate_machine(WorkloadSpec(
            n_live=n_live, n_dead=n_dead, n_shadowed_composites=n_comp,
            guarded_fraction=guarded, entry_calls=entry,
            seed=rng.getrandbits(32), name=f"Fleet{index}"))
            for index, (n_live, n_dead, n_comp, guarded, entry)
            in enumerate(FLEET_MACHINES)]
        self.tables = [compile_table(machine) for machine in self.machines]
        per_machine = FLEET_LANES // len(self.machines)
        self.per_machine = per_machine
        self.harness = FleetHarness(
            [(table, per_machine) for table in self.tables],
            n_shards=FLEET_SHARDS, batch_size=FLEET_BATCH,
            routing="broadcast")
        self.harness.start()
        # Lanes never reach final: a finished lane would turn the rest
        # of the run into no-op dispatches.
        stopping = set().union(*map(_terminating_events, self.machines))
        self.alphabet = sorted({event.name for machine in self.machines
                                for event in machine.signal_alphabet()}
                               - stopping)
        self.stream_rng = random.Random(seed)
        self.stream: List[str] = []

    def _op(self, _index: int) -> None:
        batch = [self.stream_rng.choice(self.alphabet)
                 for _ in range(FLEET_BATCH)]
        self.stream.extend(batch)
        self.attempted += 1
        for event in batch:
            self.harness.route(event)

    def _lane_events(self) -> int:
        return self.harness.run([]).lane_events

    def probe(self) -> Dict[str, Any]:
        before = registry_counts()
        for index in range(FLEET_PROBE_BATCHES):
            self._op(index)
        report = self.harness.run([])
        digest: Dict[str, Any] = {
            "lane_events": report.lane_events, "fired": report.fired,
            "finals": self.harness.finals(), "code_bytes": 0,
            "passes": {}, "vm_cycles": 0, "vm_events": 0}
        # What the paper's pipeline emits for the fleet's machines.
        self.op_failures += optimized_quality(self.machines, digest)
        digest["cache"] = {key: value for key, value in counts_delta(
            before, registry_counts()).items()
            if key.startswith("engine_cache")}
        return digest

    def run(self, seconds: float) -> List[float]:
        start_events = self._lane_events()
        latencies, self.elapsed = closed_loop(seconds, self._op, self.gauge)
        report = self.harness.run([])
        self.lane_events = report.lane_events - start_events
        self.fast_frac = (sum(s.fast_fraction * s.lane_events
                              for s in report.shards)
                          / max(1, report.lane_events))
        return latencies

    def ops_per_s(self, latencies: List[float], elapsed: float) -> float:
        """Lane-events per second: the median over consecutive slices of
        the run, so a burst of host contention moves one slice."""
        per_op = self.lane_events / len(latencies)
        size = len(latencies) // FLEET_SLICES
        if size == 0:
            return self.lane_events / elapsed
        return statistics.median(
            per_op * size / sum(latencies[start:start + size])
            for start in range(0, size * FLEET_SLICES, size))

    def check(self) -> int:
        """Replay the delivered stream on the interpreter (one instance
        per machine; every broadcast lane of a machine sees the same
        stream) and on a check fleet as wide as one shard's; a seeded
        sample of its lanes must match the interpreter, and the
        harness's final-lane count must agree.  Interpreter time covers
        dispatches only."""
        from repro.fleet.engine import Fleet
        from repro.semantics.runtime import MachineInstance
        rng = random.Random(self.seed ^ 0xC4EC)
        width = self.per_machine // FLEET_SHARDS
        failed = 0
        expected_finals = 0
        self.interp_dispatch_s = 0.0
        for machine, table in zip(self.machines, self.tables):
            instance = MachineInstance(machine)
            instance.start()
            began = time.perf_counter()
            for event in self.stream:
                instance.dispatch(event)
            self.interp_dispatch_s += time.perf_counter() - began
            fleet = Fleet(table, width)
            fleet.start()
            for event in self.stream:
                fleet.dispatch_all(event)
            expected_finals += self.per_machine if instance.in_final else 0
            for lane in rng.sample(range(width), FLEET_SAMPLE_LANES):
                if (fleet.active_states(lane) != instance.active_states
                        or fleet.attributes_of(lane) != instance.attributes
                        or fleet.lane_in_final(lane) != instance.in_final):
                    failed += 1
                    break
        if self.harness.finals() != expected_finals:
            failed += 1
        self.interp_events = len(self.stream) * len(self.machines)
        return failed

    def layer_extras(self) -> Dict[str, float]:
        interp_rate = self.interp_events / self.interp_dispatch_s \
            if self.interp_dispatch_s else 0.0
        fleet_rate = self.lane_events / self.elapsed
        return {"fleet.lane_events": self.lane_events,
                "fleet.fast_frac": self.fast_frac,
                "fleet.speedup_vs_interp":
                    fleet_rate / interp_rate if interp_rate else 0.0}


WORKLOADS = {cls.name: cls for cls in (CompareWorkload, FuzzWorkload,
                                       ServeWorkload, FleetWorkload)}
