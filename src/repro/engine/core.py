"""The experiment engine: cached, batched, optionally parallel execution.

:class:`ExperimentEngine` is the one call surface every experiment and
benchmark goes through.  It wraps the :mod:`repro.pipeline` primitives
with

* a **content-addressed cache** (:mod:`repro.engine.cache`) keyed by a
  stable fingerprint of (serialized machine, pattern, opt level, target
  name, semantics config) — repeated work across patterns, sweeps and
  whole experiment reruns is computed once;
* a **batch planner** (:mod:`repro.engine.jobs`) that dedupes a job grid
  before execution and reassembles results in input order;
* a **worker pool** (``jobs=N``) running unique jobs on
  :class:`concurrent.futures.ThreadPoolExecutor`.  Results are
  deterministic by construction: the cache's in-flight futures guarantee
  one computation per key, and batches order results by input position,
  so serial and parallel runs produce byte-identical tables.  Note the
  compiles are pure-Python and GIL-bound, so with CPython ``jobs>1``
  buys overlap of the little I/O there is plus a standing concurrency
  soak of the cache, not a linear speedup — the big wins here are the
  cache and the dedup; the pool keeps the call surface ready for a
  process-based executor.

Engines are cheap; ``ExperimentEngine()`` gives an isolated cache (the
default of every harness function), while sharing one engine across
calls shares its cache — that is how the second run of the full
experiment suite becomes >90 % cache hits.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from ..compiler import CompileResult, DeltaStats, OptLevel
from ..compiler.target import TargetDescription, resolve_target
from ..obs.trace import span as _span
from ..optim import OptimizationReport, check_equivalence, optimize
from ..optim.equivalence import EquivalenceReport
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .backends import CacheBackend, backend_from_spec
from .cache import CacheStats, CompileCache
from .fingerprint import (compile_fingerprint, conformance_fingerprint,
                          equivalence_fingerprint, machine_fingerprint,
                          optimize_fingerprint)
from .jobs import BatchPlan, CompareJob, CompileJob, plan_batch

__all__ = ["EngineSpec", "ExperimentEngine"]

T = TypeVar("T")


@dataclass(frozen=True)
class EngineSpec:
    """Picklable recipe for an :class:`ExperimentEngine`.

    The compile cluster's worker processes cannot share a live engine
    (caches hold unpicklable in-flight futures and open stores), but
    they can share the *recipe*: each worker rebuilds its own engine
    from one spec, so every worker gets the same backend topology — in
    particular the same consistent-hash shard set under ``cache_dir``
    — which is what makes N per-process unit-tier caches behave as one
    coherent farm over the shared on-disk shards.

    Only spec *strings* are allowed for the backend (live
    :class:`~repro.engine.backends.CacheBackend` objects don't cross
    process boundaries).
    """

    jobs: int = 1
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    shards: int = 1
    max_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend is not None and not isinstance(self.backend, str):
            raise TypeError("EngineSpec.backend must be a spec string "
                            "(picklability is the point)")

    def build(self) -> "ExperimentEngine":
        """A fresh engine following this recipe (one per worker)."""
        return ExperimentEngine(jobs=self.jobs, backend=self.backend,
                                cache_dir=self.cache_dir,
                                shards=self.shards,
                                max_bytes=self.max_bytes)


class ExperimentEngine:
    """Cached, deduplicating, parallel executor of experiment jobs.

    ``jobs`` is the worker-pool width (1 = serial, the default);
    ``cache`` lets callers share one :class:`CompileCache` across
    engines (a fresh private cache otherwise).  Instead of a cache,
    callers may pass a ``backend`` (any
    :class:`~repro.engine.backends.CacheBackend`, or a spec string
    ``"memory"``/``"disk"``/``"tiered"``) and/or a ``cache_dir`` — a
    directory turns the cache persistent
    (:class:`~repro.store.ArtifactStore` under a tiered memory-over-disk
    backend by default), which is how a second process run of the same
    experiments is served warm from disk.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[CompileCache] = None,
                 backend: "Union[CacheBackend, str, None]" = None,
                 cache_dir: Optional[str] = None,
                 shards: int = 1,
                 max_bytes: Optional[int] = None) -> None:
        self.jobs = max(1, int(jobs))
        if cache is not None:
            if backend is not None or cache_dir is not None:
                raise ValueError(
                    "pass either cache= or backend=/cache_dir=, not both")
            self.cache = cache
        else:
            if backend is None or isinstance(backend, str):
                backend = backend_from_spec(backend, cache_dir=cache_dir,
                                            max_bytes=max_bytes,
                                            shards=shards)
            elif cache_dir is not None:
                raise ValueError(
                    "cache_dir= only applies to backend spec strings")
            self.cache = CompileCache(backend, name="module")
        #: Whole-module cache misses compile through this per-unit tier
        #: (:func:`repro.pipeline.compile_machine_delta`).  It shares the
        #: module cache's backend — unit fingerprints carry their own
        #: kind tag, so the key spaces never collide, and a persistent
        #: backend persists units too.
        self.units = CompileCache(getattr(self.cache, "backend", None),
                                  name="unit")
        self.delta_stats = DeltaStats()

    # -- cached primitives --------------------------------------------------

    def compile_machine(self, machine: StateMachine,
                        pattern: str = "nested-switch",
                        level: OptLevel = OptLevel.OS,
                        capture_dumps: bool = False,
                        target: Union[TargetDescription, str, None] = None,
                        semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                        ) -> CompileResult:
        """Cached :func:`repro.pipeline.compile_machine`.

        Module-cache misses route through the per-unit delta path
        (structure sharing: units whose lowered IR is unchanged come
        from the unit tier and only the rest recompile) unless
        ``capture_dumps`` asks for whole-program IR snapshots — those
        are inherently monolithic.  Both paths produce byte-identical
        modules.
        """
        from ..pipeline import compile_machine as _compile_machine
        from ..pipeline import compile_machine_delta
        key = compile_fingerprint(machine, pattern, level, target,
                                  semantics, capture_dumps)

        def compute() -> CompileResult:
            if capture_dumps:
                return _compile_machine(machine, pattern=pattern,
                                        level=level, capture_dumps=True,
                                        target=target)
            return compile_machine_delta(
                machine, pattern=pattern, level=level, target=target,
                unit_cache=self.units, stats_out=self.delta_stats)

        sp = _span("engine.compile")
        if sp.recording:
            sp.set(machine=machine.name, pattern=pattern, level=level.value)
        with sp:
            return self.cache.get_or_compute(key, compute)

    def optimize_model(self, machine: StateMachine,
                       selection: Optional[Sequence[str]] = None,
                       semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                       ) -> OptimizationReport:
        """Cached model-level optimization (:func:`repro.optim.optimize`).

        This is the shared sub-work of every comparison: one optimized
        model feeds all patterns, targets and levels of a grid.
        """
        key = optimize_fingerprint(machine, selection, semantics)
        return self.cache.get_or_compute(
            key, lambda: optimize(machine, selection=selection,
                                  semantics=semantics))

    def equivalence(self, original: StateMachine, optimized: StateMachine,
                    semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                    ) -> EquivalenceReport:
        """Cached behavioral-equivalence check."""
        key = equivalence_fingerprint(original, optimized, semantics)
        return self.cache.get_or_compute(
            key, lambda: check_equivalence(original, optimized,
                                           semantics=semantics))

    def vm_conformance(self, machine: StateMachine,
                       pattern: str = "nested-switch",
                       level: OptLevel = OptLevel.OS,
                       target: Union[TargetDescription, str, None] = None,
                       semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                       scenario_machine: Optional[StateMachine] = None,
                       exhaustive_depth: int = 2, n_random: int = 8,
                       random_length: int = 10, seed: int = 0xFACE):
        """Cached VM conformance check + dynamic metrics
        (:func:`repro.vm.check_vm_conformance`).

        One cached run serves both consumers: the conformance verdict
        and the simulated cycles/event that the dynamics experiments
        report.  ``scenario_machine`` selects whose alphabet generates
        the scenario set (default: *machine* itself) — pass the
        original machine when measuring its optimized clone, so both
        sides of a before/after comparison replay the *same* event
        sequences (the optimized machine must ignore events it
        dropped, exactly as :meth:`equivalence` exercises).
        """
        from ..vm.conformance import (check_vm_conformance,
                                      conformance_scenarios)
        source = scenario_machine if scenario_machine is not None \
            else machine
        params = {"exhaustive_depth": exhaustive_depth,
                  "n_random": n_random, "random_length": random_length,
                  "seed": seed,
                  "scenario_machine": machine_fingerprint(source)}
        key = conformance_fingerprint(machine, pattern, level, target,
                                      semantics, params)

        def compute():
            scenarios = conformance_scenarios(
                source, exhaustive_depth=exhaustive_depth,
                n_random=n_random, random_length=random_length, seed=seed)
            return check_vm_conformance(machine, pattern=pattern,
                                        level=level, target=target,
                                        semantics=semantics,
                                        scenarios=scenarios)

        return self.cache.get_or_compute(key, compute)

    def fleet_conformance(self, machine: StateMachine,
                          semantics: SemanticsConfig =
                          UML_DEFAULT_SEMANTICS,
                          wide_lanes: int = 64,
                          exhaustive_depth: int = 2, n_random: int = 8,
                          random_length: int = 10, seed: int = 0xFACE):
        """Cached fleet conformance check
        (:func:`repro.fleet.check_fleet_conformance`): the vectorized
        table engine against the reference interpreter on the same
        scenario construction :meth:`vm_conformance` uses."""
        from ..fleet.conformance import check_fleet_conformance
        from ..vm.conformance import conformance_scenarios
        from .fingerprint import fleet_conformance_fingerprint
        params = {"exhaustive_depth": exhaustive_depth,
                  "n_random": n_random, "random_length": random_length,
                  "seed": seed, "wide_lanes": wide_lanes}
        key = fleet_conformance_fingerprint(machine, semantics, params)

        def compute():
            scenarios = conformance_scenarios(
                machine, exhaustive_depth=exhaustive_depth,
                n_random=n_random, random_length=random_length, seed=seed)
            return check_fleet_conformance(machine, semantics=semantics,
                                           scenarios=scenarios,
                                           wide_lanes=wide_lanes)

        return self.cache.get_or_compute(key, compute)

    def tune(self, machine: StateMachine,
             target: Union[TargetDescription, str, None] = None,
             objective=None, profile=None,
             patterns: Optional[Sequence[str]] = None,
             levels: Optional[Sequence[OptLevel]] = None,
             semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS):
        """Cached autotuner search (:func:`repro.tune.run_search`).

        Two cache tiers cooperate: each cell's model optimization and
        VM measurement is independently cached (a warm engine re-tunes
        a machine without a single new simulation), and the finished
        :class:`~repro.tune.record.TuningRecord` is itself an artifact
        under a ``tune`` fingerprint — with a persistent ``cache_dir``
        the record survives the process and a warm rerun is one disk
        read.  Cells run on the engine's worker pool.
        """
        from ..codegen import ALL_PATTERNS
        from ..tune.record import EventProfile, ObjectiveWeights
        from ..tune.search import DEFAULT_LEVELS, run_search
        from .fingerprint import tune_fingerprint
        objective = objective if objective is not None \
            else ObjectiveWeights()
        profile = profile if profile is not None else EventProfile()
        pattern_names = list(patterns) if patterns is not None \
            else [gen_cls.name for gen_cls in ALL_PATTERNS]
        level_list = list(levels) if levels is not None \
            else list(DEFAULT_LEVELS)
        key = tune_fingerprint(machine, target, objective.key(),
                               profile.key(), pattern_names, level_list,
                               semantics)
        return self.cache.get_or_compute(
            key, lambda: run_search(self, machine, target=target,
                                    objective=objective, profile=profile,
                                    patterns=pattern_names,
                                    levels=level_list,
                                    semantics=semantics))

    # -- pipeline-level operations ------------------------------------------

    def run_pipeline(self, machine: StateMachine,
                     pattern: str = "nested-switch",
                     level: OptLevel = OptLevel.OS,
                     model_optimizations: Optional[Sequence[str]] = None,
                     optimize_model: bool = True,
                     semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                     target: Union[TargetDescription, str, None] = None,
                     ):
        """Cached equivalent of :func:`repro.pipeline.run_pipeline`."""
        from ..pipeline import PipelineResult
        report: Optional[OptimizationReport] = None
        source = machine
        if optimize_model:
            report = self.optimize_model(
                machine, selection=model_optimizations, semantics=semantics)
            source = report.optimized
        compile_result = self.compile_machine(
            source, pattern=pattern, level=level, target=target,
            semantics=semantics)
        return PipelineResult(machine=machine, pattern=pattern,
                              opt_level=level, model_report=report,
                              compile_result=compile_result)

    def optimize_and_compare(self, machine: StateMachine,
                             pattern: str = "nested-switch",
                             level: OptLevel = OptLevel.OS,
                             model_optimizations: Optional[Sequence[str]]
                             = None,
                             check_behavior: bool = True,
                             semantics: SemanticsConfig =
                             UML_DEFAULT_SEMANTICS,
                             target: Union[TargetDescription, str, None]
                             = None,
                             tuned: bool = False,
                             ):
        """Cached equivalent of :func:`repro.pipeline.optimize_and_compare`.

        The model optimization, both compiles and the equivalence check
        are cached independently, so a grid of comparisons shares its
        baseline compiles and optimized models across cells.

        ``tuned=True`` asks the autotuner first: pattern, level and
        pass selection are taken from the winning cell of
        :meth:`tune` for this machine/target (the explicit ``pattern``
        / ``level`` / ``model_optimizations`` arguments are ignored),
        so the comparison answers "what does the measured-best
        configuration save" instead of "what does this configuration
        save".  Raises :class:`repro.tune.TuningError` when no
        conformant configuration exists.
        """
        from ..pipeline import CompareResult
        tgt = resolve_target(target)
        if tuned:
            winner = self.tune(machine, target=tgt,
                               semantics=semantics).require_winner()
            pattern = winner.pattern
            level = OptLevel(winner.level)
            model_optimizations = list(winner.passes)
        report = self.optimize_model(machine,
                                     selection=model_optimizations,
                                     semantics=semantics)
        size_before = self.compile_machine(
            machine, pattern, level, target=tgt,
            semantics=semantics).total_size
        size_after = self.compile_machine(
            report.optimized, pattern, level, target=tgt,
            semantics=semantics).total_size
        if check_behavior:
            equivalence = self.equivalence(machine, report.optimized,
                                           semantics=semantics)
        else:
            equivalence = EquivalenceReport()
        return CompareResult(machine_name=machine.name, pattern=pattern,
                             size_before=size_before,
                             size_after=size_after,
                             model_report=report, equivalence=equivalence,
                             target_name=tgt.name)

    # -- batch execution ----------------------------------------------------

    def run_batch(self, jobs: Sequence[CompileJob]) -> List[CompileResult]:
        """Execute a grid of compile jobs; results in input order."""
        return self.run_batch_planned(jobs)[0]

    def run_batch_planned(self, jobs: Sequence[CompileJob]
                          ) -> "tuple[List[CompileResult], BatchPlan]":
        """Like :meth:`run_batch`, also returning the executed
        :class:`BatchPlan` (dedup counts etc.) — planning happens once."""
        return self._run_planned(jobs, self._run_compile_job)

    def compare_batch(self, jobs: Sequence[CompareJob]) -> List:
        """Execute a grid of comparison jobs; results in input order."""
        return self._run_planned(jobs, self._run_compare_job)[0]

    def _run_compile_job(self, job: CompileJob) -> CompileResult:
        return self.compile_machine(job.machine, pattern=job.pattern,
                                    level=job.level,
                                    capture_dumps=job.capture_dumps,
                                    target=job.target,
                                    semantics=job.semantics)

    def _run_compare_job(self, job: CompareJob):
        return self.optimize_and_compare(
            job.machine, pattern=job.pattern, level=job.level,
            model_optimizations=job.model_optimizations,
            check_behavior=job.check_behavior, semantics=job.semantics,
            target=job.target)

    def _run_planned(self, jobs: Sequence, run_one: Callable
                     ) -> "tuple[List, BatchPlan]":
        plan: BatchPlan = plan_batch(jobs)
        unique = list(plan.unique.items())
        values = self.map(lambda item: run_one(item[1]), unique)
        results: Dict[str, object] = {fp: value for (fp, _), value
                                      in zip(unique, values)}
        return plan.assemble(results), plan

    def map(self, fn: Callable[..., T], items: Sequence) -> List[T]:
        """Apply *fn* over *items* on the worker pool, preserving order."""
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(
                max_workers=min(self.jobs, len(items))) as pool:
            return list(pool.map(fn, items))

    # -- introspection ------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def unit_stats(self) -> CacheStats:
        """Lookup counters of the per-unit cache tier."""
        return self.units.stats

    def describe(self) -> str:
        backend = getattr(self.cache, "backend", None)
        backend_note = f", backend={backend.name}" if backend is not None \
            else ""
        unit = self.unit_stats
        return (f"engine(jobs={self.jobs}{backend_note}): "
                f"{self.stats.summary()}; units: {unit.hits} hits "
                f"({unit.disk_hits} disk) / {unit.misses} misses")
