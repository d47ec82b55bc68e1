"""Batch planner dedup and batch execution."""

import pytest

from repro.compiler import OptLevel
from repro.engine import (CompareJob, CompileJob, ExperimentEngine,
                          plan_batch)
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.workload import WorkloadSpec, generate_machine


class TestPlanBatch:
    def test_dedupes_identical_jobs(self):
        machine = hierarchical_machine_with_shadowed_composite()
        rebuilt = hierarchical_machine_with_shadowed_composite()
        jobs = [CompileJob(machine, "nested-switch"),
                CompileJob(machine, "state-table"),
                # distinct object, identical content -> same fingerprint
                CompileJob(rebuilt, "nested-switch")]
        plan = plan_batch(jobs)
        assert plan.n_jobs == 3
        assert plan.n_unique == 2
        assert plan.n_deduplicated == 1

    def test_keeps_input_order(self):
        machine = flat_machine_with_unreachable_state()
        jobs = [CompileJob(machine, "state-table"),
                CompileJob(machine, "nested-switch"),
                CompileJob(machine, "state-table")]
        plan = plan_batch(jobs)
        assert plan.order[0] == plan.order[2] != plan.order[1]

    def test_compare_jobs_fingerprint_components(self):
        machine = flat_machine_with_unreachable_state()
        base = CompareJob(machine).fingerprint()
        assert base == CompareJob(machine).fingerprint()
        assert base != CompareJob(machine, pattern="state-table"
                                  ).fingerprint()
        assert base != CompareJob(machine, check_behavior=False
                                  ).fingerprint()
        assert base != CompareJob(machine, target="rt16").fingerprint()
        assert base != CompareJob(
            machine, model_optimizations=["simplify-guards"]).fingerprint()


class TestBatchExecution:
    @pytest.fixture(scope="class")
    def grid(self):
        machines = [generate_machine(WorkloadSpec(n_live=3, n_dead=d))
                    for d in (0, 1, 2)]
        return [CompileJob(m, pattern, OptLevel.OS)
                for m in machines
                for pattern in ("nested-switch", "state-table")]

    def test_duplicates_share_one_result(self, grid):
        eng = ExperimentEngine()
        results = eng.run_batch(grid + grid)
        assert eng.stats.misses == len(grid)
        for first, second in zip(results[:len(grid)], results[len(grid):]):
            assert first is second

    def test_batch_equals_one_compile_per_job(self, grid):
        batch = ExperimentEngine().run_batch(grid)
        single = ExperimentEngine()
        one_by_one = [single.compile_machine(job.machine, job.pattern,
                                             job.level)
                      for job in grid]
        assert [r.module.listing() for r in batch] == \
            [r.module.listing() for r in one_by_one]
        assert [r.total_size for r in batch] == \
            [r.total_size for r in one_by_one]

    def test_compare_batch_equals_one_compare_per_job(self):
        machines = [generate_machine(WorkloadSpec(n_live=3, n_dead=d))
                    for d in (0, 2)]
        jobs = [CompareJob(m, pattern, check_behavior=False)
                for m in machines
                for pattern in ("nested-switch", "state-table")]
        batch = ExperimentEngine().compare_batch(jobs)
        single = ExperimentEngine()
        one_by_one = [single.optimize_and_compare(
            job.machine, pattern=job.pattern, check_behavior=False)
            for job in jobs]
        assert [c.summary() for c in batch] == \
            [c.summary() for c in one_by_one]

    def test_compare_batch_shares_optimized_model(self):
        """The unoptimized baseline's sibling — one optimize() feeds
        every pattern of the grid (the dedicated shared sub-work)."""
        machine = hierarchical_machine_with_shadowed_composite()
        eng = ExperimentEngine()
        eng.compare_batch([CompareJob(machine, p, check_behavior=False)
                           for p in ("nested-switch", "state-table",
                                     "state-pattern")])
        # 1 optimize + 6 compiles = 7 misses; 2 repeat optimize lookups.
        assert eng.stats.misses == 7
        assert eng.stats.hits == 2
