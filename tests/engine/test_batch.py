"""The engine's cache is the one deduplicator of experiment grids.

The harnesses call ``compile_machine`` and ``optimize_and_compare`` in
plain loops; these tests pin what the cache promises such a loop: one
miss per unique job, the same result object for a repeat, and a hit
for a rebuilt machine with identical content.
"""

import pytest

from repro.compiler import OptLevel
from repro.engine import ExperimentEngine
from repro.experiments.models import (
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.workload import WorkloadSpec, generate_machine


class TestGridSharing:
    @pytest.fixture(scope="class")
    def grid(self):
        machines = [generate_machine(WorkloadSpec(n_live=3, n_dead=d))
                    for d in (0, 1, 2)]
        return [(m, pattern) for m in machines
                for pattern in ("nested-switch", "state-table")]

    def test_dedupes_identical_jobs(self):
        eng = ExperimentEngine()
        # distinct object, identical content -> same fingerprint
        first = eng.compile_machine(
            hierarchical_machine_with_shadowed_composite(), "nested-switch")
        again = eng.compile_machine(
            hierarchical_machine_with_shadowed_composite(), "nested-switch")
        assert again is first
        assert (eng.stats.hits, eng.stats.misses) == (1, 1)

    def test_duplicates_share_one_result(self, grid):
        eng = ExperimentEngine()
        first = [eng.compile_machine(m, pattern, OptLevel.OS)
                 for m, pattern in grid]
        second = [eng.compile_machine(m, pattern, OptLevel.OS)
                  for m, pattern in grid]
        assert eng.stats.misses == len(grid)
        assert eng.stats.hits == len(grid)
        for a, b in zip(first, second):
            assert a is b

    def test_compare_grid_shares_optimized_model(self):
        """The unoptimized baseline's sibling — one optimize() feeds
        every pattern of the grid (the dedicated shared sub-work)."""
        machine = hierarchical_machine_with_shadowed_composite()
        eng = ExperimentEngine()
        for pattern in ("nested-switch", "state-table", "state-pattern"):
            eng.optimize_and_compare(machine, pattern,
                                     check_behavior=False)
        # 1 optimize + 6 compiles = 7 misses; 2 repeat optimize lookups.
        assert eng.stats.misses == 7
        assert eng.stats.hits == 2
