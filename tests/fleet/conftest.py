"""Fixtures shared by the fleet tests: perfbench's ``fleet`` machines."""

import random

import pytest

from repro.experiments.workload import WorkloadSpec, generate_machine

#: (n_live, n_dead, n_shadowed_composites, guarded_fraction,
#: entry_calls): the machine shapes of perfbench's ``fleet`` workload.
FLEET_FAMILY = ((8, 2, 1, 0.25, 2), (6, 1, 0, 0.5, 3),
                (10, 0, 2, 0.25, 1), (5, 3, 1, 0.75, 2))


@pytest.fixture(scope="session")
def fleet_family():
    """Three seeded machines of each shape of perfbench's ``fleet``
    workload (guard_var > 0 guards and call-only effects)."""
    rng = random.Random(0xF1EE7)
    return [generate_machine(WorkloadSpec(
        n_live=n_live, n_dead=n_dead, n_shadowed_composites=n_comp,
        guarded_fraction=guarded, entry_calls=entry,
        seed=rng.getrandbits(32)))
        for n_live, n_dead, n_comp, guarded, entry in 3 * FLEET_FAMILY]
