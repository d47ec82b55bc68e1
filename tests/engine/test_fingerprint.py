"""Fingerprint stability and key-component sensitivity."""

from repro.compiler import OptLevel
from repro.engine import (compile_fingerprint, equivalence_fingerprint,
                          machine_fingerprint, optimize_fingerprint)
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.experiments.workload import WorkloadSpec, generate_machine
from repro.semantics import SemanticsConfig
from repro.uml import clone_machine


def _fp(**overrides):
    defaults = dict(machine=hierarchical_machine_with_shadowed_composite(),
                    pattern="nested-switch", level=OptLevel.OS,
                    target=None, semantics=SemanticsConfig())
    defaults.update(overrides)
    return compile_fingerprint(**defaults)


class TestMachineFingerprint:
    def test_stable_across_rebuilds(self):
        a = hierarchical_machine_with_shadowed_composite()
        b = hierarchical_machine_with_shadowed_composite()
        assert a is not b
        assert machine_fingerprint(a) == machine_fingerprint(b)

    def test_stable_across_clone(self):
        machine = generate_machine(WorkloadSpec(n_live=4, n_dead=1))
        assert machine_fingerprint(machine) == \
            machine_fingerprint(clone_machine(machine))

    def test_different_machines_differ(self):
        assert machine_fingerprint(flat_machine_with_unreachable_state()) \
            != machine_fingerprint(
                hierarchical_machine_with_shadowed_composite())


class TestCompileFingerprint:
    def test_identical_jobs_collide(self):
        assert _fp() == _fp()

    def test_machine_content_changes_key(self):
        assert _fp() != _fp(
            machine=flat_machine_with_unreachable_state())

    def test_pattern_changes_key(self):
        assert _fp() != _fp(pattern="state-table")

    def test_level_changes_key(self):
        assert _fp() != _fp(level=OptLevel.O0)

    def test_target_changes_key(self):
        assert _fp(target="rt32") != _fp(target="rt16")

    def test_default_target_resolves_to_its_name(self):
        # None resolves to the default target's registered name.
        assert _fp(target=None) == _fp(target="rt32")

    def test_semantics_changes_key(self):
        assert _fp() != _fp(
            semantics=SemanticsConfig(completion_priority=False))


class TestOtherFingerprints:
    def test_optimize_selection_changes_key(self):
        machine = hierarchical_machine_with_shadowed_composite()
        default = optimize_fingerprint(machine, None)
        assert default != optimize_fingerprint(machine, ["simplify-guards"])
        assert default == optimize_fingerprint(machine, None)

    def test_optimize_semantics_changes_key(self):
        machine = hierarchical_machine_with_shadowed_composite()
        assert optimize_fingerprint(machine, None) != optimize_fingerprint(
            machine, None, SemanticsConfig(completion_priority=False))

    def test_equivalence_is_ordered(self):
        a = flat_machine_with_unreachable_state()
        b = hierarchical_machine_with_shadowed_composite()
        assert equivalence_fingerprint(a, b) != equivalence_fingerprint(b, a)
