"""Fleet conformance: the packaged check."""

from repro.fleet import check_fleet_conformance
from repro.semantics.variation import (ConflictPolicy,
                                       UML_DEFAULT_SEMANTICS)


class TestCheckFleetConformance:
    def test_flat_machine_conformant(self, flat_machine):
        report = check_fleet_conformance(flat_machine, wide_lanes=16)
        assert report.conformant, report.summary()
        assert report.scenarios_run > 0
        assert report.wide_lanes == 16
        assert "conformant" in report.summary()

    def test_hierarchical_machine_conformant(self, hierarchical_machine):
        report = check_fleet_conformance(hierarchical_machine,
                                         wide_lanes=8)
        assert report.conformant, report.summary()
        # the Fig.1 machines are fully static: the wide runs vectorize
        assert report.fast_fraction == 1.0

    def test_unsupported_semantics_reported_not_raised(self, flat_machine):
        variant = UML_DEFAULT_SEMANTICS.with_(
            conflict_resolution=ConflictPolicy.OUTERMOST_FIRST)
        report = check_fleet_conformance(flat_machine, semantics=variant)
        assert not report.conformant
        assert report.unsupported is not None
        assert "fleet-unsupported" in report.summary()

    def test_explicit_scenarios_respected(self, flat_machine):
        report = check_fleet_conformance(flat_machine,
                                         scenarios=[("e1",), ("e1", "e4")])
        assert report.scenarios_run == 2
        assert report.conformant
