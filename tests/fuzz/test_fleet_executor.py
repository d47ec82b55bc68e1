"""The fleet as the oracle's fourth executor."""

import pytest

from repro.exec import (UNSUPPORTED_PREFIX, FleetExecutor,
                        InterpreterExecutor, observe)
from repro.fuzz.case import FuzzCase, Stimulus
from repro.fuzz.oracle import (FLEET_EXECUTOR, DifferentialOracle,
                               OracleConfig)
from repro.semantics.variation import (ConflictPolicy,
                                       UML_DEFAULT_SEMANTICS)
from repro.uml import StateMachineBuilder


def _case(machine, *events):
    return FuzzCase(machine=machine,
                    stimuli=(Stimulus(tuple((e, 0) for e in events)),))


class TestFleetObservations:
    def test_agrees_with_interpreter(self, flat_machine):
        stimuli = [[("e1", 0), ("e4", 0)], [("e3", 0)]]
        fleet = observe(FleetExecutor(), flat_machine, stimuli)
        interp = observe(InterpreterExecutor(), flat_machine, stimuli)
        assert len(fleet) == len(interp) == 2
        for f, i in zip(fleet, interp):
            assert i.matches(f), i.first_difference(f)

    def test_unsupported_shape_marked_not_raised(self, flat_machine):
        variant = UML_DEFAULT_SEMANTICS.with_(
            conflict_resolution=ConflictPolicy.OUTERMOST_FIRST)
        observations = observe(FleetExecutor(variant), flat_machine,
                               [[("e1", 0)]])
        assert all(o.unsupported for o in observations)
        assert observations[0].error.startswith(UNSUPPORTED_PREFIX)


@pytest.mark.fuzz
class TestFleetInOracle:
    def test_fleet_runs_by_default_and_agrees(self, memory_engine,
                                              flat_machine):
        oracle = DifferentialOracle(
            engine=memory_engine,
            config=OracleConfig(patterns=("flat-switch",),
                                targets=("rt32",), levels=("-Os",),
                                check_optimized=False))
        result = oracle.run_case(_case(flat_machine, "e1", "e3", "e4"))
        assert result.ok, result.summary()
        assert result.executors_run == 2   # fleet + 1 VM cell

    def test_check_fleet_false_excludes_it(self, memory_engine,
                                           flat_machine):
        oracle = DifferentialOracle(
            engine=memory_engine,
            config=OracleConfig(patterns=("flat-switch",),
                                targets=("rt32",), levels=("-Os",),
                                check_optimized=False,
                                check_fleet=False))
        result = oracle.run_case(_case(flat_machine, "e1"))
        assert result.executors_run == 1

    def test_narrowed_to_fleet_reruns_only_fleet(self, memory_engine,
                                                 flat_machine):
        config = OracleConfig(patterns=("flat-switch",),
                              targets=("rt32",), levels=("-Os",))
        narrowed = config.narrowed_to([FLEET_EXECUTOR])
        assert narrowed.check_fleet
        assert not narrowed.check_optimized
        assert narrowed.cells() == []
        oracle = DifferentialOracle(engine=memory_engine, config=narrowed)
        result = oracle.run_case(_case(flat_machine, "e1", "e4"))
        assert result.ok
        assert result.executors_run == 1


class TestConfigRoundTrip:
    def test_to_dict_carries_check_fleet(self):
        config = OracleConfig(check_fleet=True)
        assert OracleConfig.from_dict(config.to_dict()).check_fleet

    def test_from_dict_defaults_false_for_old_fixtures(self):
        # A corpus entry recorded before the fleet existed must replay
        # with its exact original executor set.
        data = OracleConfig().to_dict()
        del data["check_fleet"]
        assert OracleConfig.from_dict(data).check_fleet is False
