"""Every executor agrees on two shapes at the edge of the subset.

* **Do-activities** run to their end right after the state's entry
  behavior, in the interpreter, in the fleet and in all four generated
  patterns.
* **A composite whose region has no initial pseudostate** is never
  entered below its own level and never completes.  The interpreter
  and the fleet run it; every pattern declines it with
  :class:`~repro.codegen.CodegenError`, which the differential runner
  reports as ``unsupported:`` (a documented feature gap, not wrong
  code).
* **A wildcard trigger** (``AnyEvent``, ``*``) fires on any event in
  the interpreter and in the fleet; every pattern declines it the same
  way, and the fuzz oracle counts each pattern cell as skipped.
"""

import pytest

from repro.codegen import ALL_PATTERNS, CodegenError, generator_by_name
from repro.compiler import OptLevel
from repro.exec import InterpreterExecutor, VMExecutor, observe
from repro.exec.runner import UNSUPPORTED_PREFIX
from repro.fleet import check_fleet_conformance
from repro.fuzz import DifferentialOracle, FuzzCase, OracleConfig, Stimulus
from repro.uml import AnyEvent, StateMachineBuilder, calls
from repro.vm import check_vm_conformance, conformance_scenarios

PATTERNS = [g.name for g in ALL_PATTERNS]
GRID = [(pattern, level, target) for pattern in PATTERNS
        for level in (OptLevel.O0, OptLevel.OS)
        for target in ("rt32", "rt16")]


def _do_machine(straight_to_final: bool = False):
    """``A`` (entry, do) -go-> composite ``C`` (entry, do) holding ``X``
    (do) -done-> final; ``C`` completes into composite ``D`` (do), whose
    initial transition goes straight to its final; ``D`` completes into
    ``E`` -back-> ``A``.  With *straight_to_final*, ``A -jump->`` also
    targets ``D``'s final from outside ``D``."""
    b = StateMachineBuilder("DoActs")
    b.state("A", entry=calls("enterA"), do_activity=calls("doA"))
    b.initial_to("A")
    c = b.composite("C", entry=calls("enterC"), exit=calls("exitC"))
    c.region.owner.do_activity = calls("doC")
    c.state("X", entry=calls("enterX"), do_activity=calls("doX"))
    c.initial_to("X")
    c.transition("X", "final", on="done")
    d = b.composite("D", entry=calls("enterD"))
    d.region.owner.do_activity = calls("doD")
    d.initial_to("final")
    b.state("E", do_activity=calls("doE"))
    b.transition("A", "C", on="go")
    b.completion("C", "D")
    b.completion("D", "E")
    b.transition("E", "A", on="back")
    if straight_to_final:
        b.transition("A", d.final, on="jump")
    return b.build()


def _initial_less_machine():
    """Initial composite ``C`` (entry) whose region holds ``X`` and no
    initial pseudostate; completion ``C -> D`` and ``D -back-> C``."""
    b = StateMachineBuilder("NoInitial")
    c = b.composite("C", entry=calls("enterC"))
    c.state("X", entry=calls("enterX"))
    b.state("D", entry=calls("enterD"))
    b.initial_to("C")
    b.completion("C", "D")
    b.transition("D", "C", on="back")
    return b.build()


def _wildcard_machine():
    """``A`` (entry) -x-> ``B`` (entry); ``B`` -*-> ``A`` on any event."""
    b = StateMachineBuilder("Wildcard")
    b.state("A", entry=calls("enterA"))
    b.state("B", entry=calls("enterB"))
    b.initial_to("A")
    b.transition("A", "B", on="x")
    b.transition("B", "A", on=AnyEvent())
    return b.build()


class TestDoActivities:
    def test_interpreter_runs_do_after_entry(self):
        machine = _do_machine()
        [obs] = observe(InterpreterExecutor(), machine, [("go", "done")])
        called = [detail[0] for _, detail in obs.payloads]
        assert called == ["enterA", "doA", "enterC", "doC", "enterX",
                          "doX", "exitC", "enterD", "doD", "doE"], called

    @pytest.mark.parametrize("lanes", [1, 64])
    @pytest.mark.parametrize("straight_to_final", [False, True])
    def test_fleet_conforms(self, lanes, straight_to_final):
        report = check_fleet_conformance(
            _do_machine(straight_to_final), wide_lanes=lanes)
        assert report.conformant, report.summary()
        assert report.scenarios_run > 0

    @pytest.mark.parametrize("pattern,level,target", GRID)
    def test_generated_code_conforms(self, pattern, level, target):
        report = check_vm_conformance(_do_machine(), pattern=pattern,
                                      level=level, target=target)
        assert report.conformant, report.mismatches[:1]

    @pytest.mark.parametrize("pattern", ["state-table", "flat-switch"])
    def test_flattened_entry_into_a_nested_final_runs_do(self, pattern):
        # Only the flattening patterns express a transition into a
        # nested final from outside its composite.
        for level in (OptLevel.O0, OptLevel.OS):
            for target in ("rt32", "rt16"):
                report = check_vm_conformance(
                    _do_machine(straight_to_final=True), pattern=pattern,
                    level=level, target=target)
                assert report.conformant, report.mismatches[:1]


#: Shapes every pattern declines while the interpreter and the fleet
#: run them: machine, the ``CodegenError`` message, one stimulus.
DECLINED = {
    "no-initial": (_initial_less_machine, "without an initial", ("back",)),
    "wildcard": (_wildcard_machine, "wildcard trigger", ("x", "x")),
}


class TestInitialLessComposite:
    def test_interpreter_never_completes_it(self):
        [obs] = observe(InterpreterExecutor(), _initial_less_machine(),
                        [("back",)])
        assert [d[0] for _, d in obs.payloads] == ["enterC"]


class TestWildcardTrigger:
    def test_interpreter_fires_it_on_any_event(self):
        [obs] = observe(InterpreterExecutor(), _wildcard_machine(),
                        [("x", "x")])
        assert [d[0] for _, d in obs.payloads] == \
            ["enterA", "enterB", "enterA"]


@pytest.mark.parametrize("shape", DECLINED)
class TestDeclinedShapes:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_declines_it(self, shape, pattern):
        build, message, _ = DECLINED[shape]
        machine = build()
        with pytest.raises(CodegenError, match=message):
            generator_by_name(pattern).generate(machine)
        scenarios = conformance_scenarios(machine)
        for level in (OptLevel.O0, OptLevel.OS):
            for target in ("rt32", "rt16"):
                for obs in observe(VMExecutor(pattern, level, target),
                                   machine, scenarios):
                    assert obs.error.startswith(UNSUPPORTED_PREFIX), \
                        obs.error

    @pytest.mark.parametrize("lanes", [1, 64])
    def test_fleet_runs_it(self, shape, lanes):
        report = check_fleet_conformance(DECLINED[shape][0](),
                                         wide_lanes=lanes)
        assert report.conformant, report.summary()
        assert report.scenarios_run > 0

    def test_oracle_skips_every_pattern_cell(self, shape, memory_engine):
        build, _, events = DECLINED[shape]
        oracle = DifferentialOracle(
            engine=memory_engine,
            config=OracleConfig(patterns=tuple(PATTERNS),
                                targets=("rt32",), levels=("-Os",),
                                check_optimized=False))
        result = oracle.run_case(FuzzCase(machine=build(),
                                          stimuli=(Stimulus.of(*events),)))
        assert result.ok, result.summary()
        assert result.cells_skipped == len(PATTERNS)
        assert result.executors_run == 1      # the fleet
