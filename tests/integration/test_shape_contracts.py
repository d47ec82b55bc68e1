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
"""

import pytest

from repro.codegen import ALL_PATTERNS, CodegenError, generator_by_name
from repro.compiler import OptLevel
from repro.exec import InterpreterExecutor, VMExecutor, observe
from repro.exec.runner import UNSUPPORTED_PREFIX
from repro.fleet import check_fleet_conformance
from repro.uml import StateMachineBuilder, calls
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


class TestInitialLessComposite:
    def test_interpreter_never_completes_it(self):
        [obs] = observe(InterpreterExecutor(), _initial_less_machine(),
                        [("back",)])
        assert [d[0] for _, d in obs.payloads] == ["enterC"]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_every_pattern_declines_it(self, pattern):
        machine = _initial_less_machine()
        with pytest.raises(CodegenError, match="without an initial"):
            generator_by_name(pattern).generate(machine)
        scenarios = conformance_scenarios(machine)
        for obs in observe(VMExecutor(pattern, OptLevel.OS, "rt32"),
                           machine, scenarios):
            assert obs.error.startswith(UNSUPPORTED_PREFIX), obs.error

    @pytest.mark.parametrize("lanes", [1, 64])
    def test_fleet_runs_it(self, lanes):
        report = check_fleet_conformance(_initial_less_machine(),
                                         wide_lanes=lanes)
        assert report.conformant, report.summary()
        assert report.scenarios_run > 0
