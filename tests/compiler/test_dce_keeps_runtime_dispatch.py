"""The paper's §III experiment, reproduced against MGCC.

"In the dead code elimination file, we have found that code related to
the unreachable state still exists, which means that GCC did not remove
the dead code."

These tests compile the *non-optimized* Figure 1 models at ``-Os`` and
inspect the final GIMPLE (a dump taken after dead code elimination, the
``-fdump-tree`` analogue) to show that the unreachable state's actions
survive every compiler pass — for all three implementation patterns —
while the model-level optimizer removes them trivially.  The markers are
external calls and no pass after inlining adds a call, so a marker in
the final program was in the post-DCE one too.
"""

import pytest

from repro.codegen import (NestedSwitchGenerator, StatePatternGenerator,
                           StateTableGenerator)
from repro.compiler import OptLevel, compile_unit
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.optim import optimize

ALL_GENS = [StateTableGenerator, NestedSwitchGenerator,
            StatePatternGenerator]

#: An action that only executes through state S2's generated code.  Note
#: it is S2's *exit* action: generators inline a state's entry actions at
#: the transitions targeting it, and nothing targets S2 — so the code
#: that survives compilation is S2's dispatch arm (exit + effect), which
#: is precisely "the code related to the unreachable state" the paper
#: found in GCC's dead-code-elimination dump.
S2_MARKER = "s2_exit_action"
#: An action only performed inside the never-active composite S3.
S31_MARKER = "s31_enter_action"


@pytest.mark.parametrize("gen_cls", ALL_GENS, ids=lambda g: g.name)
class TestCompilerCannotRemoveUnreachableState:
    def test_s2_code_survives_dce(self, gen_cls):
        machine = flat_machine_with_unreachable_state()
        unit = gen_cls().generate(machine)
        result = compile_unit(unit, OptLevel.OS)
        # The final program still calls the unreachable state's action.
        assert S2_MARKER in result.program.dump()

    def test_composite_code_survives_dce(self, gen_cls):
        machine = hierarchical_machine_with_shadowed_composite()
        unit = gen_cls().generate(machine)
        result = compile_unit(unit, OptLevel.OS)
        assert S31_MARKER in result.program.dump()

    def test_model_level_removal_succeeds_where_compiler_fails(self, gen_cls):
        machine = flat_machine_with_unreachable_state()
        optimized = optimize(machine).optimized
        unit = gen_cls().generate(optimized)
        result = compile_unit(unit, OptLevel.OS)
        assert S2_MARKER not in result.program.dump()

    def test_model_level_removes_whole_submachine(self, gen_cls):
        machine = hierarchical_machine_with_shadowed_composite()
        optimized = optimize(machine).optimized
        unit = gen_cls().generate(optimized)
        result = compile_unit(unit, OptLevel.OS)
        dump = result.program.dump()
        for marker in ("s31_", "s32_", "s33_", "s3_enter"):
            assert marker not in dump

    def test_optimized_model_compiles_smaller(self, gen_cls):
        machine = hierarchical_machine_with_shadowed_composite()
        optimized = optimize(machine).optimized
        size_before = compile_unit(gen_cls().generate(machine),
                                   OptLevel.OS).total_size
        size_after = compile_unit(gen_cls().generate(optimized),
                                  OptLevel.OS).total_size
        assert size_after < size_before


class TestWhyDCECannotHelp:
    """Mechanism checks: the dispatch value is a runtime load, so every
    arm stays CFG-reachable; state-pattern handlers are address-taken."""

    def test_nested_switch_case_arm_is_cfg_reachable(self):
        machine = flat_machine_with_unreachable_state()
        unit = NestedSwitchGenerator().generate(machine)
        result = compile_unit(unit, OptLevel.OS)
        step = result.program.functions["Fig1Flat::step"]
        from repro.compiler.gimple.cfg import reachable_blocks
        # every block of the dispatcher is reachable from its entry
        assert reachable_blocks(step) == set(step.blocks)

    def test_state_pattern_handlers_referenced_by_vtable(self):
        machine = flat_machine_with_unreachable_state()
        unit = StatePatternGenerator().generate(machine)
        result = compile_unit(unit, OptLevel.OS)
        from repro.compiler.gimple.ir import SymbolRef
        vtable_targets = {
            w.symbol
            for obj in result.program.data.values()
            if obj.name.startswith("vtbl.")
            for w in obj.words if isinstance(w, SymbolRef)}
        # The dead state's handler is still a vtable slot => a DCE root.
        assert any("S2" in t for t in vtable_targets)

    def test_state_table_rows_reference_dead_state_actions(self):
        machine = flat_machine_with_unreachable_state()
        unit = StateTableGenerator().generate(machine)
        result = compile_unit(unit, OptLevel.OS)
        dump = result.program.dump()
        # The rows (rodata) still contain entries for S2's transitions.
        assert "Fig1Flat_rows" in dump
        assert S2_MARKER in dump
