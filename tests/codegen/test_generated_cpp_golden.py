"""Golden-shape tests on the printed C++ of each generator.

Structural pins on the paper-relevant features of each pattern's
output, readable where a digest is not; ``test_source_golden.py`` pins
every unit byte for byte.
"""

from repro.codegen import (NestedSwitchGenerator, StatePatternGenerator,
                           StateTableGenerator)
from repro.cpp import print_unit
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)


class TestNestedSwitchOutput:
    def test_outer_and_inner_switch(self):
        text = print_unit(NestedSwitchGenerator().generate(
            flat_machine_with_unreachable_state()))
        assert "switch (this->state)" in text
        assert "switch (ev)" in text

    def test_case_arm_per_state(self):
        text = print_unit(NestedSwitchGenerator().generate(
            flat_machine_with_unreachable_state()))
        for st in ("ST_S1", "ST_S2", "ST_S3", "ST_FINAL"):
            assert f"case {st}:" in text

    def test_composite_gets_submachine_class_and_field(self):
        text = print_unit(NestedSwitchGenerator().generate(
            hierarchical_machine_with_shadowed_composite()))
        assert "class Fig1Hier_S3 {" in text
        assert "Fig1Hier_S3* sub_S3;" in text
        assert "this->sub_S3->reset()" in text

    def test_inlined_actions_in_arms(self):
        text = print_unit(NestedSwitchGenerator().generate(
            flat_machine_with_unreachable_state()))
        # exit + effect + entry sequence inlined at the e1 arm
        assert "s1_exit_action()" in text
        assert "t_s1_s3_effect()" in text
        assert "s3_enter_action()" in text


class TestStatePatternOutput:
    def test_abstract_base_with_virtuals(self):
        text = print_unit(StatePatternGenerator().generate(
            flat_machine_with_unreachable_state()))
        assert "class Fig1Flat_State {" in text
        assert "virtual int handle(Fig1Flat* m, int ev)" in text
        assert "virtual void entry(Fig1Flat* m)" in text

    def test_one_singleton_per_state(self):
        text = print_unit(StatePatternGenerator().generate(
            flat_machine_with_unreachable_state()))
        for st in ("S1", "S2", "S3"):
            assert f"Fig1Flat_{st} g_Fig1Flat_{st};" in text

    def test_completion_override_present(self):
        text = print_unit(StatePatternGenerator().generate(
            hierarchical_machine_with_shadowed_composite()))
        assert "virtual int completion(Fig1Hier* m)" in text

    def test_submachine_cluster_for_composite(self):
        text = print_unit(StatePatternGenerator().generate(
            hierarchical_machine_with_shadowed_composite()))
        assert "class Fig1Hier_S3Sub_State" in text
        assert "class Fig1Hier_S3Sub_S31" in text


class TestStateTableOutput:
    def test_row_struct_and_const_table(self):
        text = print_unit(StateTableGenerator().generate(
            flat_machine_with_unreachable_state()))
        assert "class Fig1Flat_Row {" in text
        assert "const Fig1Flat_Row Fig1Flat_rows[" in text
        assert "const void (*Fig1Flat_actions[" in text

    def test_rows_reference_thunks_by_address(self):
        text = print_unit(StateTableGenerator().generate(
            flat_machine_with_unreachable_state()))
        assert "&Fig1Flat_beh_0" in text

    def test_flattened_state_enum(self):
        text = print_unit(StateTableGenerator().generate(
            hierarchical_machine_with_shadowed_composite()))
        assert "LS_S3_S31" in text  # leaf configuration naming

    def test_engine_scan_loop(self):
        text = print_unit(StateTableGenerator().generate(
            flat_machine_with_unreachable_state()))
        assert "int scan(int eid)" in text
        assert "run_actions" in text
