#!/usr/bin/env python3
"""The paper, section by section, as executable output.

Walks through the DATE 2010 experiments in order:

* §III.A  build the Figure 1 models (flat + hierarchical);
* §III.B  generate C++ with the Nested Switch pattern;
* §III.C  compile at -Os, inspect the dead-code-elimination dump, then
          optimize the model and recompile — both Figure 1 rows;
* Table 1 regenerate the three-pattern comparison;
* Table 2 regenerate the alternatives classification.

Run: ``python examples/paper_walkthrough.py``
"""

from repro.analysis import measure_model
from repro.codegen import NestedSwitchGenerator
from repro.compiler import OptLevel
from repro.cpp import print_unit
from repro.experiments import figure1, table1, table2
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.pipeline import compile_machine


def section(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def main():
    section("III.A - building the state machine diagrams")
    flat = flat_machine_with_unreachable_state()
    m = measure_model(flat)
    print(f"flat model: {m.total_states} states, "
          f"{m.pseudostates + m.final_states} pseudo/final vertices, "
          f"{m.transitions} transitions")
    print("paper: '3 states, 2 pseudo states (initial and final states) "
          "and 5 transitions'")
    hier = hierarchical_machine_with_shadowed_composite()
    mh = measure_model(hier)
    print(f"hierarchical model: {mh.total_states} states of which "
          f"{mh.composite_states} composite, "
          f"{mh.completion_transitions} completion transition(s)")

    section("III.B - generating the C++ code (Nested Switch pattern)")
    unit = NestedSwitchGenerator().generate(flat)
    text = print_unit(unit)
    print(text[:text.index("class ") + 400])
    print("    ...")

    section("III.C - compiling with -Os; what dead code elimination sees")
    result = compile_machine(flat, "nested-switch", OptLevel.OS)
    dump = result.program.dump()
    line = next(l for l in dump.splitlines() if "s2_exit_action" in l)
    print("final -Os GIMPLE (after DCE) still contains the unreachable "
          "state's code:")
    print("   ", line.strip())
    print("paper: 'we have found that code related to the unreachable "
          "state still exists'")

    section("Figure 1 - model optimization impact")
    print(figure1.main())

    section("Table 1 - three implementation patterns")
    print(table1.main())

    section("Table 2 - where should the optimization live?")
    print(table2.main())


if __name__ == "__main__":
    main()
