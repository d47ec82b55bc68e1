#!/usr/bin/env python3
"""Quickstart: the paper's workflow in ~40 lines.

Build a state machine with a modeling bug (an unreachable state), see
that the compiler cannot remove the dead code, optimize at the model
level instead, and compare generated assembly sizes.

Run: ``python examples/quickstart.py``
"""

from repro.analysis import find_dead_code
from repro.compiler import OptLevel
from repro.pipeline import compile_machine, optimize_and_compare
from repro.uml import StateMachineBuilder, calls


def build_door_controller():
    """A door controller whose 'Maintenance' state was left unconnected
    by the modeler — no transition ever reaches it."""
    b = StateMachineBuilder("Door")
    b.state("Closed", entry=calls("lock_engage"))
    b.state("Open", entry=calls("lock_release", "light_on"),
            exit=calls("light_off"))
    b.state("Maintenance", entry=calls("diagnostics_start"),
            exit=calls("diagnostics_stop"))  # unreachable!
    b.initial_to("Closed")
    b.transition("Closed", "Open", on="open_cmd")
    b.transition("Open", "Closed", on="close_cmd")
    b.transition("Maintenance", "Closed", on="reset")
    b.transition("Closed", "final", on="shutdown")
    return b.build()


def main():
    machine = build_door_controller()

    # 1. The model-level diagnosis (what the compiler will never see):
    print(find_dead_code(machine).summary())
    print()

    # 2. Show that the compiler keeps the dead state's code even at -Os
    #    (the final GIMPLE is a dump taken after dead code elimination):
    result = compile_machine(machine, "nested-switch", OptLevel.OS)
    kept = "diagnostics_stop" in result.program.dump()
    print(f"compiler -Os, post-DCE dump still contains the dead state's "
          f"code: {kept}")
    print(f"compiler-only size: {result.total_size} bytes")
    print()

    # 3. Model-level optimization + behavioral check + size comparison:
    cmp = optimize_and_compare(machine, "nested-switch")
    print(cmp.model_report.summary())
    print()
    print(cmp.summary())


if __name__ == "__main__":
    main()
