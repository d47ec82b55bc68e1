"""Simulator semantics: the VM agrees with the GIMPLE interpreter.

The GIMPLE interpreter is the reproduction's established execution
substrate; the VM executes the *backend's* output for the same
programs.  Same external call log, same returned values, same final
memory — at every optimization level and on both targets — means the
whole backend (isel, regalloc, peephole, prologue, assembler, VM) is
behavior-preserving.
"""

import gc
import weakref

import pytest

from repro.codegen import generator_by_name
from repro.codegen.harness import GeneratedMachine
from repro.compiler import OptLevel
from repro.exec import InterpreterExecutor, VMExecutor, run_scenario
from repro.experiments.models import (
    flat_machine_with_unreachable_state,
    hierarchical_machine_with_shadowed_composite)
from repro.uml import Assign, CallStmt, StateMachineBuilder, parse_expr
from repro.vm import CompiledProgram, VMError
from repro.vm.image import STACK_BASE


def run_vm(machine, events, pattern, level=OptLevel.OS, target=None,
           externals=None):
    """The simulator harness after *events*, run through the Executor
    protocol."""
    executor = VMExecutor(pattern, level=level, target=target)
    return run_scenario(executor, machine, events, externals=externals).vm


def machine_with_arithmetic():
    """Guards + assigns exercising ALU, immediates and memory."""
    b = StateMachineBuilder("Arith")
    b.attribute("x", 5)
    b.attribute("y", 0)
    b.state("A")
    b.state("B")
    b.initial_to("A")
    b.transition("A", "B", on="go", guard="x > 3",
                 effect=[Assign("y", parse_expr("x * 7 - 2")),
                         CallStmt(parse_expr("log(y)")),
                         Assign("x", parse_expr("x - 4"))])
    b.transition("B", "A", on="back", guard="x <= 1",
                 effect=[Assign("y", parse_expr("0 - y")),
                         CallStmt(parse_expr("log(y)"))])
    b.transition("A", "final", on="stop", guard="x == 1")
    return b.build()


LEVELS = [OptLevel.O0, OptLevel.O1, OptLevel.O2, OptLevel.OS]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("target", ["rt32", "rt16"])
def test_vm_matches_gimple_interpreter(level, target):
    machine = machine_with_arithmetic()
    events = ["go", "back", "go", "stop"]
    ref = GeneratedMachine(machine, generator_by_name("nested-switch"),
                           level=level)
    ref.send_all(events)
    vm = run_vm(machine, events, "nested-switch", level=level,
                         target=target)
    assert vm.calls == ref.calls
    assert vm.is_final() == ref.is_final()
    for attr in ("x", "y"):
        assert vm.read_attribute(attr) == ref.read_attribute(attr)


def test_vm_arithmetic_values():
    machine = machine_with_arithmetic()
    vm = run_vm(machine, ["go", "back"], "nested-switch")
    # y := 5*7-2 = 33, then y := 0-33 = -33 (signed 32-bit wrap applies)
    assert vm.calls == [("log", (33,)), ("log", (-33,))]
    assert vm.read_attribute("y") == -33
    assert vm.read_attribute("x") == 1


def test_externals_receive_arguments_and_return_values():
    b = StateMachineBuilder("Ext")
    b.attribute("v", 0)
    b.state("A")
    b.initial_to("A")
    b.transition("A", "A", on="tick",
                 effect=[Assign("v", parse_expr("sensor(3, 4)")),
                         CallStmt(parse_expr("report(v)"))])
    machine = b.build()
    vm = run_vm(machine, ["tick"], "nested-switch",
                         externals={"sensor": lambda a, c: a * 10 + c})
    assert vm.calls == [("sensor", (3, 4)), ("report", (34,))]
    assert vm.read_attribute("v") == 34


@pytest.mark.parametrize("pattern", ["nested-switch", "state-table",
                                     "state-pattern", "flat-switch"])
def test_metrics_are_deterministic_and_populated(pattern):
    machine = hierarchical_machine_with_shadowed_composite()
    events = ["e1", "e2", "e5", "e3"]
    a = run_vm(machine, events, pattern).metrics
    b = run_vm(machine, events, pattern).metrics
    assert a == b                       # simulated, not wall clock
    assert a.instructions > 0
    assert a.cycles >= a.instructions   # every instruction costs >= 1
    assert a.events_dispatched == len(events)
    assert a.peak_dispatch_cycles > 0
    assert a.cycles_per_event > 0
    assert a.text_bytes > 0


def test_state_trace_matches_interpreter_on_flat_machine():
    machine = flat_machine_with_unreachable_state()
    events = ["e1", "e3", "e1", "e4"]
    ref = run_scenario(InterpreterExecutor(), machine, events)
    vm = run_vm(machine, events, "nested-switch")
    assert vm.trace.entered_states() == ref.trace.entered_states()


def test_stack_discipline_restores_sp():
    machine = hierarchical_machine_with_shadowed_composite()
    vm = run_vm(machine, ["e1", "e2", "e3"], "state-pattern")
    assert vm.vm.regs["sp"] == STACK_BASE


def test_unknown_function_raises():
    program = CompiledProgram(flat_machine_with_unreachable_state(),
                              "nested-switch")
    vm = program.boot()
    with pytest.raises(VMError, match="no function"):
        vm.vm.call_function("does::not_exist")


@pytest.mark.parametrize("pattern", ["nested-switch", "state-table",
                                     "state-pattern", "flat-switch"])
def test_a_booted_vm_is_freed_without_the_cyclic_collector(pattern):
    """The watchpoint hooks refer to neither the harness nor the
    simulator, so dropping the last reference frees both at once."""
    program = CompiledProgram(hierarchical_machine_with_shadowed_composite(),
                              pattern)
    gc.collect()
    gc.disable()
    try:
        vm = program.boot()
        vm.send_all(["e1", "e2", "e5", "e3"])
        assert vm.metrics.events_dispatched == 4
        refs = (weakref.ref(vm), weakref.ref(vm.vm))
        del vm
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
