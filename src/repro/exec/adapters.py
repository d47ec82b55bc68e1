"""Executor adapters over the three execution backends.

Each adapter owns the backend-specific configuration (semantics for
the interpreter and fleet, pattern/level/target and an optional unit
cache for the VM), memoizes the scenario-independent compile per
machine, keyed weakly so machines can be garbage collected, and
declares the typed errors the differential runner
(:mod:`repro.exec.runner`) observes instead of raising.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Union

from ..codegen.base import CodegenError
from ..compiler.driver import OptLevel
from ..compiler.target.description import TargetDescription
from ..fleet.engine import Fleet
from ..fleet.table import (FleetExecutionError, FleetUnsupported,
                           TableProgram, compile_table)
from ..semantics.runtime import ExecutionError, MachineInstance, MachinePlan
from ..semantics.trace import Trace
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from ..vm.encoding import EncodingError
from ..vm.harness import CompiledProgram, VmMetrics
from ..vm.machine import VMError
from .protocol import Executor, Instance

__all__ = ["InterpreterExecutor", "VMExecutor", "FleetExecutor",
           "WideLanes"]


# ---------------------------------------------------------------------------
# interpreter
# ---------------------------------------------------------------------------

class _InterpreterInstance(Instance):
    def __init__(self, plan: MachinePlan, semantics: SemanticsConfig,
                 externals: Optional[Mapping[str, Callable]]) -> None:
        self.machine = plan.machine
        self.inner = MachineInstance(plan.machine, config=semantics,
                                     externals=externals, plan=plan)

    def fork(self) -> "_InterpreterInstance":
        """An independent copy at the same point of the run
        (:meth:`MachineInstance.fork`); the differential runner forks
        at the branch points of a scenario trie."""
        clone = _InterpreterInstance.__new__(_InterpreterInstance)
        clone.machine = self.machine
        clone.inner = self.inner.fork()
        return clone

    def start(self) -> "Instance":
        self.inner.start()
        return self

    def dispatch(self, event: object, payload: int = 0) -> "Instance":
        self.inner.dispatch(event, priority=payload)
        return self

    @property
    def is_started(self) -> bool:
        return self.inner.is_started

    @property
    def trace(self) -> Trace:
        return self.inner.trace

    @property
    def in_final(self) -> bool:
        return self.inner.in_final

    @property
    def is_terminated(self) -> bool:
        return self.inner.is_terminated

    def attributes(self) -> Dict[str, int]:
        return dict(self.inner.attributes)

    @property
    def extra(self) -> int:
        """Backend extra: the event pool's high-water mark (the
        generated runtimes hold a single pending event)."""
        return self.inner.max_pool_depth


class InterpreterExecutor(Executor):
    """The reference semantics (:mod:`repro.semantics.runtime`).

    ``load`` indexes each machine once (its
    :class:`~repro.semantics.runtime.MachinePlan`, weakly memoized), so
    a replay of many scenarios walks the model once.  A shape the
    interpreter does not run (several top regions, orthogonal regions)
    fails the load with :class:`~repro.semantics.runtime.ExecutionError`.
    """

    name = "interp"
    run_errors = (ExecutionError,)

    def __init__(self, semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS
                 ) -> None:
        self.semantics = semantics
        self._plans: "weakref.WeakKeyDictionary[StateMachine, MachinePlan]" = \
            weakref.WeakKeyDictionary()

    def plan_for(self, machine: StateMachine) -> MachinePlan:
        plan = self._plans.get(machine)
        if plan is None:
            plan = MachinePlan(machine)
            self._plans[machine] = plan
        return plan

    def load(self, machine: StateMachine, *,
             externals: Optional[Mapping[str, Callable]] = None
             ) -> Instance:
        return _InterpreterInstance(self.plan_for(machine), self.semantics,
                                    externals)

    def describe(self) -> str:
        return f"interp[{self.semantics.describe()}]"


# ---------------------------------------------------------------------------
# compiled code on the ISA simulator
# ---------------------------------------------------------------------------

class _VMInstance(Instance):
    def __init__(self, program: CompiledProgram,
                 externals: Optional[Mapping[str, Callable]]) -> None:
        self.machine = program.model
        self.program = program
        self._externals = externals
        self.vm = None   # booted by start()

    def start(self) -> "Instance":
        if self.vm is not None:
            raise RuntimeError("instance already started")
        self.vm = self.program.boot(externals=self._externals)
        return self

    def _booted(self):
        if self.vm is None:
            raise RuntimeError("dispatch before start()")
        return self.vm

    def dispatch(self, event: object, payload: int = 0) -> "Instance":
        self._booted().dispatch(event)
        return self

    @property
    def is_started(self) -> bool:
        return self.vm is not None

    @property
    def trace(self) -> Trace:
        return self._booted().trace

    @property
    def in_final(self) -> bool:
        return self._booted().is_final()

    @property
    def is_terminated(self) -> bool:
        return False   # generated runtimes have no terminate support

    def attributes(self) -> Dict[str, int]:
        vm = self._booted()
        return {name: vm.read_attribute(name)
                for name in self.machine.context.attributes}

    @property
    def extra(self) -> VmMetrics:
        """Backend extra: the simulator's deterministic cost counters."""
        return self._booted().metrics


class VMExecutor(Executor):
    """Generated code, compiled and run on the RT ISA simulator.

    ``load`` compiles once per machine (weakly memoized), so a
    conformance sweep over many scenarios assembles one image and boots
    a fresh simulator per instance.  Every compile runs unit by unit
    (:mod:`repro.compiler.units`); with a *unit_cache* the fuzz
    oracle's mutant chains reuse every unit their edit missed, and the
    executors of one grid share each machine's front end and unit
    middle ends (:class:`~repro.vm.harness.CompiledProgram`).  A
    pattern's documented shape rejection
    (:class:`~repro.codegen.base.CodegenError`) is a shape error of the
    load.
    """

    name = "vm"
    run_errors = (VMError, EncodingError)
    shape_errors = (CodegenError,)

    def __init__(self, pattern: str = "nested-switch",
                 level: OptLevel = OptLevel.OS,
                 target: Union[TargetDescription, str, None] = None,
                 unit_cache=None) -> None:
        self.pattern = pattern
        self.level = level
        self.target = target
        self._unit_cache = unit_cache
        self._programs: "weakref.WeakKeyDictionary[StateMachine, CompiledProgram]" = \
            weakref.WeakKeyDictionary()

    def program_for(self, machine: StateMachine) -> CompiledProgram:
        program = self._programs.get(machine)
        if program is None:
            program = CompiledProgram(machine, self.pattern,
                                      level=self.level, target=self.target,
                                      unit_cache=self._unit_cache)
            self._programs[machine] = program
        return program

    def load(self, machine: StateMachine, *,
             externals: Optional[Mapping[str, Callable]] = None
             ) -> Instance:
        return _VMInstance(self.program_for(machine), externals)

    def describe(self) -> str:
        return f"vm[{self.pattern}, {self.level.value}]"


# ---------------------------------------------------------------------------
# fleet tables
# ---------------------------------------------------------------------------

class WideLanes(NamedTuple):
    """The extra of a wide fleet load: the untraced fleet's dispatch
    accounting, and the first lane whose final flag or attributes
    differ from the traced lane's (``None`` when every lane agrees)."""

    fast_lane_events: int
    scalar_lane_events: int
    disagreement: Optional[str]


class _FleetInstance(Instance):
    """One traced lane (the scalar path); with ``n_lanes > 1`` an
    untraced fleet that wide takes the same events (the vectorized
    path)."""

    def __init__(self, program: TableProgram, n_lanes: int,
                 externals: Optional[Mapping[str, Callable]]) -> None:
        self.machine = program.machine
        self.fleet = Fleet(program, 1, externals=externals, trace=True)
        self.wide = (Fleet(program, n_lanes, externals=externals)
                     if n_lanes > 1 else None)

    def start(self) -> "Instance":
        self.fleet.start()
        if self.wide is not None:
            self.wide.start()
        return self

    def dispatch(self, event: object, payload: int = 0) -> "Instance":
        self.fleet.dispatch_all(event)
        if self.wide is not None:
            self.wide.dispatch_all(event)
        return self

    @property
    def is_started(self) -> bool:
        return self.fleet.is_started

    @property
    def trace(self) -> Trace:
        return self.fleet.trace_of(0)

    @property
    def in_final(self) -> bool:
        return self.fleet.lane_in_final(0)

    @property
    def is_terminated(self) -> bool:
        return False   # terminate is outside the fleet subset

    def attributes(self) -> Dict[str, int]:
        return self.fleet.attributes_of(0)

    @property
    def extra(self) -> Optional[WideLanes]:
        """Backend extra of a wide load (see :class:`WideLanes`)."""
        wide = self.wide
        if wide is None:
            return None
        final, attributes = self.in_final, self.attributes()
        disagreement = None
        for lane in range(wide.n):
            if wide.lane_in_final(lane) != final:
                disagreement = (f"lane {lane}: final-state mismatch on "
                                "vectorized path")
                break
            if wide.attributes_of(lane) != attributes:
                disagreement = (f"lane {lane}: attribute mismatch on "
                                f"vectorized path ({wide.attributes_of(lane)}"
                                f" != {attributes})")
                break
        return WideLanes(wide.stats.fast_lane_events,
                         wide.stats.scalar_lane_events, disagreement)


class FleetExecutor(Executor):
    """The vectorized table engine (:mod:`repro.fleet`).

    Through the protocol an instance is one traced lane, which runs the
    scalar run-to-completion path.  ``n_lanes > 1`` also steps an
    untraced fleet that wide with the same events, and the instance's
    extra reports whether every vectorized lane landed where the traced
    one did — how the conformance suite cross-checks the vectorized
    path against the scalar one.  Shapes outside the table engine's
    subset (:class:`~repro.fleet.table.FleetUnsupported`) are shape
    errors of the load.
    """

    name = "fleet"
    run_errors = (FleetExecutionError,)
    shape_errors = (FleetUnsupported,)

    def __init__(self, semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                 n_lanes: int = 1) -> None:
        self.semantics = semantics
        self.n_lanes = n_lanes
        self._tables: "weakref.WeakKeyDictionary[StateMachine, TableProgram]" = \
            weakref.WeakKeyDictionary()

    def table_for(self, machine: StateMachine) -> TableProgram:
        table = self._tables.get(machine)
        if table is None:
            table = compile_table(machine, self.semantics)
            self._tables[machine] = table
        return table

    def load(self, machine: StateMachine, *,
             externals: Optional[Mapping[str, Callable]] = None
             ) -> Instance:
        return _FleetInstance(self.table_for(machine), self.n_lanes,
                              externals)

    def describe(self) -> str:
        return f"fleet[n={self.n_lanes}]"
