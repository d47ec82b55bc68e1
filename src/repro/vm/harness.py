"""Event-queue harness: run a *compiled* state machine on the simulator.

This closes the loop the GIMPLE-level
:class:`~repro.codegen.harness.GeneratedMachine` leaves open: instead of
interpreting the middle-end IR, :class:`CompiledProgram` generates code
for a machine, runs the full backend (isel, regalloc, peephole,
prologue) and assembles the result into bytes, and each
:class:`CompiledMachineVM` it boots *executes those bytes* on the
:class:`~.machine.Machine` — feeding it the same ``Event`` sequences the
UML interpreter consumes and recording what happens as a
:class:`~repro.semantics.trace.Trace`.  Many scenario runs (conformance
sweeps) pay for the compiler once and boot a fresh simulator per
scenario.

Trace reconstruction uses only the architectural state the simulator
exposes (no instrumentation in the generated code):

* external calls           -> ``CALL`` records (name, argument values);
* stores to the machine object's context-attribute words -> ``ASSIGN``;
* stores to the ``pending`` event slot -> ``EMIT`` (the echo store each
  ``dispatch`` entry performs is recognized and skipped);
* each harness dispatch    -> ``EVENT_DISPATCH``;
* stores to the ``state`` variable -> ``STATE_ENTER`` for the patterns
  that keep an integer state (the state-pattern keeps a vtable pointer
  instead; its entries are not reconstructed).

The observable subset (CALL/ASSIGN/EMIT) is exactly what
:func:`repro.semantics.trace.observable_equal` compares — the contract
conformance checking relies on.  One wrinkle: every pattern's ``init()``
begins by storing each context attribute's default value exactly once
(before any behavior runs), and the interpreter does *not* trace that
initialization — so the first store to each attribute word is
recognized as the constructor default and skipped.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..codegen import CodeGenerator, generator_by_name
from ..codegen.base import NO_EVENT, instance_name
from ..codegen.common import dispatch_number
from ..compiler.driver import OptLevel
from ..compiler.frontend.lower import _UnitContext, lower_unit, mangle
from ..compiler.gimple.ir import Program
from ..compiler.target.description import TargetDescription
from ..compiler.units import compile_program_incremental
from ..obs.metrics import REGISTRY
from ..semantics.trace import Trace, TraceKind
from ..uml.statemachine import StateMachine
from .image import Image, assemble
from .machine import Machine

#: Process-wide VM execution totals (unlabeled: scrape and diff).
_VM_CYCLES = REGISTRY.counter("vm_cycles_total",
                              "simulator cycles spent dispatching events")
_VM_EVENTS = REGISTRY.counter("vm_events_total",
                              "events dispatched on compiled-machine VMs")

__all__ = ["CompiledProgram", "CompiledMachineVM", "VmMetrics"]


@dataclass(frozen=True)
class VmMetrics:
    """Deterministic dynamic cost of one execution."""

    instructions: int
    cycles: int
    events_dispatched: int
    peak_dispatch_cycles: int
    init_cycles: int
    text_bytes: int

    @property
    def cycles_per_event(self) -> float:
        """Average simulated cycles per dispatched event (init excluded)."""
        if self.events_dispatched == 0:
            return 0.0
        return (self.cycles - self.init_cycles) / self.events_dispatched

    def summary(self) -> str:
        return (f"{self.instructions} instrs, {self.cycles} cycles "
                f"({self.cycles_per_event:.1f}/event over "
                f"{self.events_dispatched} events, "
                f"peak dispatch {self.peak_dispatch_cycles})")


class _FrontEnd:
    """The target-independent half of a compile: the generated
    translation unit, its lowered program and the layout facts the
    harness reads back."""

    def __init__(self, machine: StateMachine,
                 generator: CodeGenerator) -> None:
        self.unit = generator.generate(machine)
        self.cls_name = generator.class_name(machine)
        self.program: Program = lower_unit(self.unit)
        self.layout = _UnitContext(self.unit).layout(self.cls_name)
        self.event_names = [e.name for e in machine.events.values()]
        enum_name = f"{self.cls_name}_State"
        self.state_enumerators: Optional[List[str]] = next(
            (list(e.enumerators) for e in self.unit.enums
             if e.name == enum_name), None)
        #: Held while a cell compiles :attr:`program` (see
        #: :class:`CompiledProgram`).
        self.lock = threading.Lock()


#: Front ends of the programs that compile against a unit cache, per
#: machine, then per generator class.  Machines are immutable once built
#: by repo convention (as for ``machine_fingerprint``'s memo), and the
#: unit path never mutates the lowered program, so every cell of a VM
#: grid can share one.
_FRONT_ENDS: "weakref.WeakKeyDictionary[StateMachine, Dict[type, _FrontEnd]]" \
    = weakref.WeakKeyDictionary()


def _shared_front_end(machine: StateMachine,
                      generator: CodeGenerator) -> _FrontEnd:
    per_machine = _FRONT_ENDS.get(machine)
    if per_machine is None:
        per_machine = _FRONT_ENDS.setdefault(machine, {})
    key = type(generator)
    front = per_machine.get(key)
    if front is None:
        # A generator that rejects the machine raises here and stores
        # nothing, so every cell raises.  Threads racing on one machine
        # build equal front ends; setdefault keeps one.
        front = per_machine.setdefault(
            key, _FrontEnd(machine, generator))
    return front


class CompiledProgram:
    """One machine, generated + compiled + assembled for one target.

    Everything scenario-independent lives here; :meth:`boot` starts a
    fresh simulated instance (memory reset to the image's initial
    state, ``init()`` executed, watchpoints armed).

    The machine compiles unit by unit
    (:func:`~repro.compiler.units.compile_program_incremental`),
    byte-identical to a whole-program ``compile_unit``.  With a
    *unit_cache*, units already cached are reused — the fuzz oracle's
    mutant chains reuse every unit their edit missed — and the front
    end (generated C++, lowered GIMPLE, layout, event names, state
    enumerators) is shared: every ``CompiledProgram`` of the same
    machine and generator takes it from one per-machine memo, so the
    cells of a VM grid generate and lower once, and
    :func:`~repro.compiler.units.compile_one_unit` runs each unit's
    middle end once for all targets.  Without a unit cache every
    instance generates, lowers and compiles its own.  Cells that share
    a front end compile one at a time, even from several threads.
    """

    def __init__(self, machine: StateMachine,
                 generator: Union[CodeGenerator, str],
                 level: OptLevel = OptLevel.OS,
                 target: Union[TargetDescription, str, None] = None,
                 unit_cache=None) -> None:
        if isinstance(generator, str):
            generator = generator_by_name(generator)
        self.model = machine
        self.generator = generator
        self.level = level
        front = _shared_front_end(machine, generator) \
            if unit_cache is not None else _FrontEnd(machine, generator)
        # Compiling clones the program's nodes and may pickle the shared
        # middle ends, which reads each object's __dict__ for the first
        # time.  On CPython 3.11 two threads doing that to one object at
        # once can corrupt memory: a collection that runs inside the
        # first read can switch threads.  Compiles are GIL-bound, so
        # serializing them costs no throughput.
        with front.lock:
            self.compile_result = compile_program_incremental(
                front.program, level, target=target,
                unit_cache=unit_cache, extra_key=generator.name)
        self.unit = front.unit
        self.cls_name = front.cls_name
        self.layout = front.layout
        self.event_names = front.event_names
        self.state_enumerators = front.state_enumerators
        self.image: Image = assemble(self.compile_result.module)

    def boot(self, externals: Optional[Mapping[str, Callable]] = None
             ) -> "CompiledMachineVM":
        """Start one fresh instance of the compiled machine."""
        return CompiledMachineVM(self, externals=externals)


class _Recorder:
    """Turns the watched stores of one booted machine into trace records.

    It holds all the watchpoint hooks read — the trace, the event and
    state names, the dispatch echo to skip and the attributes whose
    default was stored — and refers to neither the
    :class:`CompiledMachineVM` nor its :class:`~.machine.Machine`, so
    the two form no reference cycle: reference counting frees them as
    soon as the last reference to the VM goes."""

    def __init__(self, trace: Trace, event_names: List[str],
                 state_enumerators: Optional[List[str]]) -> None:
        self.trace = trace
        self.event_names = event_names
        self.state_enumerators = state_enumerators
        #: The event index the running ``dispatch`` echoes into the
        #: pending slot first (None outside a dispatch).
        self.expected_echo: Optional[int] = None
        self.default_stored: set = set()

    def attr_hook(self, name: str) -> Callable[[int, int], None]:
        trace, default_stored = self.trace, self.default_stored

        def hook(_addr: int, value: int) -> None:
            if name not in default_stored:
                # init()'s one-time default-value store; the interpreter
                # does not trace attribute initialization either.
                default_stored.add(name)
                return
            trace.append(TraceKind.ASSIGN, name, value)
        return hook

    def pending_hook(self, _addr: int, value: int) -> None:
        if value == NO_EVENT:
            return
        if self.expected_echo is not None and value == self.expected_echo:
            # dispatch() begins by storing its own argument into the
            # pending slot; that store is the event we injected, not an
            # emission by the machine.
            self.expected_echo = None
            return
        names = self.event_names
        if 0 <= value < len(names):
            self.trace.append(TraceKind.EMIT, names[value])

    def state_hook(self, _addr: int, value: int) -> None:
        enumerators = self.state_enumerators
        if 0 <= value < len(enumerators):
            name = enumerators[value]
            if name.startswith("ST_") and name != "ST_FINAL":
                self.trace.append(TraceKind.STATE_ENTER, name[3:])


class CompiledMachineVM:
    """One generated+compiled machine executing on the ISA simulator,
    booted from a :class:`CompiledProgram` (cheap, shares the
    compile)."""

    def __init__(self, program: CompiledProgram,
                 externals: Optional[Mapping[str, Callable]] = None) -> None:
        self.program = program
        self.model = program.model
        self.cls_name = program.cls_name
        self.vm = Machine(program.image, externals=externals)
        self.trace = Trace()
        self._dispatch_cycles: List[int] = []
        self._recorder = _Recorder(self.trace, program.event_names,
                                   program.state_enumerators)
        self.this = self.vm.address_of(instance_name(self.cls_name))
        self.vm.call_log = _TracingCallLog(self.trace)
        self._arm_watchpoints()

        self.vm.call_function(mangle(self.cls_name, "init"), (self.this,))
        self.init_cycles = self.vm.cycles

    # ------------------------------------------------------------------
    def _arm_watchpoints(self) -> None:
        layout = self.program.layout
        recorder = self._recorder
        for name in self.model.context.attributes:
            self.vm.watch(self.this + layout.offset_of(name),
                          recorder.attr_hook(name))
        if "pending" in layout.field_offsets:
            self.vm.watch(self.this + layout.offset_of("pending"),
                          recorder.pending_hook)
        if "state" in layout.field_offsets and \
                self.program.state_enumerators is not None:
            self.vm.watch(self.this + layout.offset_of("state"),
                          recorder.state_hook)

    # ------------------------------------------------------------------
    def dispatch(self, event: object) -> "CompiledMachineVM":
        """Inject one event (by name or Event object) and run it to
        completion on the simulator.

        An event outside the machine's alphabet is dispatched as one
        past the alphabet (:func:`~repro.codegen.common.dispatch_number`):
        the generated code has no enumerator for it, but its dispatch
        loop handles any integer (jump-table bounds checks, unmatched
        compare chains, table scans that find no row), so the simulator
        charges the *real* cost of receiving an event the machine
        ignores.  Observably it is discarded — what the reference
        semantics does with an event nothing can consume.  (This is how
        an optimized machine that dropped unused events is exercised on
        the *original* machine's scenarios, mirroring
        :func:`repro.optim.equivalence.check_equivalence`.)"""
        name = getattr(event, "name", None) or str(event)
        index = dispatch_number(self.model, name)
        if index == len(self.program.event_names):
            self.trace.append(TraceKind.EVENT_DROPPED, name,
                              "no-alphabet")
        self.trace.append(TraceKind.EVENT_DISPATCH, name)
        self._recorder.expected_echo = index
        before = self.vm.cycles
        self.vm.call_function(mangle(self.cls_name, "dispatch"),
                              (self.this, index))
        self._recorder.expected_echo = None
        spent = self.vm.cycles - before
        self._dispatch_cycles.append(spent)
        _VM_CYCLES.inc(spent)
        _VM_EVENTS.inc()
        return self

    def send_all(self, events: Sequence[object]) -> "CompiledMachineVM":
        for event in events:
            self.dispatch(event)
        return self

    def is_final(self) -> bool:
        return bool(self.vm.call_function(
            mangle(self.cls_name, "is_final"), (self.this,)))

    def read_attribute(self, name: str) -> int:
        return self.vm.load_word(
            self.this + self.program.layout.offset_of(name))

    @property
    def calls(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """External calls performed so far, in execution order."""
        return list(self.vm.call_log)

    @property
    def metrics(self) -> VmMetrics:
        return VmMetrics(
            instructions=self.vm.instructions,
            cycles=self.vm.cycles,
            events_dispatched=len(self._dispatch_cycles),
            peak_dispatch_cycles=max(self._dispatch_cycles, default=0),
            init_cycles=self.init_cycles,
            text_bytes=len(self.program.image.text))


class _TracingCallLog(list):
    """call_log that mirrors every external call into a Trace."""

    def __init__(self, trace: Trace) -> None:
        super().__init__()
        self._trace = trace

    def append(self, item: Tuple[str, Tuple[int, ...]]) -> None:
        name, args = item
        self._trace.append(TraceKind.CALL, name, args)
        super().append(item)
