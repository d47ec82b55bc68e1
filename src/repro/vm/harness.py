"""Event-queue harness: run a *compiled* state machine on the simulator.

:class:`CompiledMachineVM` closes the loop the GIMPLE-level
:class:`~repro.codegen.harness.GeneratedMachine` leaves open: instead of
interpreting the middle-end IR, it generates code for a machine, runs
the full backend (isel, regalloc, peephole, prologue), assembles the
result into bytes, and *executes those bytes* on the
:class:`~.machine.Machine` — feeding it the same ``Event`` sequences the
UML interpreter consumes and recording what happens as a
:class:`~repro.semantics.trace.Trace`.
:class:`CompiledProgram` carries the compile+assemble artifacts so many
scenario runs (conformance sweeps) pay for the compiler once and boot a
fresh simulator per scenario.

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

from dataclasses import dataclass
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..codegen import CodeGenerator, generator_by_name
from ..codegen.common import event_index
from ..compiler.driver import OptLevel, compile_unit
from ..compiler.frontend.lower import _UnitContext, mangle
from ..compiler.target.description import TargetDescription
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

_NO_EVENT = -1


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


class CompiledProgram:
    """One machine, generated + compiled + assembled for one target.

    Everything scenario-independent lives here; :meth:`boot` starts a
    fresh simulated instance (memory reset to the image's initial
    state, ``init()`` executed, watchpoints armed).
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
        self.unit = generator.generate(machine)
        self.cls_name = generator.class_name(machine)
        if unit_cache is not None:
            # Delta path: per-unit compile against a shared unit cache.
            # Byte-identical to compile_unit (tests/compiler/test_units
            # pins it), but chains of machine variants — fuzz mutant
            # chains above all — reuse every unit their edit missed.
            from ..compiler import compile_program_incremental
            from ..compiler.frontend.lower import lower_unit
            self.compile_result = compile_program_incremental(
                lower_unit(self.unit), level, target=target,
                unit_cache=unit_cache, extra_key=generator.name)
        else:
            self.compile_result = compile_unit(self.unit, level,
                                               target=target)
        self.image: Image = assemble(self.compile_result.module)
        self.layout = _UnitContext(self.unit).layout(self.cls_name)
        self.event_names = [e.name for e in machine.events.values()]
        enum_name = f"{self.cls_name}_State"
        self.state_enumerators: Optional[List[str]] = next(
            (list(e.enumerators) for e in self.unit.enums
             if e.name == enum_name), None)

    def boot(self, externals: Optional[Mapping[str, Callable]] = None,
             trace_states: bool = True) -> "CompiledMachineVM":
        """Start one fresh instance of the compiled machine."""
        return CompiledMachineVM(self, externals=externals,
                                 trace_states=trace_states)


class CompiledMachineVM:
    """One generated+compiled machine executing on the ISA simulator.

    Construct from a :class:`CompiledProgram` (cheap, shares the
    compile), or pass a model + pattern to compile on the spot.
    """

    def __init__(self, program: Union[CompiledProgram, StateMachine],
                 generator: Union[CodeGenerator, str, None] = None,
                 level: OptLevel = OptLevel.OS,
                 target: Union[TargetDescription, str, None] = None,
                 externals: Optional[Mapping[str, Callable]] = None,
                 trace_states: bool = True) -> None:
        if not isinstance(program, CompiledProgram):
            if generator is None:
                raise ValueError("pass a CompiledProgram or a generator")
            program = CompiledProgram(program, generator, level=level,
                                      target=target)
        self.program = program
        self.model = program.model
        self.cls_name = program.cls_name
        self.vm = Machine(program.image, externals=externals)
        self.trace = Trace()
        self._dispatch_cycles: List[int] = []
        self._expected_echo: Optional[int] = None
        self._default_stored: set = set()
        self.this = self.vm.address_of(f"g_{self.cls_name}")
        self.vm.call_log = _TracingCallLog(self.trace)
        self._arm_watchpoints(trace_states)

        self.vm.call_function(mangle(self.cls_name, "init"), (self.this,))
        self.init_cycles = self.vm.cycles

    # ------------------------------------------------------------------
    def _arm_watchpoints(self, trace_states: bool) -> None:
        layout = self.program.layout
        for name in self.model.context.attributes:
            self.vm.watch(self.this + layout.offset_of(name),
                          self._attr_hook(name))
        if "pending" in layout.field_offsets:
            self.vm.watch(self.this + layout.offset_of("pending"),
                          self._pending_hook)
        if trace_states and "state" in layout.field_offsets and \
                self.program.state_enumerators is not None:
            self.vm.watch(self.this + layout.offset_of("state"),
                          self._state_hook(self.program.state_enumerators))

    def _attr_hook(self, name: str) -> Callable[[int, int], None]:
        def hook(_addr: int, value: int) -> None:
            if name not in self._default_stored:
                # init()'s one-time default-value store; the interpreter
                # does not trace attribute initialization either.
                self._default_stored.add(name)
                return
            self.trace.append(TraceKind.ASSIGN, name, value)
        return hook

    def _pending_hook(self, _addr: int, value: int) -> None:
        if value == _NO_EVENT:
            return
        if self._expected_echo is not None and \
                value == self._expected_echo:
            # dispatch() begins by storing its own argument into the
            # pending slot; that store is the event we injected, not an
            # emission by the machine.
            self._expected_echo = None
            return
        names = self.program.event_names
        if 0 <= value < len(names):
            self.trace.append(TraceKind.EMIT, names[value])

    def _state_hook(self, enumerators: List[str]
                    ) -> Callable[[int, int], None]:
        def hook(_addr: int, value: int) -> None:
            if 0 <= value < len(enumerators):
                name = enumerators[value]
                if name.startswith("ST_") and name != "ST_FINAL":
                    self.trace.append(TraceKind.STATE_ENTER, name[3:])
        return hook

    # ------------------------------------------------------------------
    def dispatch(self, event: object) -> "CompiledMachineVM":
        """Inject one event (by name or Event object) and run it to
        completion on the simulator.

        An event outside the machine's alphabet is dispatched as an
        out-of-range index: the generated code has no enumerator for
        it, but its dispatch loop handles any integer (jump-table
        bounds checks, unmatched compare chains, table scans that find
        no row), so the simulator charges the *real* cost of receiving
        an event the machine ignores.  Observably it is discarded —
        what the reference semantics does with an event nothing can
        consume.  (This is how an optimized machine that dropped unused
        events is exercised on the *original* machine's scenarios,
        mirroring :func:`repro.optim.equivalence.check_equivalence`.)"""
        name = getattr(event, "name", None) or str(event)
        if name in self.program.event_names:
            index = event_index(self.model, name)
        else:
            index = len(self.program.event_names)   # matches no arm
            self.trace.append(TraceKind.EVENT_DROPPED, name,
                              "no-alphabet")
        self.trace.append(TraceKind.EVENT_DISPATCH, name)
        self._expected_echo = index
        before = self.vm.cycles
        self.vm.call_function(mangle(self.cls_name, "dispatch"),
                              (self.this, index))
        self._expected_echo = None
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
