"""RT ISA simulator: execute what the compiler emits.

The compile side of the reproduction measures generated-code *size*;
this package executes the generated code so its *behavior* and *dynamic
cost* can be measured too.  Main public names:

* :class:`~.encoding.TargetEncoding` / :class:`~.encoding.OperandPool` —
  the byte codec, derived entirely from a
  :class:`~repro.compiler.target.TargetDescription` (opcode numbers,
  register numbers, per-mnemonic byte sizes);
* :func:`~.image.assemble` / :class:`~.image.Image` — assembler+linker:
  ``AsmModule`` to an executable memory image whose text is byte-exact
  per the target's size accounting;
* :class:`~.machine.Machine` — the cycle-counting in-order simulator
  (registers, flat memory, stack, ABI argument bank, watchpoints);
* :class:`~.harness.CompiledProgram` /
  :class:`~.harness.CompiledMachineVM` — the event-queue harness
  feeding a compiled machine the same
  ``Event`` sequences the UML interpreter consumes, reconstructing a
  :class:`~repro.semantics.trace.Trace` and :class:`~.harness.VmMetrics`;
* :func:`~.conformance.check_vm_conformance` /
  :class:`~.conformance.ConformanceReport` — differential checking of
  interpreter trace vs. executed-code trace per pattern x level x
  target.
"""

from .conformance import (ConformanceReport, check_vm_conformance,
                          conformance_scenarios)
from .encoding import EncodingError, OperandPool, TargetEncoding
from .harness import CompiledMachineVM, CompiledProgram, VmMetrics
from .image import (DATA_BASE, HALT_ADDRESS, STACK_BASE, TEXT_BASE, Image,
                    assemble)
from .machine import Machine, VMError, cycle_cost

__all__ = [
    "ConformanceReport", "check_vm_conformance", "conformance_scenarios",
    "EncodingError", "OperandPool", "TargetEncoding",
    "CompiledMachineVM", "CompiledProgram", "VmMetrics",
    "Image", "assemble", "TEXT_BASE", "DATA_BASE", "STACK_BASE",
    "HALT_ADDRESS",
    "Machine", "VMError", "cycle_cost",
]
