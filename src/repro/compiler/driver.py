"""MGCC driver: optimization levels and the full pipeline.

Mirrors GCC's level structure (paper §II.C):

* ``-O0`` — straight lowering, no middle-end optimization;
* ``-O1`` — the SSA pass set: CCP, copy propagation, DCE, CFG cleanup;
* ``-O2`` — ``-O1`` plus inlining and an extra SSA iteration;
* ``-Os`` — ``-O2``'s passes with size-oriented policies: conservative
  inlining and size-minimizing switch lowering (the flag the paper uses
  for all measurements: "Since we deal with RTES design ... we are
  interested in -Os").

``compile_unit`` also records per-pass statistics.  Its final GIMPLE
(:attr:`CompileResult.program`) carries the paper's §III evidence: the
paper inspected GCC's ``-fdump-tree-*`` files to show the unreachable
state's code surviving dead code elimination, and the same code is still
in the program MGCC hands to its backend.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..cpp import ast as cpp
from ..obs.trace import span as _span
from .asm import AsmModule
from .target.description import TargetDescription
from .target.registry import resolve_target
from .frontend.lower import lower_unit
from .gimple.cfg import remove_unreachable_blocks
from .gimple.ir import DataObject, Program, SymbolRef
from .gimple.ssa import from_ssa, to_ssa, verify_ssa
from .passes.ccp import run_ccp
from .passes.copyprop import run_copyprop
from .passes.cse import run_cse
from .passes.dce import run_dce
from .passes.inline import InlinePolicy, run_inline
from .passes.simplify_cfg import run_simplify_cfg
from .rtl.isel import SwitchLowering, select_function
from .rtl.peephole import fuse_compare_branches, run_peephole
from .rtl.regalloc import allocate_registers
from .rtl.ir import RInstr

__all__ = ["OptLevel", "CompileResult", "compile_unit", "compile_program",
           "SSA_PASS_SEQUENCE", "inline_policy_for", "middle_end_iterations",
           "optimize_function", "backend_function", "make_switch_lowering"]


class OptLevel(enum.Enum):
    """GCC-style optimization levels."""

    O0 = "-O0"
    O1 = "-O1"
    O2 = "-O2"
    OS = "-Os"

    @property
    def optimizes(self) -> bool:
        return self is not OptLevel.O0

    @property
    def for_size(self) -> bool:
        return self is OptLevel.OS

    @property
    def inlines(self) -> bool:
        return self in (OptLevel.O2, OptLevel.OS)


@dataclass
class CompileResult:
    """Everything a compilation produced."""

    module: AsmModule
    program: Program                       # final GIMPLE (post-middle-end)
    opt_level: OptLevel
    pass_stats: Dict[str, int] = field(default_factory=dict)
    target: Optional[TargetDescription] = None  # ISA compiled for

    @property
    def total_size(self) -> int:
        return self.module.total_size


#: The SSA pass pipeline, in execution order.  :func:`optimize_function`
#: runs it over one function; both compilation granularities (the
#: whole-program compile below and :mod:`repro.compiler.units`) call it
#: per function after the program-level inline phase.
SSA_PASS_SEQUENCE = (("ccp", run_ccp), ("cse", run_cse),
                     ("copyprop", run_copyprop), ("dce", run_dce),
                     ("cfg", run_simplify_cfg))

#: Span names per SSA pass, precomputed so the traced path never
#: builds f-strings inside the pass loop.
_PASS_SPAN_NAMES = {name: f"pass.{name}" for name, _ in SSA_PASS_SEQUENCE}


def inline_policy_for(level: OptLevel) -> InlinePolicy:
    """The inlining thresholds of one optimization level."""
    return (InlinePolicy.for_size() if level.for_size
            else InlinePolicy.for_speed())


def middle_end_iterations(level: OptLevel) -> int:
    """How many SSA pipeline iterations the level runs."""
    return 2 if level in (OptLevel.O2, OptLevel.OS) else 1


def _finish_iteration(fn) -> None:
    """Leave SSA and clean up after one pipeline iteration."""
    from_ssa(fn)
    remove_unreachable_blocks(fn)
    # Clean up the straight-line blocks and critical-edge stubs
    # SSA destruction leaves behind (phis are gone, so this is a
    # plain structural pass).
    run_simplify_cfg(fn)


def optimize_function(fn, level: OptLevel, stats: Dict[str, int]) -> None:
    """Run the full per-function SSA pipeline over one function.

    Both compile paths call this after the (program-level) inline
    phase, so a unit compile produces the same function a
    whole-program compile does.
    """
    for i in range(middle_end_iterations(level)):
        suffix = "" if i == 0 else f"#{i + 1}"
        with _span("stage.ssa-build"):
            to_ssa(fn)
            verify_ssa(fn)
        for name, run_pass in SSA_PASS_SEQUENCE:
            key = f"{name}{suffix}"
            with _span(_PASS_SPAN_NAMES[name]):
                stats[key] = stats.get(key, 0) + run_pass(fn)
        with _span("stage.ssa-out"):
            _finish_iteration(fn)
    # The backend reads no CFG fact, and caches hold the function.
    fn.drop_cfg_facts()


def make_switch_lowering(level: OptLevel,
                         target: TargetDescription) -> SwitchLowering:
    """The switch-lowering policy one (level, target) pair compiles with."""
    return SwitchLowering(optimize_for_size=level.for_size, target=target)


def make_rodata_sink(jump_tables: List[DataObject],
                     target: TargetDescription):
    """A ``rodata_sink`` appending jump tables to *jump_tables* with the
    target's entry width — one construction shared by both compile
    granularities so the emitted tables are identical."""
    def rodata_sink(name: str, symbols: List[str]) -> None:
        jump_tables.append(DataObject(
            name, [SymbolRef(s) for s in symbols], "rodata",
            word_size=target.jump_table_entry_size))
    return rodata_sink


def backend_function(fn, level: OptLevel, lowering: SwitchLowering,
                     rodata_sink, target: TargetDescription,
                     stats: Dict[str, int]):
    """Run the full backend over one optimized function: instruction
    selection, compare/branch fusion, register allocation, peephole,
    prologue/epilogue.  Returns the finished RTL function; jump tables
    go to *rodata_sink* (named ``<function>.jtN``, so per-function
    compilation reproduces whole-program names exactly)."""
    with _span("stage.isel"):
        rtl = select_function(fn, lowering, rodata_sink, target=target)
    if level.optimizes:
        with _span("stage.fuse"):
            stats["fuse"] = stats.get("fuse", 0) + \
                fuse_compare_branches(rtl, target=target)
    with _span("stage.regalloc"):
        allocate_registers(rtl, target=target)
    if level.optimizes:
        with _span("stage.peephole"):
            stats["peephole"] = stats.get("peephole", 0) + run_peephole(rtl)
    with _span("stage.prologue"):
        _add_prologue_epilogue(rtl, target)
    return rtl


def compile_program(program: Program, level: OptLevel = OptLevel.OS,
                    target: Union[TargetDescription, str, None] = None,
                    ) -> CompileResult:
    """Run the middle end + backend over an already-lowered program,
    mutating it in place: whole-program inlining (at the levels that
    inline), then :func:`optimize_function` on each function, then
    :func:`backend_function` on each.

    *target* selects the backend ISA — a registered name (``"rt32"``,
    ``"rt16"``), a :class:`TargetDescription`, or None for the default.
    """
    tgt = resolve_target(target)
    stats: Dict[str, int] = {}
    if level.inlines:
        with _span("stage.inline"):
            stats["inline"] = run_inline(program, inline_policy_for(level))
    if level.optimizes:
        for fn in program.functions.values():
            optimize_function(fn, level, stats)

    module = AsmModule(program.name, target=tgt)
    lowering = make_switch_lowering(level, tgt)
    jump_tables: List[DataObject] = []
    rodata_sink = make_rodata_sink(jump_tables, tgt)

    for fn in program.functions.values():
        module.functions.append(
            backend_function(fn, level, lowering, rodata_sink, tgt, stats))

    module.data_objects.extend(program.data.values())
    module.data_objects.extend(jump_tables)
    return CompileResult(module=module, program=program, opt_level=level,
                         pass_stats=stats, target=tgt)


def _add_prologue_epilogue(rtl, target: TargetDescription) -> None:
    """Attach frame setup: push/pop used callee-saved registers (+ lr
    unless the function is a leaf), and a stack adjustment when spill
    slots exist."""
    is_leaf = not any(i.op in ("call", "callr") for i in rtl.instrs)
    saved = list(rtl.saved_regs) + ([] if is_leaf else ["lr"])
    prologue = [RInstr("push", uses=(reg,), comment="prologue")
                for reg in saved]
    frame_bytes = target.word_size * rtl.frame_slots
    if rtl.frame_slots:
        prologue.append(RInstr("addsp", imm=-frame_bytes,
                               comment="frame"))
    epilogue: List[RInstr] = []
    if rtl.frame_slots:
        epilogue.append(RInstr("addsp", imm=frame_bytes))
    epilogue.extend(RInstr("pop", defs=(reg,)) for reg in reversed(saved))
    # Insert the epilogue before every ret.
    new_instrs = list(prologue)
    for instr in rtl.instrs:
        if instr.op == "ret":
            new_instrs.extend(epilogue)
        new_instrs.append(instr)
    rtl.instrs = new_instrs


def compile_unit(unit: cpp.TranslationUnit, level: OptLevel = OptLevel.OS,
                 target: Union[TargetDescription, str, None] = None,
                 ) -> CompileResult:
    """Compile a C++ translation unit down to assembly for *target*
    (default target when none is given)."""
    with _span("stage.lower"):
        program = lower_unit(unit)
    return compile_program(program, level=level, target=target)
