"""MGCC: the GCC-shaped optimizing compiler substrate.

Pipeline: C++ subset AST -> GIMPLE (frontend) -> SSA optimizations
(CCP, copy propagation, DCE, CFG cleanup, inlining) -> RTL instruction
selection (jump-table/compare-chain switch lowering) -> linear-scan
register allocation -> peephole -> assembly with byte-accurate size
accounting for any registered target (``rt32`` by default, compact
``rt16`` built in; see :mod:`repro.compiler.target`).

Main public names: :func:`compile_unit` / :func:`compile_program`
(drive the pipeline at an :class:`OptLevel`, returning a
:class:`CompileResult` around an :class:`AsmModule`),
:func:`lower_unit` / :func:`mangle` / :class:`ClassLayout` (frontend),
and the target registry re-exports (:class:`TargetDescription`,
:func:`get_target`, :func:`resolve_target`, :func:`available_targets`).
"""

from .asm import AsmModule
from .driver import CompileResult, OptLevel, compile_program, compile_unit
from .frontend.lower import ClassLayout, LoweringError, lower_unit, mangle
from .gimple.ir import Program
from .target import (TargetDescription, UnknownTargetError,
                     available_targets, get_target, register_target,
                     resolve_target)
from .units import (CompilationUnit, LinkError, UnitArtifact, UnitPlan,
                    compile_program_incremental, link_units, split_units)

__all__ = [
    "AsmModule", "CompileResult", "OptLevel", "compile_program",
    "compile_unit", "ClassLayout", "LoweringError", "lower_unit", "mangle",
    "Program",
    "TargetDescription", "UnknownTargetError", "available_targets",
    "get_target", "register_target", "resolve_target",
    "CompilationUnit", "LinkError", "UnitArtifact", "UnitPlan",
    "compile_program_incremental", "link_units", "split_units",
]
