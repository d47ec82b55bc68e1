"""Incremental structure-sharing compilation: units, hashes, relink.

Every machine compile of the pipeline, the engine and the VM harness
runs through this module, with or without a unit cache.  The
whole-program compile (:func:`repro.compiler.driver.compile_program`)
recompiles a whole translation unit from cold whenever *anything* in it
changed; it stays as the byte-identity reference the unit path is
pinned against and as the API for a hand-written translation unit.
This module splits the same stages into a DAG of **compilation units**
— one per lowered GIMPLE function, i.e. one per action body, per state
event-handler, per dispatch skeleton — so a machine that shares 95 % of
its structure with an already-compiled one only recompiles the changed
handlers and **relinks**:

* :func:`split_units` partitions a lowered :class:`Program` into units
  and gives each unit two content keys.  The **middle-end key** is a
  digest over the unit's own canonical IR dump *plus* the dumps of its
  transitive direct-call closure (in program order), the optimization
  level, the codegen pattern and the repo schema stamp: everything that
  determines the unit's post-middle-end GIMPLE, and no target, since
  the middle end is target-independent (GCC's GIMPLE/RTL split).  The
  **fingerprint**, the unit-cache key, is a digest of the middle-end
  key plus the resolved target's name: everything that determines the
  unit's compiled bytes, and nothing that doesn't.  The closure is part
  of both because inlining (the middle end's only cross-function pass)
  clones callee bodies into callers.  Indirect calls (vtable dispatch)
  are never inlined and therefore never extend a closure — which is
  what keeps the dispatch skeletons of the virtual-dispatch patterns
  independent of their handlers.
* :func:`compile_one_unit` compiles a single unit through the very same
  stages as :func:`~repro.compiler.driver.compile_program` (inline, then
  ``optimize_function`` and ``backend_function``), on a
  :meth:`~repro.compiler.gimple.ir.GimpleFunction.clone` of the unit's
  function.  At the levels that inline, the inline candidates of its
  closure that precede it in program order are inlined into first, on
  clones, and the later ones are read as written — exactly the callee
  bodies a whole-program run inlines into the unit — so the produced
  RTL is byte-identical.  Pass statistics are attributed to the unit
  function only; summed across units they equal the whole-program
  numbers.
* **Sharing rule:** the middle end runs once per (lowered program,
  middle-end key).  Its output — the optimized function and the
  middle-end pass statistics — is memoized in memory, weakly keyed by
  the :class:`Program` object, so compiling the same unit for a second
  target runs only that target's backend, and the two artifacts share
  one ``optimized_fn``.  The key is the closure's content, so a program
  mutated in place between two compiles misses rather than reusing a
  stale middle end.  The memo never reaches the unit cache.  Compile one
  program on one thread at a time: cloning and pickling read each
  object's ``__dict__``, and on CPython 3.11 two threads doing that to
  one object for the first time at once can corrupt memory
  (:class:`~repro.vm.harness.CompiledProgram` serializes the grid cells
  that share a program).
* :func:`link_units` is the **link step**: it reassembles the module
  from per-unit artifacts — functions in program order, the program's
  data objects, then every unit's jump tables in function order — and
  resolves cross-unit symbols (call targets, data references, table
  slots), raising :class:`LinkError` on a dangling reference.  Link
  inputs (globals, vtables, externs) always come from the *current*
  program, never from cached artifacts: a machine whose every unit is
  cache-hot but whose static data changed relinks correctly.
* :func:`compile_program_incremental` ties it together against an
  optional content-addressed unit cache
  (:class:`repro.engine.cache.CompileCache`), whose hit and miss
  counters say how many units were reused and how many compiled.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from ..obs.trace import span as _span
from ..schema import schema_stamp
from .asm import AsmModule
from .driver import (CompileResult, OptLevel, backend_function,
                     inline_policy_for, make_rodata_sink,
                     make_switch_lowering, optimize_function)
from .gimple.ir import (Call, DataObject, GimpleFunction, Program,
                        SymbolRef)
from .passes.inline import inline_candidates, inline_into
from .target.description import TargetDescription
from .target.registry import resolve_target

__all__ = ["CompilationUnit", "UnitArtifact", "UnitPlan", "LinkError",
           "split_units", "unit_fingerprint", "compile_one_unit",
           "link_units", "compile_program_incremental"]


class LinkError(Exception):
    """A cross-unit symbol did not resolve at link time."""


@dataclass(frozen=True)
class CompilationUnit:
    """One independently-compilable node of the unit DAG.

    ``closure`` is the transitive direct-call closure (unit included),
    ordered by position in the source program — the exact function set
    and relative order the inliner may consult while compiling this
    unit.  ``fingerprint`` is the unit-cache key; ``middle_end_key``
    hashes the same inputs except the target.
    """

    name: str
    fingerprint: str
    closure: Tuple[str, ...]
    middle_end_key: str


@dataclass
class UnitArtifact:
    """Everything one unit's compilation produced.

    Stored as a first-class artifact in the content-addressed caches
    (memory, disk store); treat as immutable once published — linked
    modules share these objects, and a unit's artifacts for different
    targets share one ``optimized_fn``.
    """

    name: str
    fingerprint: str
    rtl: object                      # finished RTLFunction
    jump_tables: Tuple[DataObject, ...]
    optimized_fn: GimpleFunction     # post-middle-end GIMPLE
    pass_stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class UnitPlan:
    """The unit decomposition of one lowered program."""

    program: Program
    units: List[CompilationUnit]
    level: OptLevel
    target: TargetDescription
    extra_key: str = ""


# ---------------------------------------------------------------------------
# splitting + hashing
# ---------------------------------------------------------------------------

def _direct_callees(fn: GimpleFunction, defined: Dict[str, GimpleFunction]
                    ) -> List[str]:
    """Names of program functions *fn* calls directly (self excluded;
    externs and indirect calls are not closure edges)."""
    seen: List[str] = []
    for block in fn.blocks.values():
        for instr in block.instrs:
            if isinstance(instr, Call) and instr.callee in defined \
                    and instr.callee != fn.name and instr.callee not in seen:
                seen.append(instr.callee)
    return seen


def _transitive_closure(root: str, edges: Dict[str, List[str]]
                        ) -> List[str]:
    out = [root]
    frontier = list(edges.get(root, ()))
    while frontier:
        name = frontier.pop()
        if name in out:
            continue
        out.append(name)
        frontier.extend(edges.get(name, ()))
    return out


def _middle_end_key(name: str, closure: Tuple[str, ...],
                    fn_dumps: Dict[str, str], level: OptLevel,
                    extra_key: str) -> str:
    hasher = hashlib.sha256()
    hasher.update(schema_stamp().encode("utf-8"))
    for part in ("unit", name, level.value, extra_key):
        hasher.update(b"\x00")
        hasher.update(part.encode("utf-8"))
    for member in closure:
        hasher.update(b"\x01")
        hasher.update(member.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(fn_dumps[member].encode("utf-8"))
    return hasher.hexdigest()


def _with_target(middle_end_key: str, target: TargetDescription) -> str:
    return hashlib.sha256(
        f"{middle_end_key}\x00{target.name}".encode("utf-8")).hexdigest()


def unit_fingerprint(name: str, closure: Tuple[str, ...],
                     fn_dumps: Dict[str, str], level: OptLevel,
                     target: TargetDescription, extra_key: str = "") -> str:
    """Canonical content hash of one unit.

    Covers the unit's lowered IR, the lowered IR of every closure
    member in program order, the optimization level, the target name,
    the pattern/extra key, and the repo schema stamp — everything that
    determines the unit's compiled bytes, and nothing that doesn't.  It
    is the unit's middle-end key (every input but the target) hashed
    with the target name.
    """
    return _with_target(
        _middle_end_key(name, closure, fn_dumps, level, extra_key), target)


def split_units(program: Program, level: OptLevel = OptLevel.OS,
                target: Union[TargetDescription, str, None] = None,
                extra_key: str = "") -> UnitPlan:
    """Partition *program* into compilation units with content hashes.

    Closures only matter when the level inlines (O2/Os) — below that
    every pass is function-local, so units hash over their own body
    alone and reuse survives edits to unrelated siblings even for
    direct-call-heavy patterns.
    """
    tgt = resolve_target(target)
    order = list(program.functions)
    position = {name: i for i, name in enumerate(order)}
    fn_dumps = {name: str(fn) for name, fn in program.functions.items()}
    inlines = level.inlines
    edges = {name: _direct_callees(fn, program.functions)
             for name, fn in program.functions.items()} if inlines else {}
    units: List[CompilationUnit] = []
    for name in order:
        closure = tuple(sorted(_transitive_closure(name, edges),
                               key=position.__getitem__)) \
            if inlines else (name,)
        middle_end_key = _middle_end_key(name, closure, fn_dumps, level,
                                         extra_key)
        units.append(CompilationUnit(
            name=name, fingerprint=_with_target(middle_end_key, tgt),
            closure=closure, middle_end_key=middle_end_key))
    return UnitPlan(program=program, units=units, level=level, target=tgt,
                    extra_key=extra_key)


# ---------------------------------------------------------------------------
# per-unit compilation
# ---------------------------------------------------------------------------

_MiddleEnd = Tuple[GimpleFunction, Dict[str, int]]

#: Post-middle-end output per lowered program:
#: ``{middle_end_key: (optimized function, middle-end pass stats)}``.
#: Weakly keyed, so an entry dies with its program.
_MIDDLE_ENDS: "weakref.WeakKeyDictionary[Program, Dict[str, _MiddleEnd]]" = \
    weakref.WeakKeyDictionary()


def _run_middle_end(program: Program, unit: CompilationUnit,
                    level: OptLevel) -> _MiddleEnd:
    fn = program.functions[unit.name].clone()
    stats: Dict[str, int] = {}
    if level.inlines:
        # A whole-program run inlines into every function in program
        # order, so when it reaches this unit the candidates before it
        # have had their own calls inlined and the ones after it have
        # not.  Only those states reach the unit: inline into clones of
        # the earlier candidates, then into the unit, and read the later
        # ones as written.
        policy = inline_policy_for(level)
        candidates = inline_candidates(
            (program.functions[name] for name in unit.closure), policy)
        with _span("stage.inline"):
            for name in unit.closure[:unit.closure.index(unit.name)]:
                if name in candidates:
                    candidates[name] = callee = candidates[name].clone()
                    inline_into(callee, candidates, policy)
            if unit.name in candidates:
                candidates[unit.name] = fn
            stats["inline"] = inline_into(fn, candidates, policy)
    if level.optimizes:
        optimize_function(fn, level, stats)
    return fn, stats


def compile_one_unit(program: Program, unit: CompilationUnit,
                     level: OptLevel,
                     target: Union[TargetDescription, str, None] = None,
                     ) -> UnitArtifact:
    """Compile one unit in isolation, byte-identical to its share of a
    whole-program compile.

    The pipeline mutates IR in place, so the unit's function and every
    closure member the inliner rewrites are compiled as
    :meth:`GimpleFunction.clone` copies: *program* stays pristine for
    the other units.  Only the unit's own function is optimized.  The
    middle end runs once per (*program*, ``unit.middle_end_key``); a
    compile for another target reuses it and runs only its own
    backend.
    """
    sp = _span("unit.compile")
    if sp.recording:
        sp.set(unit=unit.name, closure=len(unit.closure))
    with sp:
        tgt = resolve_target(target)
        memo = _MIDDLE_ENDS.get(program)
        if memo is None:
            memo = _MIDDLE_ENDS.setdefault(program, {})
        shared = memo.get(unit.middle_end_key)
        if shared is None:
            # Should two threads race here, their results are equal
            # and setdefault keeps one.
            shared = memo.setdefault(unit.middle_end_key,
                                     _run_middle_end(program, unit, level))
        fn, middle_end_stats = shared
        stats = dict(middle_end_stats)

        jump_tables: List[DataObject] = []
        rodata_sink = make_rodata_sink(jump_tables, tgt)
        lowering = make_switch_lowering(level, tgt)
        rtl = backend_function(fn, level, lowering, rodata_sink, tgt, stats)
        return UnitArtifact(name=unit.name, fingerprint=unit.fingerprint,
                            rtl=rtl, jump_tables=tuple(jump_tables),
                            optimized_fn=fn, pass_stats=stats)


# ---------------------------------------------------------------------------
# the link step
# ---------------------------------------------------------------------------

def _merged_stats(program: Program,
                  artifacts: Dict[str, UnitArtifact]) -> Dict[str, int]:
    """Sum per-unit pass statistics in program order — the key order a
    whole-program compile records them in."""
    merged: Dict[str, int] = {}
    for name in program.functions:
        for key, count in artifacts[name].pass_stats.items():
            merged[key] = merged.get(key, 0) + count
    return merged


def check_link(module: AsmModule, program: Program) -> None:
    """Resolve every cross-unit symbol; raise :class:`LinkError` on a
    dangling reference.

    Checked references: direct call targets in RTL, and
    :class:`SymbolRef` words in data objects (vtable slots, transition
    tables, jump tables).  The assembler would catch these too, but the
    link step is where a stale artifact or a mismatched data section
    should be diagnosed — before any image exists.
    """
    defined = {fn.name for fn in module.functions}
    defined.update(obj.name for obj in module.data_objects)
    # Function-local labels are addressable as ``fn:block`` (jump-table
    # slots point at case blocks); the RTL spells them ``.fn.block``,
    # the same normalization the assembler's resolver applies.
    for fn in module.functions:
        for instr in fn.instrs:
            if instr.op == "label":
                defined.add(instr.target)
    externs = set(program.externs)

    def resolves(symbol: str) -> bool:
        if symbol in defined or symbol in externs:
            return True
        if ":" in symbol and not symbol.startswith("."):
            fn_name, _, block = symbol.rpartition(":")
            return f".{fn_name}.{block}" in defined
        return False
    for fn in module.functions:
        for instr in fn.instrs:
            if instr.op != "label" and instr.symbol is not None \
                    and not resolves(instr.symbol):
                raise LinkError(
                    f"{fn.name}: {instr.op} references unresolved "
                    f"symbol {instr.symbol!r}")
    for obj in module.data_objects:
        for word in obj.words:
            if isinstance(word, SymbolRef) and not resolves(word.symbol):
                raise LinkError(
                    f"data object {obj.name}: reference to unresolved "
                    f"symbol {word.symbol!r}")


def link_units(program: Program, artifacts: Dict[str, UnitArtifact],
               level: OptLevel,
               target: Union[TargetDescription, str, None] = None,
               ) -> CompileResult:
    """Relink per-unit artifacts into a whole-module
    :class:`CompileResult`, byte-exact against a monolithic compile.

    Functions land in program order; data is the *current* program's
    (never cached — link inputs may change while every unit hits);
    jump tables follow in function order, exactly where the monolithic
    backend loop appends them.
    """
    sp = _span("unit.link")
    if sp.recording:
        sp.set(units=len(artifacts))
    with sp:
        return _link_units(program, artifacts, level, target)


def _link_units(program: Program, artifacts: Dict[str, UnitArtifact],
                level: OptLevel,
                target: Union[TargetDescription, str, None] = None,
                ) -> CompileResult:
    tgt = resolve_target(target)
    missing = [name for name in program.functions if name not in artifacts]
    if missing:
        raise LinkError(f"missing unit artifacts: {missing}")

    module = AsmModule(program.name, target=tgt)
    linked = Program(program.name)
    linked.externs = list(program.externs)
    for obj in program.data.values():
        linked.add_data(obj)
    jump_tables: List[DataObject] = []
    for name in program.functions:
        artifact = artifacts[name]
        module.functions.append(artifact.rtl)
        jump_tables.extend(artifact.jump_tables)
        linked.add_function(artifact.optimized_fn)
    module.data_objects.extend(program.data.values())
    module.data_objects.extend(jump_tables)
    check_link(module, linked)
    return CompileResult(module=module, program=linked, opt_level=level,
                         pass_stats=_merged_stats(program, artifacts),
                         target=tgt)


# ---------------------------------------------------------------------------
# incremental driver
# ---------------------------------------------------------------------------

def compile_program_incremental(
        program: Program, level: OptLevel = OptLevel.OS,
        target: Union[TargetDescription, str, None] = None,
        unit_cache=None, extra_key: str = "") -> CompileResult:
    """Delta-compile *program*: split into units, fetch cache-hot units,
    compile the misses, relink.

    *unit_cache* is a :class:`repro.engine.cache.CompileCache` (over a
    memory, disk or tiered backend); None compiles every unit.  Its
    lookup counters are the reuse accounting: a hit is a reused unit,
    a miss a compiled one.
    """
    tgt = resolve_target(target)
    plan = split_units(program, level=level, target=tgt,
                       extra_key=extra_key)
    artifacts: Dict[str, UnitArtifact] = {}
    for unit in plan.units:
        def compute(unit=unit):
            return compile_one_unit(program, unit, level, tgt)

        def valid(entry, unit=unit):
            # A corrupted entry, or an artifact stored under another
            # unit's key, must be a miss and a recompile, never a link.
            return isinstance(entry, UnitArtifact) \
                and entry.fingerprint == unit.fingerprint

        artifacts[unit.name] = compute() if unit_cache is None else \
            unit_cache.get_or_compute(unit.fingerprint, compute, valid)
    return link_units(program, artifacts, level, target=tgt)
