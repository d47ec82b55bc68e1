"""Compile a state machine into flat, table-driven dispatch arrays.

This is the paper's state-table pattern pushed to fleet scale: instead
of interpreting the model object graph per event (what
:class:`repro.semantics.runtime.MachineInstance` does), the machine's
*entire* reachable behavior is compiled once.  The hierarchy is
resolved by the codegen flattening
(:func:`repro.codegen.flattening.flatten_machine`, which the
``state-table`` and ``flat-switch`` generators read too); this module
turns its leaves and rows into

* a **configuration space** — every active configuration the machine
  can settle in.  With one region per level (the subset the whole
  pipeline supports) an active configuration is a root-to-leaf path of
  states, so it is identified by its leaf plus a "region done" bit for
  composites whose nested region reached its final state: a state leaf
  is ``(state, done=False)``, a nested final ``(owner, done=True)``,
  the top final :data:`FINAL_CONFIG`.  Only configurations reachable
  from the start program get an id, breadth first from it;
* a **dispatch table** ``cells[config][event] -> Cell``: the ordered
  candidate transitions a dispatch would try — the configuration's rows
  for that event or a wildcard, one per transition, which is the
  reference interpreter's order (innermost state first, document order
  within a state) — each carrying its **guard pre-compiled to a Python
  closure** and a :class:`FireProgram`: the row's exit/effect/entry/
  completion steps as closures with trace hooks, ending in the
  destination configuration;
* a **completion table** ``completion[config]`` for the UML-priority
  completion dispatch that runs after every fired transition.

Guards and behaviors are compiled to Python functions (via
``compile()``) over a per-lane variable bank, so a fleet of N instances
shares one table and pays no model-graph traversal per event.  Every
candidate whose program and completion chain cannot depend on per-lane
state gets a precomputed :class:`Route` (end configuration, consumed
flag, firings, calls).  A guard built only from attribute reads, int64
literals, booleans, the six comparisons, ``!``, ``&&`` and ``||`` also
compiles to a **lane mask** (:attr:`Candidate.mask`): its value on a
whole group of lanes in one NumPy expression.  When every candidate of
a cell up to its first unguarded one has a route, and each guarded one
a mask, the cell keeps them as :attr:`Cell.routes`, and the engine
advances a whole configuration group through it by masked stores (see
:mod:`repro.fleet.engine`).  A cell whose first candidate is unguarded
and routed is **static** (:attr:`Cell.static_end`): every lane lands in
one configuration whatever its variables.  Guards outside the mask
subset (arithmetic, unary minus on an attribute, calls, literals beyond
int64) and routes through assignments, emissions or guarded
completions leave their cell on the engine's scalar loop.

Shapes outside the supported subset (choice/junction/history/terminate
pseudostates, non-default semantics, orthogonal regions) raise
:class:`FleetUnsupported` — the same "documented feature gap" contract
the codegen patterns use, which the fuzz oracle counts as a skipped
cell rather than a divergence.
"""

from __future__ import annotations

from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as _np

from ..codegen.base import CodegenError
from ..codegen.flattening import (FlatTransition, LeafConfig, Step,
                                  flatten_machine)
from ..uml.actions import (Assign, Behavior, BinOp, BoolLit, CallExpr,
                           CallStmt, EmitStmt, Expr, IntLit, UnaryOp, VarRef)
from ..uml.events import AnyEvent
from ..uml.statemachine import (Pseudostate, PseudostateKind, State,
                                StateMachine)
from ..uml.transitions import Transition
from ..semantics.variation import (ConflictPolicy, EventPoolPolicy,
                                   SemanticsConfig, UML_DEFAULT_SEMANTICS,
                                   UnconsumedPolicy)

__all__ = ["FleetUnsupported", "FleetExecutionError", "TableProgram",
           "Cell", "Candidate", "FireProgram", "Route", "compile_table",
           "FINAL_CONFIG"]

#: Config id of "top region completed" (machine in final).  Always 0 so
#: engines can test ``config == FINAL_CONFIG`` vectorized.
FINAL_CONFIG = 0


class FleetUnsupported(Exception):
    """The machine (or semantics) is outside the table engine's subset."""


class FleetExecutionError(Exception):
    """Runtime-semantic violation in a fleet lane (step-budget overflow,
    division by zero — the analogues of
    :class:`repro.semantics.runtime.ExecutionError`)."""


# ---------------------------------------------------------------------------
# expression / behavior compilation
# ---------------------------------------------------------------------------

def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise FleetExecutionError("division by zero")
    return int(a / b)          # C-style truncation, as the interpreter


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        raise FleetExecutionError("division by zero")
    return a - int(a / b) * b


_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


def _lanes(value, idx):
    """A guard's value as a bool mask aligned with *idx* (a guard of
    literals alone evaluates to one scalar for every lane)."""
    mask = _np.asarray(value, dtype=bool)
    return mask if mask.shape == idx.shape else _np.full(idx.shape,
                                                         bool(mask))


class _ExprCompiler:
    """Expr -> Python source over ``(f, l)`` = (fleet, lane), and for
    guards in the mask subset also over ``(f, idx)`` (:meth:`mask_source`).

    Variable reads index the fleet's bank ``f.V[attr][lane]`` (coerced
    to Python int so arithmetic is exact); external calls go through
    ``f.call`` which evaluates, traces and dispatches to the mapped
    callable — mirroring the interpreter's traced-environment rule that
    a call is observable wherever it appears syntactically.
    """

    def __init__(self, attr_index: Dict[str, int]) -> None:
        self.attr_index = attr_index
        self.has_call = False

    def source(self, expr: Expr) -> str:
        if isinstance(expr, IntLit):
            return repr(expr.value)
        if isinstance(expr, BoolLit):
            return repr(expr.value)
        if isinstance(expr, VarRef):
            if expr.name not in self.attr_index:
                raise FleetUnsupported(
                    f"unbound context attribute {expr.name!r}")
            return f"int(V[{self.attr_index[expr.name]}][l])"
        if isinstance(expr, UnaryOp):
            inner = self.source(expr.operand)
            if expr.op == "!":
                return f"(not bool({inner}))"
            return f"(-int({inner}))"
        if isinstance(expr, BinOp):
            lhs, rhs = self.source(expr.lhs), self.source(expr.rhs)
            if expr.op == "&&":
                return f"(bool({lhs}) and bool({rhs}))"
            if expr.op == "||":
                return f"(bool({lhs}) or bool({rhs}))"
            if expr.op in _COMPARISONS:
                return f"(int({lhs}) {expr.op} int({rhs}))"
            if expr.op in ("+", "-", "*"):
                return f"(int({lhs}) {expr.op} int({rhs}))"
            if expr.op == "/":
                return f"_div(int({lhs}), int({rhs}))"
            return f"_mod(int({lhs}), int({rhs}))"
        if isinstance(expr, CallExpr):
            self.has_call = True
            args = ", ".join(self.source(a) for a in expr.args)
            trail = "," if expr.args else ""
            return f"f.call(l, {expr.func!r}, ({args}{trail}))"
        raise FleetUnsupported(f"cannot compile expression {expr!r}")

    def mask_source(self, expr: Expr) -> Optional[str]:
        """Expr -> NumPy source over ``(f, idx)``: its value on every lane
        of the index array *idx* at once; None outside the subset that
        can neither raise nor call (attribute reads, int64 literals,
        booleans, the six comparisons, ``!``, ``&&``, ``||``).  On that
        subset evaluating both sides of ``&&``/``||`` gives the scalar
        short-circuit's result, and comparisons on the int64 banks are
        exact."""
        if isinstance(expr, BoolLit):
            return repr(expr.value)
        if isinstance(expr, UnaryOp) and expr.op == "-" and \
                isinstance(expr.operand, IntLit):
            expr = IntLit(-expr.operand.value)   # a negative literal
        if isinstance(expr, IntLit):
            if _INT64_MIN <= expr.value <= _INT64_MAX:
                return repr(expr.value)
            return None
        if isinstance(expr, VarRef):
            return f"V[{self.attr_index[expr.name]}][idx]"
        if isinstance(expr, UnaryOp) and expr.op == "!":
            inner = self.mask_source(expr.operand)
            return None if inner is None else f"_np.logical_not({inner})"
        if isinstance(expr, BinOp) and (expr.op in _COMPARISONS
                                        or expr.op in ("&&", "||")):
            lhs, rhs = self.mask_source(expr.lhs), self.mask_source(expr.rhs)
            if lhs is None or rhs is None:
                return None
            if expr.op == "&&":
                return f"_np.logical_and({lhs}, {rhs})"
            if expr.op == "||":
                return f"_np.logical_or({lhs}, {rhs})"
            return f"({lhs} {expr.op} {rhs})"
        return None


_COMPILE_ENV = {"_div": _c_div, "_mod": _c_mod, "_np": _np,
                "_lanes": _lanes}


def _compile_fn(name: str, body_src: str) -> Callable:
    namespace = dict(_COMPILE_ENV)
    code = compile(body_src, f"<fleet:{name}>", "exec")
    exec(code, namespace)
    # Popped, not read: a function left in its own globals dict would
    # form a cycle (function -> globals -> function) that only the
    # cyclic collector frees.
    return namespace.pop(name)


class _BehaviorCompiler:
    """Compiles guards and behaviors once per machine (memoized by
    object identity — behaviors are shared between table cells)."""

    def __init__(self, attr_index: Dict[str, int],
                 attr_names: Sequence[str],
                 event_column: Dict[str, int], other_column: int) -> None:
        self.attr_index = attr_index
        self.attr_names = list(attr_names)
        self.event_column = event_column
        self.other_column = other_column
        self._behaviors: Dict[Tuple[int, ...], "_CompiledBehavior"] = {}
        self._guards: Dict[int, Tuple[Callable, Optional[Callable]]] = {}
        self._n = 0

    def guard(self, expr: Expr) -> Tuple[Callable, Optional[Callable]]:
        """``(closure, mask)`` for a guard expression; *mask* is its
        lane-mask form ``(f, idx) -> bool array`` (None when the guard
        is outside the mask subset, calls included)."""
        try:
            return self._guards[id(expr)]
        except KeyError:
            pass
        ec = _ExprCompiler(self.attr_index)
        src = ec.source(expr)
        self._n += 1
        name = f"_guard_{self._n}"
        fn = _compile_fn(
            name, f"def {name}(f, l):\n    V = f.V\n    return bool({src})\n")
        mask_src = ec.mask_source(expr)
        mask = None
        if mask_src is not None:
            mask = _compile_fn(
                f"{name}_mask", f"def {name}_mask(f, idx):\n    V = f.V\n"
                f"    return _lanes({mask_src}, idx)\n")
        self._guards[id(expr)] = (fn, mask)
        return fn, mask

    def behavior(self, *behaviors: Behavior
                 ) -> Optional["_CompiledBehavior"]:
        """The behaviors' statements compiled as one function, in order,
        or None when they have none."""
        behaviors = tuple(b for b in behaviors if b)
        if not behaviors:
            return None
        key = tuple(map(id, behaviors))
        try:
            return self._behaviors[key]
        except KeyError:
            pass
        ec = _ExprCompiler(self.attr_index)
        lines: List[str] = []
        has_assign = has_emit = False
        for stmt in (s for b in behaviors for s in b.statements):
            if isinstance(stmt, Assign):
                has_assign = True
                if stmt.target not in self.attr_index:
                    raise FleetUnsupported(
                        f"assignment to undeclared attribute "
                        f"{stmt.target!r}")
                idx = self.attr_index[stmt.target]
                lines.append(f"    _v = int({ec.source(stmt.value)})")
                lines.append(f"    V[{idx}][l] = _v")
                lines.append(f"    f.t_assign(l, {stmt.target!r}, _v)")
            elif isinstance(stmt, CallStmt):
                lines.append(f"    {ec.source(stmt.call)}")
            elif isinstance(stmt, EmitStmt):
                has_emit = True
                col = self.event_column.get(stmt.event_name,
                                            self.other_column)
                lines.append(
                    f"    f.emit(l, {col}, {stmt.event_name!r})")
            else:  # pragma: no cover - metamodel is closed
                raise FleetUnsupported(f"unknown statement {stmt!r}")
        self._n += 1
        name = f"_beh_{self._n}"
        src = f"def {name}(f, l):\n    V = f.V\n" + "\n".join(lines) + "\n"
        compiled = _CompiledBehavior(
            fn=_compile_fn(name, src), has_assign=has_assign,
            has_emit=has_emit, has_call=ec.has_call)
        self._behaviors[key] = compiled
        return compiled


class _CompiledBehavior:
    __slots__ = ("fn", "has_assign", "has_emit", "has_call")

    def __init__(self, fn: Callable, has_assign: bool, has_emit: bool,
                 has_call: bool) -> None:
        self.fn = fn
        self.has_assign = has_assign
        self.has_emit = has_emit
        self.has_call = has_call


# ---------------------------------------------------------------------------
# fire programs and table cells
# ---------------------------------------------------------------------------

class FireProgram:
    """One transition firing, resolved at compile time.

    ``ops`` is the exit/effect/entry sequence as ``(f, l)`` closures in
    the interpreter's exact execution order; ``end`` is the destination
    configuration id.  ``internal`` marks effect-only firings (the lane's
    configuration — and its consumed-completion flag — survive)."""

    __slots__ = ("ops", "end", "internal", "has_assign", "has_emit",
                 "has_call", "desc")

    def __init__(self, ops: Sequence[Callable], end: int, internal: bool,
                 has_assign: bool, has_emit: bool, has_call: bool,
                 desc: str) -> None:
        self.ops = tuple(ops)
        self.end = end
        self.internal = internal
        self.has_assign = has_assign
        self.has_emit = has_emit
        self.has_call = has_call
        self.desc = desc


class Route(NamedTuple):
    """Where a static candidate takes every lane that fires it, its
    completion chain included: the lanes' variables do not change and
    nothing is emitted."""

    #: destination configuration
    end: int
    #: the lanes' consumed-completion flag afterwards (None keeps the
    #: current one: internal firings)
    consumed: Optional[bool]
    #: transitions the scalar path fires along it (the program plus
    #: each completion firing)
    fired: int
    #: whether it performs external calls
    has_call: bool


class Candidate:
    """One transition a dispatch may try: pre-compiled guard (and its
    lane mask, when the guard has one) + program, and, in event cells,
    the program's static :class:`Route` (None when the outcome depends
    on the lane; completion cells are only walked inside routes)."""

    __slots__ = ("guard", "mask", "program", "route")

    def __init__(self, guard: Optional[Callable], mask: Optional[Callable],
                 program: FireProgram) -> None:
        self.guard = guard
        self.mask = mask
        self.program = program
        self.route: Optional[Route] = None


class Cell:
    """Dispatch table entry for one (configuration, event) pair.

    ``routes`` (when not None) lists the ``(mask, route)`` pairs a
    vectorized dispatch walks over a lane group: every candidate up to
    and including the first unguarded one, each with a route, each
    guarded one with a mask (``mask`` is None for the unguarded one).
    An empty tuple means no candidate: every lane discards the event.
    ``routes_call`` notes whether any of those routes performs external
    calls — a vectorized step may skip them only when nobody observes
    calls (no tracing, no mapped externals).  ``routes_fired`` is the
    most transitions any of them fires, which a vectorized step
    compares with the step budget.

    ``static_end`` (when not None) is the configuration every lane in
    this cell lands in regardless of per-lane state: the first candidate
    is unguarded and has a route.  ``static_consumed`` is the
    consumed-completion flag those lanes end up with (None = keep the
    lane's current flag — internal firings), ``static_has_call``
    whether that route calls."""

    __slots__ = ("candidates", "routes", "routes_call", "routes_fired")

    def __init__(self, candidates: Sequence[Candidate]) -> None:
        self.candidates = tuple(candidates)
        self.routes: Optional[Tuple[Tuple[Optional[Callable], Route],
                                    ...]] = None
        self.routes_call = False
        self.routes_fired = 0

    @property
    def empty(self) -> bool:
        return not self.candidates

    @property
    def static_route(self) -> Optional[Route]:
        """The first candidate's route when that candidate is
        unguarded: where every lane goes, whatever its variables."""
        first = self.candidates[0] if self.candidates else None
        return first.route if first and first.guard is None else None

    @property
    def static_end(self) -> Optional[int]:
        return self.static_route.end if self.static_route else None

    @property
    def static_consumed(self) -> Optional[bool]:
        return self.static_route.consumed if self.static_route else None

    @property
    def static_has_call(self) -> bool:
        return bool(self.static_route and self.static_route.has_call)


class TableProgram:
    """The compiled machine: configurations + dispatch/completion tables.

    * ``cells[config][column]`` — event dispatch (one column per
      alphabet event, plus a trailing out-of-alphabet column that only
      wildcard triggers populate);
    * ``completion[config]`` — completion candidates when the
      configuration is *ripe* (simple leaf, or composite leaf whose
      region is done), else None;
    * ``start`` — the initial transition's program (config
      :data:`FINAL_CONFIG` is 0; the start program never ends there for
      a machine whose initial targets a state).
    """

    def __init__(self, machine: StateMachine,
                 semantics: SemanticsConfig) -> None:
        self.machine = machine
        self.semantics = semantics
        self.attr_names: List[str] = list(machine.context.attributes)
        self.attr_defaults: List[int] = [
            machine.context.attributes[a] for a in self.attr_names]
        self.attr_index = {a: i for i, a in enumerate(self.attr_names)}
        self.event_names: List[str] = []
        for event in machine.events.values():
            if isinstance(event, AnyEvent):
                continue
            if event.name not in self.event_names:
                self.event_names.append(event.name)
        self.event_column = {n: i for i, n in enumerate(self.event_names)}
        self.other_column = len(self.event_names)
        self.n_columns = self.other_column + 1
        self.config_names: List[str] = ["<final>"]
        #: leaf state per config (None for the final config).
        self.leaves: List[Optional[State]] = [None]
        self.cells: List[List[Cell]] = []
        self.completion: List[Optional[Cell]] = []
        self.start: Optional[FireProgram] = None

    @property
    def n_configs(self) -> int:
        return len(self.config_names)

    def column_of(self, event_name: str) -> int:
        """Dispatch column of an event name (unknown names land in the
        wildcard-only column, like an out-of-alphabet dispatch)."""
        return self.event_column.get(event_name, self.other_column)

    def describe(self) -> str:
        static = sum(1 for row in self.cells for cell in row
                     if cell.static_end is not None or cell.empty)
        total = len(self.cells) * self.n_columns
        return (f"table[{self.machine.name}]: {self.n_configs} configs x "
                f"{self.n_columns} columns, {static}/{total} static cells")


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------

def _check_semantics(semantics: SemanticsConfig) -> None:
    if semantics.event_pool is not EventPoolPolicy.FIFO or \
            semantics.unconsumed_events is not UnconsumedPolicy.DISCARD or \
            semantics.conflict_resolution is not \
            ConflictPolicy.INNERMOST_FIRST or \
            not semantics.completion_priority:
        raise FleetUnsupported(
            "fleet tables implement the UML-default semantics "
            f"(got {semantics.describe()})")


def _fires_on(transition: Transition, name: Optional[str]) -> bool:
    """Whether *transition* takes the event *name* (None: an event
    outside the alphabet, which only a wildcard trigger takes)."""
    return any(isinstance(trig, AnyEvent) or trig.name == name
               for trig in transition.triggers)


class _TableBuilder:
    def __init__(self, machine: StateMachine,
                 semantics: SemanticsConfig) -> None:
        _check_semantics(semantics)
        if len(machine.regions) != 1:
            raise FleetUnsupported(
                "fleet tables support exactly one top region "
                f"(machine has {len(machine.regions)})")
        for state in machine.all_states():
            if len(state.regions) > 1:
                raise FleetUnsupported(
                    f"orthogonal regions not supported "
                    f"(state {state.label!r})")
        for vertex in machine.all_vertices():
            if isinstance(vertex, Pseudostate) and \
                    vertex.kind is not PseudostateKind.INITIAL:
                raise FleetUnsupported(
                    f"pseudostate kind {vertex.kind.value!r} not supported")
        try:
            self.flat = flatten_machine(machine)
        except CodegenError as exc:
            raise FleetUnsupported(str(exc)) from exc
        self.program = TableProgram(machine, semantics)
        self.bc = _BehaviorCompiler(self.program.attr_index,
                                    self.program.attr_names,
                                    self.program.event_column,
                                    self.program.other_column)
        #: (state, done) -> config id; FINAL_CONFIG preassigned.
        self._ids: Dict[Tuple[State, bool], int] = {}
        #: the leaf each config id was first reached at (None: FINAL)
        self._leaf_of: List[Optional[LeafConfig]] = [None]
        #: each leaf's rows, in flattening order
        self._rows: Dict[int, List[FlatTransition]] = {}
        for row in self.flat.transitions:
            self._rows.setdefault(row.source, []).append(row)
        self._worklist: List[int] = []

    # -- configuration ids ------------------------------------------------

    def _id_of(self, leaf_index: int) -> int:
        """Config id of a flattening leaf: the top final is
        :data:`FINAL_CONFIG`, a state leaf is ``(state, done=False)``, a
        nested final ``(owner, done=True)``; leaves that map to one
        pair share its id, assigned on first reach."""
        leaf = self.flat.leaves[leaf_index]
        if leaf.vertex_kind == "top-final":
            return FINAL_CONFIG
        done = leaf.vertex_kind == "final"
        state = leaf.vertex.container.owner if done else leaf.vertex
        cid = self._ids.get((state, done))
        if cid is None:
            cid = self._ids[state, done] = len(self.program.config_names)
            suffix = " (done)" if done else ""
            self.program.config_names.append(f"{state.name}{suffix}")
            self.program.leaves.append(state)
            self._leaf_of.append(leaf)
            self._worklist.append(cid)
        return cid

    # -- fire programs ----------------------------------------------------

    def _ops_exit(self, ops: List, flags: Dict[str, bool],
                  state: State) -> None:
        beh = self.bc.behavior(state.exit)
        name = state.name
        if beh is not None:
            self._merge(flags, beh)
            fn = beh.fn

            def op(f, l, fn=fn, name=name):
                fn(f, l)
                f.t_exit(l, name)
        else:
            def op(f, l, name=name):
                f.t_exit(l, name)
        ops.append(op)

    def _ops_enter(self, ops: List, flags: Dict[str, bool],
                   state: State) -> None:
        beh = self.bc.behavior(state.entry, state.do_activity)
        name = state.name
        if beh is not None:
            self._merge(flags, beh)
            fn = beh.fn

            def op(f, l, fn=fn, name=name):
                fn(f, l)
                f.t_enter(l, name)
        else:
            def op(f, l, name=name):
                f.t_enter(l, name)
        ops.append(op)

    def _ops_effect(self, ops: List, flags: Dict[str, bool],
                    behavior: Behavior) -> None:
        beh = self.bc.behavior(behavior)
        if beh is None:
            return
        self._merge(flags, beh)
        ops.append(beh.fn)

    def _ops_completed(self, ops: List, label: str) -> None:
        def op(f, l, label=label):
            f.t_completed(l, label)
        ops.append(op)

    @staticmethod
    def _merge(flags: Dict[str, bool], beh: _CompiledBehavior) -> None:
        flags["assign"] = flags["assign"] or beh.has_assign
        flags["emit"] = flags["emit"] or beh.has_emit
        flags["call"] = flags["call"] or beh.has_call

    def _program(self, steps: Sequence[Step], end: int, internal: bool,
                 desc: str) -> FireProgram:
        """A firing's steps as ``(f, l)`` closures with trace hooks."""
        flags = {"assign": False, "emit": False, "call": False}
        ops: List[Callable] = []
        for kind, element in steps:
            if kind == "exit":
                self._ops_exit(ops, flags, element)
            elif kind == "enter":
                self._ops_enter(ops, flags, element)
            elif kind == "effect":
                self._ops_effect(ops, flags, element)
            else:
                self._ops_completed(ops, element.label)
        return FireProgram(ops, end, internal, flags["assign"],
                           flags["emit"], flags["call"], desc)

    # -- cells ------------------------------------------------------------

    def _fill(self, config_id: int) -> None:
        """The event and completion cells of one configuration, from its
        leaf's rows (one candidate per transition, in row order)."""
        compiled: Dict[Transition, Candidate] = {}

        def candidate(row: FlatTransition) -> Candidate:
            cand = compiled.get(row.transition)
            if cand is None:
                guard_fn = mask = None
                if row.guard is not None:
                    guard_fn, mask = self.bc.guard(row.guard)
                program = self._program(
                    row.steps, self._id_of(row.target), row.internal,
                    row.transition.describe())
                cand = compiled[row.transition] = Candidate(
                    guard_fn, mask, program)
            return cand

        rows = self._rows.get(self._leaf_of[config_id].index, ())
        event_rows: Dict[Transition, FlatTransition] = {}
        for row in rows:
            if row.trigger is not None:
                event_rows.setdefault(row.transition, row)
        self.program.cells.append([
            Cell([candidate(row) for row in event_rows.values()
                  if _fires_on(row.transition, name)])
            for name in (*self.program.event_names, None)])
        completions = [candidate(row) for row in rows
                       if row.trigger is None]
        self.program.completion.append(
            Cell(completions) if completions else None)

    # -- static classification -------------------------------------------

    def _classify(self, program: FireProgram) -> Optional[Route]:
        """Static route of a program, completion chain included.

        Returns the :class:`Route` of every lane taking this program
        when each provably lands in one configuration with unchanged
        variables and no emissions; None otherwise.  Its ``consumed`` is
        None for internal event transitions (the current flag stays),
        True when the route ends by consuming a completion on an
        internal completion transition, False when the final
        configuration was freshly entered."""
        if program.has_assign or program.has_emit:
            return None
        has_call = program.has_call
        config = program.end
        if program.internal:
            # Internal firings keep the (already consumed — settle
            # invariant) completion flag and never re-dispatch one.
            return Route(config, None, 1, has_call)
        fired = 1
        seen = set()
        while True:
            cell = self.program.completion[config]
            if cell is None:
                # Landing configuration is not ripe: a fresh entry
                # leaves the completion unconsumed.
                return Route(config, False, fired, has_call)
            first = cell.candidates[0]
            if first.guard is not None:
                return None
            prog = first.program
            if prog.has_assign or prog.has_emit:
                return None
            has_call = has_call or prog.has_call
            fired += 1
            if prog.internal:
                # The completion was consumed; the effect-only firing
                # keeps the lane in the (ripe) configuration.
                return Route(config, True, fired, has_call)
            if config in seen:
                # Unguarded completion cycle: the runtime step budget
                # must catch it, lane by lane.
                return None
            seen.add(config)
            config = prog.end

    @staticmethod
    def _routes(cell: Cell
                ) -> Optional[Tuple[Tuple[Optional[Callable], Route], ...]]:
        """:attr:`Cell.routes` of a classified cell."""
        routes = []
        for cand in cell.candidates:
            if cand.route is None or (cand.guard is not None
                                      and cand.mask is None):
                return None
            routes.append((cand.mask, cand.route))
            if cand.guard is None:
                break      # later candidates are never tried
        return tuple(routes)

    def _classify_cells(self) -> None:
        for row in self.program.cells:
            for cell in row:
                for cand in cell.candidates:
                    cand.route = self._classify(cand.program)
                cell.routes = routes = self._routes(cell)
                if routes:
                    cell.routes_call = any(route.has_call
                                           for _, route in routes)
                    cell.routes_fired = max(route.fired
                                            for _, route in routes)

    # -- entry point ------------------------------------------------------

    def build(self) -> TableProgram:
        self.program.start = self._program(
            self.flat.initial_steps, self._id_of(self.flat.initial_leaf),
            False, "initial")
        # FINAL row: every dispatch is a drop.
        self.program.cells.append(
            [Cell(()) for _ in range(self.program.n_columns)])
        self.program.completion.append(None)
        # Breadth first from the start program's end; ids are assigned
        # in that order, so each configuration's row lands at its id.
        while self._worklist:
            self._fill(self._worklist.pop(0))
        self._classify_cells()
        return self.program


def compile_table(machine: StateMachine,
                  semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                  ) -> TableProgram:
    """Compile *machine* into a :class:`TableProgram` (raises
    :class:`FleetUnsupported` outside the supported subset)."""
    return _TableBuilder(machine, semantics).build()
