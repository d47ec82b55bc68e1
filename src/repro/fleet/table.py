"""Compile a state machine into flat, table-driven dispatch arrays.

This is the paper's state-table pattern pushed to fleet scale: instead
of interpreting the model object graph per event (what
:class:`repro.semantics.runtime.MachineInstance` does), the machine's
*entire* reachable behavior is compiled once into

* a **configuration space** — every active configuration the machine
  can settle in.  With one region per level (the subset the whole
  pipeline supports) an active configuration is a root-to-leaf path of
  states, so it is identified by its leaf plus a "region done" bit for
  composites whose nested region reached its final state;
* a **dispatch table** ``cells[config][event] -> Cell``: the ordered
  candidate transitions a dispatch would try, exactly in the reference
  interpreter's order (innermost state first, document order within a
  state), each carrying its **guard pre-compiled to a Python closure**
  and a :class:`FireProgram` — the exit/effect/entry sequence resolved
  at compile time down to the destination configuration;
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

try:                                   # lane masks need numpy; without it
    import numpy as _np                # every guarded cell runs scalar
except Exception:                      # pragma: no cover
    _np = None

from ..uml.actions import (Assign, Behavior, BinOp, BoolLit, CallExpr,
                           CallStmt, EmitStmt, Expr, IntLit, UnaryOp, VarRef)
from ..uml.events import AnyEvent
from ..uml.statemachine import (FinalState, Pseudostate, PseudostateKind,
                                State, StateMachine, Vertex)
from ..uml.transitions import Transition, TransitionKind
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
        self._behaviors: Dict[int, Optional["_CompiledBehavior"]] = {}
        self._guards: Dict[int, Tuple[Callable, Optional[Callable]]] = {}
        self._n = 0

    def guard(self, expr: Expr) -> Tuple[Callable, Optional[Callable]]:
        """``(closure, mask)`` for a guard expression; *mask* is its
        lane-mask form ``(f, idx) -> bool array`` (None when the guard
        is outside the mask subset, calls included, or NumPy is
        missing)."""
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
        mask_src = ec.mask_source(expr) if _np is not None else None
        mask = None
        if mask_src is not None:
            mask = _compile_fn(
                f"{name}_mask", f"def {name}_mask(f, idx):\n    V = f.V\n"
                f"    return _lanes({mask_src}, idx)\n")
        self._guards[id(expr)] = (fn, mask)
        return fn, mask

    def behavior(self, behavior: Behavior) -> Optional["_CompiledBehavior"]:
        """Compiled behavior, or None when it has no statements."""
        if not behavior:
            return None
        try:
            return self._behaviors[id(behavior)]
        except KeyError:
            pass
        ec = _ExprCompiler(self.attr_index)
        lines: List[str] = []
        has_assign = has_emit = False
        for stmt in behavior.statements:
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
        self._behaviors[id(behavior)] = compiled
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

_DEFAULTS = UML_DEFAULT_SEMANTICS


def _check_semantics(semantics: SemanticsConfig) -> None:
    if semantics.event_pool is not EventPoolPolicy.FIFO or \
            semantics.unconsumed_events is not UnconsumedPolicy.DISCARD or \
            semantics.conflict_resolution is not \
            ConflictPolicy.INNERMOST_FIRST or \
            not semantics.completion_priority:
        raise FleetUnsupported(
            "fleet tables implement the UML-default semantics "
            f"(got {semantics.describe()})")


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
        self.machine = machine
        self.program = TableProgram(machine, semantics)
        self.bc = _BehaviorCompiler(self.program.attr_index,
                                    self.program.attr_names,
                                    self.program.event_column,
                                    self.program.other_column)
        #: (leaf element_id, done) -> config id; FINAL_CONFIG preassigned.
        self._ids: Dict[Tuple[int, bool], int] = {}
        self._leaves: List[Optional[Tuple[State, bool]]] = [None]
        self._worklist: List[int] = []

    # -- configuration ids ------------------------------------------------

    def _config_id(self, leaf: State, done: bool) -> int:
        key = (leaf.element_id, done)
        try:
            return self._ids[key]
        except KeyError:
            cid = len(self.program.config_names)
            self._ids[key] = cid
            suffix = " (done)" if done else ""
            self.program.config_names.append(f"{leaf.name}{suffix}")
            self.program.leaves.append(leaf)
            self._leaves.append((leaf, done))
            self._worklist.append(cid)
            return cid

    @staticmethod
    def _path_of(leaf: State) -> List[State]:
        """Active path for a leaf, outermost -> innermost."""
        path = [leaf]
        path.extend(leaf.ancestors())
        path.reverse()
        return path

    # -- program resolution ----------------------------------------------

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
        beh = self.bc.behavior(state.entry)
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

    def _enter_state_path(self, active: List[State], target: State,
                          ops: List, flags: Dict[str, bool]) -> None:
        """Mirror of the interpreter's ``_enter_state_path``."""
        chain = [target]
        chain.extend(target.ancestors())
        for state in reversed(chain):
            if state not in active:
                active.append(state)
                self._ops_enter(ops, flags, state)

    def _enter_enclosing(self, active: List[State], vertex: Vertex,
                         ops: List, flags: Dict[str, bool]) -> None:
        """Mirror of ``_enter_state_path_to_region``."""
        enclosing = [anc for anc in vertex.owner_chain()
                     if isinstance(anc, State)]
        for state in reversed(enclosing):
            if state not in active:
                active.append(state)
                self._ops_enter(ops, flags, state)

    def _initial_transition(self, region) -> Transition:
        initial = region.initial
        if initial is None:
            raise FleetUnsupported(
                f"region {region.label!r} has no initial pseudostate")
        out = initial.outgoing()
        if not out:
            raise FleetUnsupported(
                f"initial of region {region.label!r} has no outgoing "
                "transition")
        return out[0]

    def _resolve_enter(self, active: List[State], target: Vertex,
                       ops: List, flags: Dict[str, bool]) -> int:
        """Enter *target* (resolving default entries and finals);
        returns the destination config id."""
        if isinstance(target, State):
            self._enter_state_path(active, target, ops, flags)
            return self._default_entry(active, target, ops, flags)
        if isinstance(target, FinalState):
            self._enter_enclosing(active, target, ops, flags)
            return self._complete_region(active, target, ops, flags)
        raise FleetUnsupported(f"cannot enter vertex {target!r}")

    def _default_entry(self, active: List[State], state: State,
                       ops: List, flags: Dict[str, bool]) -> int:
        current = state
        for _ in range(4096):
            if not current.is_composite:
                return self._config_id(current, False)
            region = current.regions[0]
            if region.initial is None:
                # Region never entered: the composite behaves like a
                # simple state (and can never complete).
                return self._config_id(current, False)
            transition = self._initial_transition(region)
            self._ops_effect(ops, flags, transition.effect)
            target = transition.target
            if isinstance(target, State):
                self._enter_state_path(active, target, ops, flags)
                current = target
                continue
            if isinstance(target, FinalState):
                self._enter_enclosing(active, target, ops, flags)
                return self._complete_region(active, target, ops, flags)
            raise FleetUnsupported(
                f"initial transition targets {target!r}")
        raise FleetUnsupported("default-entry chain does not terminate")

    def _complete_region(self, active: List[State], final: FinalState,
                         ops: List, flags: Dict[str, bool]) -> int:
        region = final.container
        assert region is not None
        owner = region.owner
        self._ops_completed(ops, region.label)
        if isinstance(owner, StateMachine):
            while active:
                self._ops_exit(ops, flags, active.pop())
            return FINAL_CONFIG
        assert isinstance(owner, State)
        while active and active[-1] is not owner:
            self._ops_exit(ops, flags, active.pop())
        if not active:        # pragma: no cover - model invariant
            raise FleetUnsupported(
                f"final state {final.label!r} completes an inactive region")
        return self._config_id(owner, True)

    def _resolve_fire(self, path: Sequence[State], config_id: int,
                      transition: Transition) -> FireProgram:
        flags = {"assign": False, "emit": False, "call": False}
        ops: List[Callable] = []
        if transition.kind is TransitionKind.INTERNAL:
            self._ops_effect(ops, flags, transition.effect)
            return FireProgram(ops, config_id, True, flags["assign"],
                               flags["emit"], flags["call"],
                               transition.describe())
        active = list(path)
        source = transition.source
        if isinstance(source, State) and source in active:
            while active:
                top = active.pop()
                self._ops_exit(ops, flags, top)
                if top is source:
                    break
        enclosure = {anc.element_id for anc in
                     transition.target.owner_chain()
                     if isinstance(anc, State)}
        while active and active[-1].element_id not in enclosure:
            self._ops_exit(ops, flags, active.pop())
        self._ops_effect(ops, flags, transition.effect)
        end = self._resolve_enter(active, transition.target, ops, flags)
        return FireProgram(ops, end, False, flags["assign"],
                           flags["emit"], flags["call"],
                           transition.describe())

    # -- cells ------------------------------------------------------------

    def _candidate(self, path: Sequence[State], config_id: int,
                   transition: Transition) -> Candidate:
        guard_fn = mask = None
        if transition.guard is not None:
            guard_fn, mask = self.bc.guard(transition.guard)
        program = self._resolve_fire(path, config_id, transition)
        return Candidate(guard_fn, mask, program)

    def _matches(self, transition: Transition, column: int) -> bool:
        for trig in transition.triggers:
            if isinstance(trig, AnyEvent):
                return True
            if column != self.program.other_column and \
                    trig.name == self.program.event_names[column]:
                return True
        return False

    def _build_config(self, config_id: int) -> None:
        leaf, done = self._leaves[config_id]
        path = self._path_of(leaf)
        row: List[Cell] = []
        for column in range(self.program.n_columns):
            candidates: List[Candidate] = []
            for state in reversed(path):     # innermost first
                for transition in state.event_transitions():
                    if self._matches(transition, column):
                        candidates.append(
                            self._candidate(path, config_id, transition))
            row.append(Cell(candidates))
        completions = leaf.completion_transitions()
        ripe = bool(completions) and (leaf.is_simple or done)
        completion_cell: Optional[Cell] = None
        if ripe:
            completion_cell = Cell([
                self._candidate(path, config_id, t) for t in completions])
        # Rows are keyed by config id; fill any gap left by configs
        # discovered out of order.
        while len(self.program.cells) <= config_id:
            self.program.cells.append([])
            self.program.completion.append(None)
        self.program.cells[config_id] = row
        self.program.completion[config_id] = completion_cell

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
        top = self.machine.regions[0]
        transition = self._initial_transition(top)
        flags = {"assign": False, "emit": False, "call": False}
        ops: List[Callable] = []
        self._ops_effect(ops, flags, transition.effect)
        end = self._resolve_enter([], transition.target, ops, flags)
        self.program.start = FireProgram(
            ops, end, False, flags["assign"], flags["emit"], flags["call"],
            "initial")
        while self._worklist:
            self._build_config(self._worklist.pop(0))
        # FINAL row: every dispatch is a drop.
        if not self.program.cells:
            self.program.cells.append(
                [Cell(()) for _ in range(self.program.n_columns)])
            self.program.completion.append(None)
        else:
            self.program.cells[FINAL_CONFIG] = \
                [Cell(()) for _ in range(self.program.n_columns)]
            self.program.completion[FINAL_CONFIG] = None
        self._classify_cells()
        return self.program


def compile_table(machine: StateMachine,
                  semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                  ) -> TableProgram:
    """Compile *machine* into a :class:`TableProgram` (raises
    :class:`FleetUnsupported` outside the supported subset)."""
    return _TableBuilder(machine, semantics).build()
