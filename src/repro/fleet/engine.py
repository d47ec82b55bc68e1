"""Fleet runtime: advance N instances of one compiled table per step.

A :class:`Fleet` holds the *per-lane* state of N machine instances that
share one :class:`~repro.fleet.table.TableProgram`:

* ``config``  — int32 lane -> configuration id;
* ``V``       — int64 bank per context attribute (``V[attr][lane]``);
* ``consumed``— bool lane -> "the current leaf's completion event has
  been dispatched" (the one sticky bit the run-to-completion semantics
  needs per lane — see the table module's configuration-space argument);
* sparse per-lane pending-event queues (non-empty only between
  ``start()`` and the first dispatch: emissions drain within the
  run-to-completion step that produced them, exactly like the
  interpreter's pool).

``dispatch_all(event)`` is the throughput primitive.  Lanes are grouped
by configuration (one ``config == c`` mask each, snapshotted *before*
any lane moves so a lane never sees the same event twice); groups whose
dispatch cell is **static** advance with one vectorized store, the rest
fall back to the scalar run-to-completion loop — compiled-closure
candidate scan, guard evaluation on that lane only, completion settle —
which is also the only path taken when tracing is on (traces are
per-lane objects) or when external callables must observe calls.

NumPy supplies the banks when available; a pure-list fallback keeps the
engine importable (and correct, just slower) without it.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

try:                                   # the container bakes numpy in,
    import numpy as _np                # but the engine must not require it
except Exception:                      # pragma: no cover
    _np = None

from ..semantics.trace import Trace, TraceKind
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.statemachine import StateMachine
from .table import (FINAL_CONFIG, FleetExecutionError, TableProgram,
                    compile_table)

__all__ = ["Fleet", "FleetStats"]


class FleetStats:
    """Dispatch accounting for one fleet (lane-events, not wall time)."""

    __slots__ = ("fast_lane_events", "scalar_lane_events", "fired")

    def __init__(self) -> None:
        self.fast_lane_events = 0
        self.scalar_lane_events = 0
        self.fired = 0

    @property
    def lane_events(self) -> int:
        return self.fast_lane_events + self.scalar_lane_events

    @property
    def fast_fraction(self) -> float:
        total = self.lane_events
        return self.fast_lane_events / total if total else 0.0


def _int_bank(n: int, fill: int):
    if _np is not None:
        return _np.full(n, fill, dtype=_np.int64)
    return [fill] * n


def _config_bank(n: int, fill: int):
    if _np is not None:
        return _np.full(n, fill, dtype=_np.int32)
    return [fill] * n


def _bool_bank(n: int, fill: bool):
    if _np is not None:
        return _np.full(n, fill, dtype=bool)
    return [fill] * n


class Fleet:
    """N lanes of one machine, stepped together.

    Parameters
    ----------
    program:
        A :class:`TableProgram` (or a :class:`StateMachine`, compiled on
        the spot with *semantics*).
    n_lanes:
        Fleet width.
    externals:
        Mapping of external operation names to callables, shared by all
        lanes (callables take the call's integer arguments; lane order
        within one batch is ascending, so side effects are
        deterministic).  Mapping any external disables the vectorized
        skip of call-bearing routes.
    trace:
        Keep a per-lane :class:`~repro.semantics.trace.Trace`.  Forces
        the scalar path for every lane (records are per-lane), so turn
        it on only for conformance-sized fleets.
    step_budget:
        Per-lane lifetime budget of transition firings, mirroring the
        interpreter's run-to-completion step budget (its counter ticks
        at least as fast as this one, so a scenario the interpreter
        survives never trips the fleet).  ``None`` removes the guard —
        for long throughput streams; unguarded completion cycles then
        spin forever, exactly as a generated runtime would.
    """

    def __init__(self, program, n_lanes: int, *,
                 externals: Optional[Mapping[str, Callable]] = None,
                 trace: bool = False,
                 semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                 step_budget: Optional[int] = -1) -> None:
        if isinstance(program, StateMachine):
            program = compile_table(program, semantics)
        if n_lanes < 1:
            raise ValueError("a fleet needs at least one lane")
        self.program: TableProgram = program
        self.n = int(n_lanes)
        self.externals: Dict[str, Callable] = dict(externals or {})
        if step_budget == -1:
            step_budget = program.semantics.max_run_to_completion_steps
        self.step_budget = step_budget
        self.stats = FleetStats()
        self._started = False
        #: calls are observable per lane: the fast path must not skip
        #: call-bearing static routes.
        self._calls_observable = bool(self.externals) or trace
        self.V = [_int_bank(self.n, default)
                  for default in program.attr_defaults]
        self.config = _config_bank(self.n, FINAL_CONFIG)
        self.consumed = _bool_bank(self.n, False)
        self._steps = _int_bank(self.n, 0)
        self._pending: Dict[int, deque] = {}
        self._traces: Optional[List[Trace]] = (
            [Trace() for _ in range(self.n)] if trace else None)

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    @property
    def is_started(self) -> bool:
        return self._started

    def trace_of(self, lane: int) -> Trace:
        if self._traces is None:
            raise FleetExecutionError(
                "fleet was built without tracing (pass trace=True)")
        return self._traces[lane]

    def lane_in_final(self, lane: int) -> bool:
        return int(self.config[lane]) == FINAL_CONFIG

    def finals(self) -> int:
        """Number of lanes whose top region completed."""
        if _np is not None:
            return int((self.config == FINAL_CONFIG).sum())
        return sum(1 for c in self.config if c == FINAL_CONFIG)

    def attribute(self, lane: int, name: str) -> int:
        return int(self.V[self.program.attr_index[name]][lane])

    def attributes_of(self, lane: int) -> Dict[str, int]:
        return {name: int(self.V[i][lane])
                for i, name in enumerate(self.program.attr_names)}

    def config_name(self, lane: int) -> str:
        return self.program.config_names[int(self.config[lane])]

    def current_state(self, lane: int) -> Optional[str]:
        """Innermost active state name (None once in final)."""
        leaf = self.program.leaves[int(self.config[lane])]
        return leaf.name if leaf is not None else None

    def active_states(self, lane: int) -> List[str]:
        """Active state names, outermost first (interpreter order)."""
        leaf = self.program.leaves[int(self.config[lane])]
        if leaf is None:
            return []
        path = [leaf.name]
        path.extend(s.name for s in leaf.ancestors())
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Fleet":
        """Run every lane's initial transition to completion.

        All lanes are identical at boot, so without per-lane observers
        (traces, externals) the start program runs once on lane 0 and
        the result is broadcast."""
        if self._started:
            raise FleetExecutionError("fleet already started")
        self._started = True
        start = self.program.start
        if start is None:   # pragma: no cover - compile_table always sets it
            raise FleetExecutionError("table has no start program")
        if not self._calls_observable and self.n > 1:
            self._start_lane(0)
            for bank in self.V:
                if _np is not None:
                    bank[1:] = bank[0]
                else:
                    bank[1:] = [bank[0]] * (self.n - 1)
            first_cfg = self.config[0]
            first_consumed = self.consumed[0]
            first_steps = self._steps[0]
            if _np is not None:
                self.config[1:] = first_cfg
                self.consumed[1:] = first_consumed
                self._steps[1:] = first_steps
            else:
                self.config[1:] = [first_cfg] * (self.n - 1)
                self.consumed[1:] = [first_consumed] * (self.n - 1)
                self._steps[1:] = [first_steps] * (self.n - 1)
            leftovers = self._pending.get(0)
            if leftovers:
                for lane in range(1, self.n):
                    self._pending[lane] = deque(leftovers)
        else:
            for lane in range(self.n):
                self._start_lane(lane)
        return self

    def _start_lane(self, lane: int) -> None:
        start = self.program.start
        try:
            for op in start.ops:
                op(self, lane)
            self.config[lane] = start.end
            self._settle(lane)
        except OverflowError as exc:   # int64 bank overflow
            raise FleetExecutionError(
                f"lane {lane}: attribute value out of 64-bit range "
                f"({exc})") from exc

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch_all(self, event: object) -> "Fleet":
        """Route one event to every lane and run each to completion."""
        if not self._started:
            raise FleetExecutionError("dispatch before start()")
        name = getattr(event, "name", None) or str(event)
        col = self.program.column_of(name)
        if self._traces is not None or _np is None:
            # Per-lane observers (or no numpy): scalar everywhere.
            for lane in range(self.n):
                self._rtc(lane, col, name)
            self.stats.scalar_lane_events += self.n
            return self

        snap = self.config.copy()   # group before any lane moves
        pend_lanes = sorted(self._pending) if self._pending else ()
        pend_mask = None
        if pend_lanes:
            pend_mask = _np.zeros(self.n, dtype=bool)
            pend_mask[_np.array(pend_lanes, dtype=_np.int64)] = True
        cells = self.program.cells
        for c in _np.unique(snap):
            cell = cells[int(c)][col]
            mask = snap == c
            if pend_mask is not None:
                mask &= ~pend_mask
            if cell.empty:
                # Nobody can consume the event: vectorized discard.
                self.stats.fast_lane_events += int(mask.sum())
                continue
            if cell.static_end is not None and \
                    not (cell.static_has_call and self._calls_observable):
                lanes = int(mask.sum())
                self.config[mask] = cell.static_end
                if cell.static_consumed is not None:
                    self.consumed[mask] = cell.static_consumed
                self.stats.fast_lane_events += lanes
                self.stats.fired += lanes
            else:
                for lane in _np.nonzero(mask)[0]:
                    self._rtc(int(lane), col, name)
                    self.stats.scalar_lane_events += 1
        for lane in pend_lanes:
            self._rtc(lane, col, name)
            self.stats.scalar_lane_events += 1
        return self

    def run_stream(self, events: Sequence[object]) -> "Fleet":
        for event in events:
            self.dispatch_all(event)
        return self

    # ------------------------------------------------------------------
    # scalar run-to-completion (the reference-faithful path)
    # ------------------------------------------------------------------
    def _rtc(self, lane: int, col: int, name: str) -> None:
        q = self._pending.get(lane)
        if q is None:
            q = deque()
            self._pending[lane] = q
        q.append((col, name))
        try:
            while q:
                c, n = q.popleft()
                self._dispatch_lane_event(lane, c, n)
        except OverflowError as exc:   # int64 bank overflow
            raise FleetExecutionError(
                f"lane {lane}: attribute value out of 64-bit range "
                f"({exc})") from exc
        finally:
            if not q:
                del self._pending[lane]

    def _dispatch_lane_event(self, lane: int, col: int, name: str) -> None:
        trace = self._traces[lane] if self._traces is not None else None
        if trace is not None:
            trace.append(TraceKind.EVENT_DISPATCH, name)
        cell = self.program.cells[int(self.config[lane])][col]
        for cand in cell.candidates:
            if cand.guard is None or cand.guard(self, lane):
                self._fire(lane, cand.program, trace)
                self._settle(lane)
                return
        if trace is not None:
            trace.append(TraceKind.EVENT_DROPPED, name, "discarded")

    def _fire(self, lane: int, program, trace: Optional[Trace]) -> None:
        self._budget(lane)
        if trace is not None:
            trace.append(TraceKind.TRANSITION, program.desc)
        for op in program.ops:
            op(self, lane)
        self.config[lane] = program.end
        if not program.internal:
            self.consumed[lane] = False
        self.stats.fired += 1

    def _settle(self, lane: int) -> None:
        """Completion-priority drain: dispatch the (single possible)
        ripe completion until the lane is stable."""
        trace = self._traces[lane] if self._traces is not None else None
        while True:
            cfg = int(self.config[lane])
            cell = self.program.completion[cfg]
            if cell is None or self.consumed[lane]:
                return
            self.consumed[lane] = True
            if trace is not None:
                leaf = self.program.leaves[cfg]
                trace.append(TraceKind.EVENT_DISPATCH,
                             f"__completion__({leaf.name})")
            for cand in cell.candidates:
                if cand.guard is None or cand.guard(self, lane):
                    self._fire(lane, cand.program, trace)
                    break

    def _budget(self, lane: int) -> None:
        if self.step_budget is None:
            return
        steps = self._steps[lane] + 1
        self._steps[lane] = steps
        if steps > self.step_budget:
            raise FleetExecutionError(
                f"lane {lane}: run-to-completion step budget exceeded "
                f"({self.step_budget}); the model likely has an "
                "unguarded completion cycle")

    # ------------------------------------------------------------------
    # hooks for compiled closures (see table._ExprCompiler)
    # ------------------------------------------------------------------
    def call(self, lane: int, name: str, args: Tuple) -> int:
        int_args = tuple(int(a) for a in args)
        if self._traces is not None:
            self._traces[lane].append(TraceKind.CALL, name, int_args)
        fn = self.externals.get(name)
        if fn is None:
            return 0
        result = fn(*int_args)
        return 0 if result is None else int(result)

    def emit(self, lane: int, col: int, name: str) -> None:
        if self._traces is not None:
            self._traces[lane].append(TraceKind.EMIT, name)
        q = self._pending.get(lane)
        if q is None:   # pragma: no cover - emits happen mid-RTC
            q = deque()
            self._pending[lane] = q
        q.append((col, name))

    def t_assign(self, lane: int, name: str, value: int) -> None:
        if self._traces is not None:
            self._traces[lane].append(TraceKind.ASSIGN, name, value)

    def t_enter(self, lane: int, name: str) -> None:
        if self._traces is not None:
            self._traces[lane].append(TraceKind.STATE_ENTER, name)

    def t_exit(self, lane: int, name: str) -> None:
        if self._traces is not None:
            self._traces[lane].append(TraceKind.STATE_EXIT, name)

    def t_completed(self, lane: int, label: str) -> None:
        if self._traces is not None:
            self._traces[lane].append(TraceKind.COMPLETED, label)
