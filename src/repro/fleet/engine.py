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

``dispatch_all(event)`` is the throughput primitive.  A fleet whose
lanes all hold one configuration — every lane of a fleet that starts
identical and takes one stream, until per-lane attribute values split
them at a guard — is one group, the precomputed every-lane index, with
no grouping work at all; the fleet records that configuration and keeps
the record true at every write to ``config``.  Otherwise lanes are
grouped by configuration (one ``config == c`` mask each, snapshotted
*before* any lane moves so a lane never sees the same event twice).  A
group whose cell has :attr:`~repro.fleet.table.Cell.routes` advances by
lane masks: the cell's candidates are walked over the group in the
scalar loop's order, a guarded one taking the lanes its mask selects
among those left, an unguarded one every lane left, and the taken lanes
store their route's configuration and consumed flag in one masked store
each; lanes no candidate takes discard the event.  So unguarded routes
(static cells) and static routes behind mask guards advance without a
per-lane step.  A group falls back to the scalar run-to-completion loop
— compiled-closure candidate scan, guard evaluation on that lane only,
completion settle — when a candidate it may try has no route
(assignments, emissions, guarded completions) or its guard no mask
(arithmetic, calls, literals beyond int64), when a route calls and
calls are observable (mapped externals), or when a route fires more
transitions than the step budget allows (the scalar loop then raises on
the lane and firing the budget catches).  Lanes with pending events
and traced fleets (traces are per-lane objects) take the scalar loop
throughout; it is the reference the wide-lane checks compare the masked
path against, and both count the same firings and charge the same step
budget.

The step budget bounds one run to completion: a lane's ``start()``, or
one event's dispatch to it with the completion and emitted events that
follow (the interpreter's budget covers one ``start()`` or
``dispatch()`` alike), so a stream of any length never exhausts it.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

import numpy as _np

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
        Transition firings one lane may take in one run to completion
        (its start, or one event and the completion and emitted events
        that follow), mirroring the interpreter's per-call
        run-to-completion step budget (its counter ticks at least as
        fast as this one, so a scenario the interpreter survives never
        trips the fleet).  Defaults to the semantics' budget.  ``None``
        removes the guard; unguarded completion cycles then spin
        forever, exactly as a generated runtime would.

    Only the fleet writes its ``config`` and ``consumed`` banks; callers
    may set attribute values in ``V``.
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
        self.V = [_np.full(self.n, default, dtype=_np.int64)
                  for default in program.attr_defaults]
        self.config = _np.full(self.n, FINAL_CONFIG, dtype=_np.int32)
        self.consumed = _np.zeros(self.n, dtype=bool)
        #: the configuration every lane holds, or None when lanes may
        #: differ; every write to ``config`` after start() keeps it true
        self._uniform: Optional[int] = None
        self._every_lane = _np.arange(self.n)
        #: firings of the run to completion in progress
        self._steps = 0
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
        return int((self.config == FINAL_CONFIG).sum())

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
                bank[1:] = bank[0]
            self.config[1:] = self.config[0]
            self.consumed[1:] = self.consumed[0]
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
        self._steps = 0
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
        if self._traces is not None:
            # Per-lane observers: scalar everywhere.
            for lane in range(self.n):
                self._rtc(lane, col, name)
            self.stats.scalar_lane_events += self.n
            return self

        cells = self.program.cells
        if not self._pending:
            uniform = self._uniform
            if uniform is None and (self.config == self.config[0]).all():
                uniform = self._uniform = int(self.config[0])
            if uniform is not None:
                self._step_group(cells[uniform][col], self._every_lane,
                                 col, name)
                return self

        # Grouped lanes hold no record: _advance reads a set one as
        # "this group is every lane".
        self._uniform = None
        snap = self.config.copy()   # group before any lane moves
        pend_lanes = sorted(self._pending) if self._pending else ()
        pend_mask = None
        if pend_lanes:
            pend_mask = _np.zeros(self.n, dtype=bool)
            pend_mask[_np.array(pend_lanes, dtype=_np.int64)] = True
        for c in _np.unique(snap):
            mask = snap == c
            if pend_mask is not None:
                mask &= ~pend_mask
            self._step_group(cells[int(c)][col], _np.flatnonzero(mask),
                             col, name)
        for lane in pend_lanes:
            self._rtc(lane, col, name)
            self.stats.scalar_lane_events += 1
        return self

    def _step_group(self, cell, lanes, col: int, name: str) -> None:
        """Advance *lanes* (one configuration's, ascending) through
        *cell*: by masked stores when its routes allow, else by the
        scalar loop lane by lane."""
        routes = cell.routes
        budget = self.step_budget
        if routes is not None and \
                not (cell.routes_call and self._calls_observable) and \
                (budget is None or cell.routes_fired <= budget):
            if routes:
                self._advance(lanes, routes)
            self.stats.fast_lane_events += lanes.size
            return
        for lane in lanes.tolist():
            self._rtc(lane, col, name)
        self.stats.scalar_lane_events += lanes.size

    def _advance(self, lanes, routes) -> None:
        """Move *lanes* along a cell's
        :attr:`~repro.fleet.table.Cell.routes` by masked stores.

        Each guarded route takes the lanes its mask selects among those
        no earlier route took, an unguarded route takes every lane left,
        and lanes no route takes discard the event.  Routes change no
        variable, so every mask reads the values the scalar loop's
        guards would.  When *lanes* is every lane of a one-configuration
        fleet, the record of that configuration follows: still one when
        every lane lands in one configuration, None when they split."""
        ends = set()
        for mask, route in routes:
            if mask is None:
                part, lanes = lanes, None
            else:
                hit = mask(self, lanes)
                part, lanes = lanes[hit], lanes[~hit]
            if part.size:
                self.config[part] = route.end
                if route.consumed is not None:
                    self.consumed[part] = route.consumed
                self.stats.fired += route.fired * part.size
                ends.add(route.end)
            if lanes is None:
                break
        if self._uniform is not None:
            if lanes is not None and lanes.size:
                ends.add(self._uniform)
            self._uniform = ends.pop() if len(ends) == 1 else None

    def run_stream(self, events: Sequence[object]) -> "Fleet":
        for event in events:
            self.dispatch_all(event)
        return self

    # ------------------------------------------------------------------
    # scalar run-to-completion (the reference-faithful path)
    # ------------------------------------------------------------------
    def _rtc(self, lane: int, col: int, name: str) -> None:
        self._steps = 0
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
        self._uniform = None
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
        self._steps += 1
        if self._steps > self.step_budget:
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
