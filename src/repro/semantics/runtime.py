"""Run-to-completion interpreter for the UML subset.

This is the executable semantics the paper's tooling assumes: the same
semantics the code generators implement, so that a model and its
generated C++ behave identically.  The interpreter serves three roles:

* a *reference semantics* against which generated code is validated;
* the *model debugger* role discussed in paper §IV.B (traces record
  entries/exits/transitions);
* the oracle for the optimizer's behaviour-preservation checks
  (:mod:`repro.optim.equivalence`).

Supported: hierarchical (single region per level) machines, entry/exit
behaviors, guards over context attributes, completion transitions with
UML priority, choice/junction pseudostates, shallow/deep history,
terminate, internal transitions, event deferral/discard, and the
variation points of :mod:`repro.semantics.variation`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..uml.actions import (Assign, Behavior, CallStmt, EmitStmt, EvalError,
                           eval_expr)
from ..uml.events import AnyEvent, Event
from ..uml.statemachine import (FinalState, Pseudostate, PseudostateKind,
                                Region, State, StateMachine, Vertex)
from ..uml.transitions import Transition, TransitionKind
from .trace import Trace, TraceKind
from .variation import (ConflictPolicy, EventPoolPolicy, SemanticsConfig,
                        UnconsumedPolicy, UML_DEFAULT_SEMANTICS)

__all__ = ["MachineInstance", "ExecutionError"]


class ExecutionError(Exception):
    """Raised on runtime-semantic violations (stuck choice, step overflow,
    multiple orthogonal regions, ...)."""


def _enclosing_states(vertex: Vertex) -> Set[int]:
    """Element ids of the states (strictly) enclosing *vertex*."""
    ids: Set[int] = set()
    for anc in vertex.owner_chain():
        if isinstance(anc, State):
            ids.add(anc.element_id)
    return ids


class MachineInstance:
    """One executing instance of a state machine.

    Parameters
    ----------
    machine:
        The (validated) state machine to execute.
    config:
        Semantic variation point choices; defaults to UML semantics.
    externals:
        Mapping from external operation names to Python callables used to
        evaluate opaque calls.  Unmapped operations return 0; every call
        is recorded in the trace either way.
    """

    def __init__(self, machine: StateMachine,
                 config: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                 externals: Optional[Mapping[str, Callable]] = None) -> None:
        self.machine = machine
        self.config = config
        self.externals = dict(externals or {})
        self.attributes: Dict[str, int] = dict(machine.context.attributes)
        self._env_memo: Optional[Dict[str, Callable]] = None
        self.trace = Trace()
        # Active configuration: path of states, outermost -> innermost.
        self._active: List[State] = []
        self._history: Dict[int, str] = {}   # region id -> last substate name
        self._pool: deque = deque()
        #: High-water mark of the event pool.  The generated runtimes
        #: implement the paper's single-slot pending event, which is
        #: FIFO-equivalent exactly while this never exceeds 1; the fuzz
        #: oracle screens on it (a model that emits while another event
        #: is already pending is outside the fixed-code contract).
        self.max_pool_depth = 0
        self._deferred: List[Tuple[str, int]] = []
        self._completion_queue: deque = deque()
        self._completion_consumed: Set[int] = set()
        self._region_done: Dict[int, bool] = {}
        self._terminated = False
        self._started = False
        self._steps = 0
        if len(machine.regions) != 1:
            raise ExecutionError(
                "interpreter supports exactly one top region "
                f"(machine has {len(machine.regions)})")
        for state in machine.all_states():
            if len(state.regions) > 1:
                raise ExecutionError(
                    f"orthogonal regions not supported (state {state.label!r} "
                    f"has {len(state.regions)})")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start(self) -> "MachineInstance":
        """Take the top region's initial transition and run to completion."""
        if self._started:
            raise ExecutionError("machine already started")
        self._started = True
        top = self.machine.regions[0]
        initial = top.initial
        if initial is None:
            raise ExecutionError("top region has no initial pseudostate")
        transition = initial.outgoing()[0]
        self._run_effect(transition.effect)
        self._enter_target(transition.target)
        self._drain_completions()
        return self

    def dispatch(self, event: object, priority: int = 0) -> "MachineInstance":
        """Queue an event (by name or Event object) and run to completion."""
        if not self._started:
            raise ExecutionError("dispatch before start()")
        name = event.name if isinstance(event, Event) else str(event)
        self._pool.append((name, priority))
        self.max_pool_depth = max(self.max_pool_depth, len(self._pool))
        self._run_to_completion()
        return self

    def send_all(self, events: Sequence[object]) -> "MachineInstance":
        for event in events:
            self.dispatch(event)
        return self

    # -- observers -------------------------------------------------------
    @property
    def is_started(self) -> bool:
        return self._started

    @property
    def is_terminated(self) -> bool:
        return self._terminated

    @property
    def active_states(self) -> List[str]:
        """Names of active states, outermost first."""
        return [s.name for s in self._active]

    @property
    def current_state(self) -> Optional[str]:
        """Innermost active state name (None before start / after final)."""
        return self._active[-1].name if self._active else None

    @property
    def in_final(self) -> bool:
        """True when the top region reached its final state."""
        return self._started and not self._active and not self._terminated

    # ------------------------------------------------------------------
    # event processing
    # ------------------------------------------------------------------
    def _run_to_completion(self) -> None:
        self._drain_completions()
        while self._pool and not self._terminated:
            name, priority = self._take_pooled_event()
            self.trace.append(TraceKind.EVENT_DISPATCH, name)
            fired = self._fire_on_event(name)
            if fired:
                self._drain_completions()
                self._recall_deferred()
            elif self.config.unconsumed_events is UnconsumedPolicy.DEFER:
                self._deferred.append((name, priority))
                self.trace.append(TraceKind.EVENT_DROPPED, name, "deferred")
            else:
                self.trace.append(TraceKind.EVENT_DROPPED, name, "discarded")

    def _take_pooled_event(self) -> Tuple[str, int]:
        policy = self.config.event_pool
        if policy is EventPoolPolicy.FIFO:
            return self._pool.popleft()
        if policy is EventPoolPolicy.LIFO:
            return self._pool.pop()
        best_idx = max(range(len(self._pool)),
                       key=lambda i: (self._pool[i][1], -i))
        item = self._pool[best_idx]
        del self._pool[best_idx]
        return item

    def _recall_deferred(self) -> None:
        if not self._deferred:
            return
        recalled, self._deferred = self._deferred, []
        # Deferred events return to the pool ahead of newer arrivals.
        for item in reversed(recalled):
            self._pool.appendleft(item)
        self.max_pool_depth = max(self.max_pool_depth, len(self._pool))

    def _drain_completions(self) -> None:
        """Dispatch completion events, which outrank pooled events when the
        UML-mandated variation point is on (the property that kills the
        paper's composite state S3)."""
        self._queue_ripe_completions()
        while self._completion_queue and not self._terminated:
            state_name = self._completion_queue.popleft()
            state = self._find_active(state_name)
            if state is None:
                continue  # state was exited before its completion dispatched
            self._completion_consumed.add(state.element_id)
            self.trace.append(TraceKind.EVENT_DISPATCH,
                              f"__completion__({state_name})")
            transition = self._select_completion_transition(state)
            if transition is not None:
                self._fire(transition)
                self._queue_ripe_completions()

    def _queue_ripe_completions(self) -> None:
        """Queue completion events for active, complete states that still
        have an unconsumed completion event."""
        for state in list(self._active):
            if not state.completion_transitions():
                continue
            if state.element_id in self._completion_consumed:
                continue
            if state.name in self._completion_queue:
                continue
            if state.is_simple or self._region_done.get(state.element_id):
                self._completion_queue.append(state.name)

    # ------------------------------------------------------------------
    # transition selection
    # ------------------------------------------------------------------
    def _find_active(self, name: str) -> Optional[State]:
        for state in self._active:
            if state.name == name:
                return state
        return None

    def _select_completion_transition(self, state: State) -> Optional[Transition]:
        for transition in state.completion_transitions():
            if self._guard_true(transition):
                return transition
        return None

    def _fire_on_event(self, event_name: str) -> bool:
        """Find and fire the highest-priority enabled transition for a
        pooled event; returns True if one fired."""
        for state in self._active_path_by_policy():
            for transition in state.event_transitions():
                if self._trigger_matches(transition, event_name) and \
                        self._guard_true(transition):
                    self._fire(transition)
                    return True
        return False

    def _active_path_by_policy(self) -> List[State]:
        if self.config.conflict_resolution is ConflictPolicy.INNERMOST_FIRST:
            return list(reversed(self._active))
        return list(self._active)

    @staticmethod
    def _trigger_matches(transition: Transition, event_name: str) -> bool:
        for trig in transition.triggers:
            if isinstance(trig, AnyEvent) or trig.name == event_name:
                return True
        return False

    def _guard_true(self, transition: Transition) -> bool:
        if transition.guard is None:
            return True
        try:
            return bool(eval_expr(transition.guard, self.attributes,
                                  self._external_env()))
        except EvalError as exc:
            raise ExecutionError(
                f"guard of {transition.describe()} failed: {exc}") from exc

    # ------------------------------------------------------------------
    # firing machinery
    # ------------------------------------------------------------------
    def _fire(self, transition: Transition) -> None:
        self._check_step_budget()
        self.trace.append(TraceKind.TRANSITION, transition.describe())
        if transition.kind is TransitionKind.INTERNAL:
            self._run_effect(transition.effect)
            return
        source = transition.source
        # 1. Exit the source state (and everything nested in it).
        if isinstance(source, State) and source in self._active:
            while self._active:
                top = self._active[-1]
                self._exit_state(top)
                if top is source:
                    break
        # 2. Keep unwinding to the least common ancestor: the innermost
        #    active state must enclose the target.
        target_enclosure = _enclosing_states(transition.target)
        while self._active and \
                self._active[-1].element_id not in target_enclosure:
            self._exit_state(self._active[-1])
        # 3. Effect runs between exits and entries (UML order).
        self._run_effect(transition.effect)
        # 4. Enter the target (resolving pseudostate chains).
        self._enter_target(transition.target)

    def _exit_state(self, state: State) -> None:
        if not self._active or self._active[-1] is not state:
            raise ExecutionError(f"cannot exit inactive state {state.label!r}")
        container = state.container
        if container is not None:
            self._history[container.element_id] = state.name
        self._run_effect(state.exit)
        self.trace.append(TraceKind.STATE_EXIT, state.name)
        self._active.pop()
        self._region_done.pop(state.element_id, None)
        self._completion_consumed.discard(state.element_id)
        # Completion of an exited state is stale.
        try:
            self._completion_queue.remove(state.name)
        except ValueError:
            pass

    def _enter_target(self, target: Vertex) -> None:
        """Enter *target*, resolving pseudostate chains and performing
        default entry into composite states."""
        self._check_step_budget()
        if isinstance(target, State):
            self._enter_state_path(target)
            self._default_entry(target)
            return
        if isinstance(target, FinalState):
            self._enter_state_path_to_region(target)
            self._complete_region(target)
            return
        if isinstance(target, Pseudostate):
            self._enter_state_path_to_region(target)
            self._enter_pseudostate(target)
            return
        raise ExecutionError(f"cannot enter vertex {target!r}")

    def _enter_state_path(self, target: State) -> None:
        """Enter every not-yet-active composite enclosing *target*, outermost
        first, then *target* itself."""
        path = [target]
        for anc in target.ancestors():
            path.append(anc)
        for state in reversed(path):
            if state in self._active:
                continue
            self._active.append(state)
            self._run_effect(state.entry)
            self.trace.append(TraceKind.STATE_ENTER, state.name)

    def _enter_state_path_to_region(self, vertex: Vertex) -> None:
        """Ensure the composites enclosing a non-state vertex are active
        (needed when a transition targets a pseudostate/final nested in a
        composite the machine is not currently in)."""
        enclosing = [anc for anc in vertex.owner_chain()
                     if isinstance(anc, State)]
        for state in reversed(enclosing):
            if state not in self._active:
                self._active.append(state)
                self._run_effect(state.entry)
                self.trace.append(TraceKind.STATE_ENTER, state.name)

    def _default_entry(self, state: State) -> None:
        """Default entry of a composite: follow the nested region's initial
        transition (if the region has one)."""
        if not state.is_composite:
            return
        region = state.regions[0]
        initial = region.initial
        if initial is None:
            return  # region not entered (composite behaves like a simple state)
        transition = initial.outgoing()[0]
        self._run_effect(transition.effect)
        self._enter_target(transition.target)

    def _enter_pseudostate(self, pseudo: Pseudostate) -> None:
        kind = pseudo.kind
        if kind is PseudostateKind.TERMINATE:
            self._terminated = True
            self.trace.append(TraceKind.COMPLETED, "terminated")
            return
        if kind in (PseudostateKind.CHOICE, PseudostateKind.JUNCTION):
            chosen: Optional[Transition] = None
            fallback: Optional[Transition] = None
            for transition in pseudo.outgoing():
                if transition.guard is None:
                    fallback = fallback or transition  # the [else] branch
                elif self._guard_true(transition):
                    chosen = transition
                    break
            transition = chosen or fallback
            if transition is None:
                raise ExecutionError(
                    f"choice/junction {pseudo.qualified_name} is stuck: "
                    "no outgoing guard evaluates to true")
            self._run_effect(transition.effect)
            self._enter_target(transition.target)
            return
        if kind in (PseudostateKind.SHALLOW_HISTORY,
                    PseudostateKind.DEEP_HISTORY):
            region = pseudo.container
            assert region is not None
            last = self._history.get(region.element_id)
            if last is not None:
                for vertex in region.vertices:
                    if isinstance(vertex, State) and vertex.name == last:
                        self._enter_state_path(vertex)
                        self._default_entry(vertex)
                        return
            # No history yet: use the history's default transition, else the
            # region's initial transition.
            out = pseudo.outgoing()
            if out:
                self._run_effect(out[0].effect)
                self._enter_target(out[0].target)
                return
            initial = region.initial
            if initial is not None:
                self._enter_target(initial.outgoing()[0].target)
                return
            raise ExecutionError(
                f"history {pseudo.qualified_name} has no default entry")
        if kind in (PseudostateKind.ENTRY_POINT, PseudostateKind.EXIT_POINT):
            out = pseudo.outgoing()
            if not out:
                raise ExecutionError(
                    f"{kind.value} {pseudo.qualified_name} has no "
                    "outgoing transition")
            self._run_effect(out[0].effect)
            self._enter_target(out[0].target)
            return
        raise ExecutionError(f"unsupported pseudostate kind {kind!r}")

    def _complete_region(self, final: FinalState) -> None:
        """Entering a final state completes its region (and possibly the
        owning composite state / whole machine)."""
        region = final.container
        assert region is not None
        owner = region.owner
        self.trace.append(TraceKind.COMPLETED, region.label)
        if isinstance(owner, StateMachine):
            # Top region completed: exit everything.
            while self._active:
                self._exit_state(self._active[-1])
            return
        assert isinstance(owner, State)
        # Unwind the active path down to (but excluding) the composite.
        while self._active and self._active[-1] is not owner:
            self._exit_state(self._active[-1])
        self._region_done[owner.element_id] = True
        self._completion_consumed.discard(owner.element_id)

    # ------------------------------------------------------------------
    # behaviors
    # ------------------------------------------------------------------
    def _run_effect(self, behavior: Behavior) -> None:
        for stmt in behavior.statements:
            if isinstance(stmt, Assign):
                value = int(eval_expr(stmt.value, self.attributes,
                                      self._external_env()))
                self.attributes[stmt.target] = value
                self.trace.append(TraceKind.ASSIGN, stmt.target, value)
            elif isinstance(stmt, CallStmt):
                env = self._external_env()
                args = tuple(int(eval_expr(a, self.attributes, env))
                             for a in stmt.call.args)
                # One tracer for every call position: statement calls
                # go through the same traced wrapper as calls inside
                # guard/assign expressions (undeclared operations get a
                # wrapper on the fly — unvalidated machines only).
                fn = env.get(stmt.call.func)
                if fn is None:
                    fn = self._traced_external(
                        stmt.call.func, self.externals.get(stmt.call.func))
                fn(*args)
            elif isinstance(stmt, EmitStmt):
                self.trace.append(TraceKind.EMIT, stmt.event_name)
                self._pool.append((stmt.event_name, 0))
                self.max_pool_depth = max(self.max_pool_depth,
                                          len(self._pool))
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown statement {stmt!r}")

    def _external_env(self) -> Dict[str, Callable]:
        """Expression-evaluation environment: mapped externals plus a
        zero-returning default for declared but unmapped operations.

        Every callable is wrapped in a tracer: an external call is
        observable no matter where it appears syntactically — a call
        *statement*, an assign's right-hand side, a guard — because the
        generated code performs a real ``call`` instruction in each of
        those positions (the VM harness logs them all).  Tracing at
        call time keeps the record order identical to the compiled
        code's evaluation order (arguments left to right, ``&&``/``||``
        short-circuiting).
        """
        if self._env_memo is None:
            # Built once per instance: operations and the externals
            # mapping are fixed at construction, and guards/effects
            # request this environment on every single evaluation.
            env: Dict[str, Callable] = {
                name: self._traced_external(name, self.externals.get(name))
                for name in self.machine.context.operations
            }
            for name, fn in self.externals.items():
                if name not in env:
                    env[name] = self._traced_external(name, fn)
            self._env_memo = env
        return self._env_memo

    def _traced_external(self, name: str, fn: Optional[Callable]) -> Callable:
        def call(*args):
            int_args = tuple(int(a) for a in args)
            self.trace.append(TraceKind.CALL, name, int_args)
            if fn is None:
                return 0
            result = fn(*int_args)
            return 0 if result is None else result
        return call

    def _check_step_budget(self) -> None:
        self._steps += 1
        if self._steps > self.config.max_run_to_completion_steps:
            raise ExecutionError(
                "run-to-completion step budget exceeded "
                f"({self.config.max_run_to_completion_steps}); "
                "the model likely has an unguarded completion cycle")
