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

A machine's structure is indexed once, into a :class:`MachinePlan`; an
instance reads only its plan and never walks the model, so one plan
serves every instance of a machine (:class:`repro.exec.InterpreterExecutor`
memoizes it per machine).  :meth:`MachineInstance.fork` copies an
instance mid-run, so scenarios that share a prefix can share its
dispatches: the differential runner (:func:`repro.exec.observe`) replays
a scenario set as a prefix trie, forking at each branch point.
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from ..uml.actions import (Assign, Behavior, CallStmt, EmitStmt, EvalError,
                           eval_expr)
from ..uml.events import AnyEvent, Event
from ..uml.statemachine import (FinalState, Pseudostate, PseudostateKind,
                                Region, State, StateMachine, Vertex)
from ..uml.transitions import Transition, TransitionKind
from .trace import Trace, TraceKind
from .variation import (ConflictPolicy, EventPoolPolicy, SemanticsConfig,
                        UnconsumedPolicy, UML_DEFAULT_SEMANTICS)

__all__ = ["MachineInstance", "MachinePlan", "ExecutionError"]


class ExecutionError(Exception):
    """Raised on runtime-semantic violations (stuck choice, step overflow,
    multiple orthogonal regions, ...)."""


def _fires_on(transition: Transition, event_name: str) -> bool:
    return any(isinstance(trig, AnyEvent) or trig.name == event_name
               for trig in transition.triggers)


class MachinePlan:
    """The interpreter's index of one machine, built once.

    It holds everything a :class:`MachineInstance` would otherwise
    recompute by walking the model on every step (``Vertex.outgoing()``
    scans every transition of the machine):

    * ``outgoing``: the transitions leaving each vertex, in
      ``all_transitions()`` order;
    * ``completion``: each state's completion transitions;
    * ``on_event``: for each state, event name -> the event transitions
      that event can fire, in outgoing order; ``any_event``: those a
      name no trigger names can fire (wildcard triggers);
    * ``entry_path``: the states entered to rest in a vertex, outermost
      first, the vertex included when it is a state; ``enclosing``: the
      states strictly enclosing a vertex;
    * ``container``: each vertex's region; ``initial``: each region's
      initial pseudostate;
    * ``described``: each transition's trace description;
      ``operations``: the declared operation names.

    Building a plan checks the supported shape (exactly one top region,
    no orthogonal regions) and raises :class:`ExecutionError` otherwise.
    The plan holds the machine's elements, so the machine must not be
    edited once planned.
    """

    def __init__(self, machine: StateMachine) -> None:
        if len(machine.regions) != 1:
            raise ExecutionError(
                "interpreter supports exactly one top region "
                f"(machine has {len(machine.regions)})")
        for state in machine.all_states():
            if len(state.regions) > 1:
                raise ExecutionError(
                    f"orthogonal regions not supported (state {state.label!r} "
                    f"has {len(state.regions)})")
        self.machine = machine
        self.top: Region = machine.regions[0]
        self.operations: FrozenSet[str] = frozenset(machine.context.operations)
        vertices = list(machine.all_vertices())
        transitions = list(machine.all_transitions())
        outgoing: Dict[Vertex, List[Transition]] = {v: [] for v in vertices}
        for transition in transitions:
            outgoing[transition.source].append(transition)
        self.outgoing: Dict[Vertex, Tuple[Transition, ...]] = {
            vertex: tuple(out) for vertex, out in outgoing.items()}
        self.described: Dict[Transition, str] = {
            transition: transition.describe() for transition in transitions}
        self.initial: Dict[Region, Optional[Pseudostate]] = {
            region: region.initial for region in machine.all_regions()}
        self.completion: Dict[State, Tuple[Transition, ...]] = {}
        self.on_event: Dict[State, Dict[str, Tuple[Transition, ...]]] = {}
        self.any_event: Dict[State, Tuple[Transition, ...]] = {}
        self.entry_path: Dict[Vertex, Tuple[State, ...]] = {}
        self.enclosing: Dict[Vertex, FrozenSet[State]] = {}
        self.container: Dict[Vertex, Optional[Region]] = {}
        for vertex in vertices:
            enclosing = [anc for anc in vertex.owner_chain()
                         if isinstance(anc, State)]       # innermost first
            enclosing.reverse()
            if isinstance(vertex, State):
                self._index_state(vertex)
                self.entry_path[vertex] = (*enclosing, vertex)
            else:
                self.entry_path[vertex] = tuple(enclosing)
            self.enclosing[vertex] = frozenset(enclosing)
            self.container[vertex] = vertex.container

    def _index_state(self, state: State) -> None:
        out = self.outgoing[state]
        self.completion[state] = tuple(t for t in out if not t.triggers)
        triggered = [t for t in out if t.triggers]
        names = {trig.name for t in triggered for trig in t.triggers
                 if not isinstance(trig, AnyEvent)}
        self.on_event[state] = {
            name: tuple(t for t in triggered if _fires_on(t, name))
            for name in names}
        self.any_event[state] = tuple(
            t for t in triggered
            if any(isinstance(trig, AnyEvent) for trig in t.triggers))


class _ExternalEnv(dict):
    """Expression-evaluation environment of one instance: mapped
    externals plus a zero-returning default for declared but unmapped
    operations.

    Every callable is wrapped in a tracer: an external call is
    observable no matter where it appears syntactically — a call
    *statement*, an assign's right-hand side, a guard — because the
    generated code performs a real ``call`` instruction in each of
    those positions (the VM harness logs them all).  Tracing at call
    time keeps the record order identical to the compiled code's
    evaluation order (arguments left to right, ``&&``/``||``
    short-circuiting).

    A name's wrapper is built on its first use: a replay creates an
    instance per scenario, and each calls few of the machine's
    operations.  ``name in env`` is what an expression may call (the
    declared and the mapped names); ``env[name]`` also serves call
    statements to undeclared operations (unvalidated machines only).
    """

    __slots__ = ("_trace", "_externals", "_declared")

    def __init__(self, trace: Trace, externals: Mapping[str, Callable],
                 declared: FrozenSet[str]) -> None:
        super().__init__()
        self._trace = trace
        self._externals = externals
        self._declared = declared

    def __contains__(self, name: object) -> bool:
        return name in self._declared or name in self._externals

    def __missing__(self, name: str) -> Callable:
        trace, fn = self._trace, self._externals.get(name)

        def call(*args):
            int_args = tuple(map(int, args))
            trace.append(TraceKind.CALL, name, int_args)
            if fn is None:
                return 0
            result = fn(*int_args)
            return 0 if result is None else result
        self[name] = call
        return call


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
    plan:
        The machine's :class:`MachinePlan`, to share one across
        instances; built here when omitted.
    """

    def __init__(self, machine: StateMachine,
                 config: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                 externals: Optional[Mapping[str, Callable]] = None, *,
                 plan: Optional[MachinePlan] = None) -> None:
        if plan is None:
            plan = MachinePlan(machine)
        elif plan.machine is not machine:
            raise ValueError("plan was built for a different machine")
        self.machine = machine
        self.plan = plan
        self.config = config
        self.externals = dict(externals or {})
        self.attributes: Dict[str, int] = dict(machine.context.attributes)
        self.trace = Trace()
        self._env = _ExternalEnv(self.trace, self.externals, plan.operations)
        # Active configuration: path of states, outermost -> innermost.
        self._active: List[State] = []
        self._history: Dict[Region, State] = {}   # region -> last substate
        self._pool: deque = deque()
        #: High-water mark of the event pool.  The generated runtimes
        #: implement the paper's single-slot pending event, which is
        #: FIFO-equivalent exactly while this never exceeds 1; the fuzz
        #: oracle screens on it (a model that emits while another event
        #: is already pending is outside the fixed-code contract).
        self.max_pool_depth = 0
        self._deferred: List[Tuple[str, int]] = []
        # Completion bookkeeping is keyed by state identity: only sibling
        # names are unique, so a nested state may share a name with an
        # enclosing one.
        self._completion_queue: deque = deque()
        self._completion_consumed: Set[State] = set()
        self._region_done: Set[State] = set()
        self._terminated = False
        self._started = False
        self._steps = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def start(self) -> "MachineInstance":
        """Take the top region's initial transition and run to completion."""
        if self._started:
            raise ExecutionError("machine already started")
        self._started = True
        initial = self.plan.initial[self.plan.top]
        if initial is None:
            raise ExecutionError("top region has no initial pseudostate")
        transition = self.plan.outgoing[initial][0]
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
        # The budget bounds one call: the event and the completion and
        # emitted events it causes.
        self._steps = 0
        self._run_to_completion()
        return self

    def send_all(self, events: Sequence[object]) -> "MachineInstance":
        for event in events:
            self.dispatch(event)
        return self

    def fork(self) -> "MachineInstance":
        """An independent instance at the same point of the same run:
        dispatching on either leaves the other untouched.

        The plan and the config are read-only and shared; everything a
        run mutates is copied, the trace included.  The copy gets its
        own expression environment, because the cached call wrappers
        write into the trace they were built for.  An instance with
        externals cannot be forked: an external callable may keep state
        that two copies would share.
        """
        if self.externals:
            raise ValueError("cannot fork an instance with externals "
                             f"({', '.join(sorted(self.externals))})")
        clone = MachineInstance.__new__(MachineInstance)
        clone.machine = self.machine
        clone.plan = self.plan
        clone.config = self.config
        clone.externals = {}
        clone.attributes = dict(self.attributes)
        clone.trace = self.trace.copy()
        clone._env = _ExternalEnv(clone.trace, clone.externals,
                                  self.plan.operations)
        clone._active = list(self._active)
        clone._history = dict(self._history)
        clone._pool = deque(self._pool)
        clone.max_pool_depth = self.max_pool_depth
        clone._deferred = list(self._deferred)
        clone._completion_queue = deque(self._completion_queue)
        clone._completion_consumed = set(self._completion_consumed)
        clone._region_done = set(self._region_done)
        clone._terminated = self._terminated
        clone._started = self._started
        clone._steps = self._steps
        return clone

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
            state = self._completion_queue.popleft()
            if state not in self._active:
                continue  # state was exited before its completion dispatched
            self._completion_consumed.add(state)
            self.trace.append(TraceKind.EVENT_DISPATCH,
                              f"__completion__({state.name})")
            transition = self._select_completion_transition(state)
            if transition is not None:
                self._fire(transition)
                self._queue_ripe_completions()

    def _queue_ripe_completions(self) -> None:
        """Queue completion events for active, complete states that still
        have an unconsumed completion event."""
        completion = self.plan.completion
        for state in self._active:
            if not completion[state] or state in self._completion_consumed \
                    or state in self._completion_queue:
                continue
            if state.is_simple or state in self._region_done:
                self._completion_queue.append(state)

    # ------------------------------------------------------------------
    # transition selection
    # ------------------------------------------------------------------
    def _select_completion_transition(self, state: State) -> Optional[Transition]:
        for transition in self.plan.completion[state]:
            if self._guard_true(transition):
                return transition
        return None

    def _fire_on_event(self, event_name: str) -> bool:
        """Find and fire the highest-priority enabled transition for a
        pooled event; returns True if one fired."""
        on_event, any_event = self.plan.on_event, self.plan.any_event
        if self.config.conflict_resolution is ConflictPolicy.INNERMOST_FIRST:
            states = self._active[::-1]
        else:
            states = self._active[:]
        for state in states:
            for transition in on_event[state].get(event_name) \
                    or any_event[state]:
                if self._guard_true(transition):
                    self._fire(transition)
                    return True
        return False

    def _guard_true(self, transition: Transition) -> bool:
        if transition.guard is None:
            return True
        try:
            return bool(eval_expr(transition.guard, self.attributes,
                                  self._env))
        except EvalError as exc:
            raise ExecutionError(
                f"guard of {self.plan.described[transition]} failed: "
                f"{exc}") from exc

    # ------------------------------------------------------------------
    # firing machinery
    # ------------------------------------------------------------------
    def _fire(self, transition: Transition) -> None:
        self._check_step_budget()
        self.trace.append(TraceKind.TRANSITION,
                          self.plan.described[transition])
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
        target_enclosure = self.plan.enclosing[transition.target]
        while self._active and self._active[-1] not in target_enclosure:
            self._exit_state(self._active[-1])
        # 3. Effect runs between exits and entries (UML order).
        self._run_effect(transition.effect)
        # 4. Enter the target (resolving pseudostate chains).
        self._enter_target(transition.target)

    def _exit_state(self, state: State) -> None:
        if not self._active or self._active[-1] is not state:
            raise ExecutionError(f"cannot exit inactive state {state.label!r}")
        container = self.plan.container[state]
        if container is not None:
            self._history[container] = state
        self._run_effect(state.exit)
        self.trace.append(TraceKind.STATE_EXIT, state.name)
        self._active.pop()
        self._region_done.discard(state)
        self._completion_consumed.discard(state)
        # Completion of an exited state is stale.
        if state in self._completion_queue:
            self._completion_queue.remove(state)

    def _enter_target(self, target: Vertex) -> None:
        """Enter *target*, resolving pseudostate chains and performing
        default entry into composite states."""
        self._check_step_budget()
        if isinstance(target, State):
            self._enter_path(target)
            self._default_entry(target)
            return
        if isinstance(target, FinalState):
            self._enter_path(target)
            self._complete_region(target)
            return
        if isinstance(target, Pseudostate):
            self._enter_path(target)
            self._enter_pseudostate(target)
            return
        raise ExecutionError(f"cannot enter vertex {target!r}")

    def _enter_path(self, vertex: Vertex) -> None:
        """Enter every not-yet-active state on *vertex*'s entry path,
        outermost first: the composites enclosing it, then the vertex
        itself when it is a state (a transition may target a vertex
        nested in a composite the machine is not currently in)."""
        for state in self.plan.entry_path[vertex]:
            if state in self._active:
                continue
            self._active.append(state)
            self._run_effect(state.entry)
            self.trace.append(TraceKind.STATE_ENTER, state.name)

    def _default_entry(self, state: State) -> None:
        """Default entry of a composite: follow the nested region's initial
        transition (if the region has one)."""
        if state.is_simple:
            return
        initial = self.plan.initial[state.regions[0]]
        if initial is None:
            return  # region not entered (composite behaves like a simple state)
        transition = self.plan.outgoing[initial][0]
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
            for transition in self.plan.outgoing[pseudo]:
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
            region = self.plan.container[pseudo]
            assert region is not None
            last = self._history.get(region)
            if last is not None:
                self._enter_path(last)
                self._default_entry(last)
                return
            # No history yet: use the history's default transition, else the
            # region's initial transition.
            out = self.plan.outgoing[pseudo]
            if out:
                self._run_effect(out[0].effect)
                self._enter_target(out[0].target)
                return
            initial = self.plan.initial[region]
            if initial is not None:
                self._enter_target(self.plan.outgoing[initial][0].target)
                return
            raise ExecutionError(
                f"history {pseudo.qualified_name} has no default entry")
        if kind in (PseudostateKind.ENTRY_POINT, PseudostateKind.EXIT_POINT):
            out = self.plan.outgoing[pseudo]
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
        region = self.plan.container[final]
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
        self._region_done.add(owner)
        self._completion_consumed.discard(owner)

    # ------------------------------------------------------------------
    # behaviors
    # ------------------------------------------------------------------
    def _run_effect(self, behavior: Behavior) -> None:
        env = self._env
        for stmt in behavior.statements:
            if isinstance(stmt, Assign):
                value = int(eval_expr(stmt.value, self.attributes, env))
                self.attributes[stmt.target] = value
                self.trace.append(TraceKind.ASSIGN, stmt.target, value)
            elif isinstance(stmt, CallStmt):
                args = tuple(int(eval_expr(a, self.attributes, env))
                             for a in stmt.call.args)
                # One tracer for every call position: statement calls
                # go through the same traced wrapper as calls inside
                # guard/assign expressions.
                env[stmt.call.func](*args)
            elif isinstance(stmt, EmitStmt):
                self.trace.append(TraceKind.EMIT, stmt.event_name)
                self._pool.append((stmt.event_name, 0))
                self.max_pool_depth = max(self.max_pool_depth,
                                          len(self._pool))
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown statement {stmt!r}")

    def _check_step_budget(self) -> None:
        self._steps += 1
        if self._steps > self.config.max_run_to_completion_steps:
            raise ExecutionError(
                "run-to-completion step budget exceeded "
                f"({self.config.max_run_to_completion_steps}); "
                "the model likely has an unguarded completion cycle")
