"""The differential runner: replay stimuli, summarize, compare by one rule.

Every behaviour-preservation check in the repo is one question asked of
two executors — model vs. optimized model, model vs. compiled code,
model vs. fleet, and the fuzz oracle's N-way grid — so they share one
engine (McKeeman's differential testing) with thin per-backend
adapters:

* :func:`observe` loads the machine once per executor and replays every
  stimulus, summarizing each run as an :class:`Observation`;
* :func:`diff` applies the one comparison rule,
  :meth:`Observation.matches` — observable payloads, plus the final
  flag, plus the terminated flag;
* :func:`cached_observations` is :func:`observe` through an
  :class:`~repro.engine.ExperimentEngine`'s content-addressed cache.

Scenario sets are prefix-closed (every sequence up to some depth, as in
the W-method suites of FSM conformance testing), so :func:`observe`
replays them as a prefix trie when the loaded instance can be copied
mid-run: it dispatches each distinct prefix once, forks the instance
where prefixes branch, and builds each observation by extending its
parent prefix's instead of rescanning the whole trace.  Only the
reference interpreter's instances offer ``fork()``; VM and fleet
instances replay each stimulus on a fresh instance through
:meth:`Instance.run_scenario`.  The VM stays on that loop because
asking it for its final flag runs simulated code, which would count
against every later observation of a shared instance.

A backend's typed run error becomes the observation's ``error``; a
shape its load step documents as unsupported becomes an
``unsupported: ...`` error on every stimulus.  Nothing a backend does
with a machine raises out of :func:`observe`.  What a backend measures
beside the behaviour rides along as :attr:`Observation.extra`, never
compared: the interpreter's event-pool high-water mark, the VM's cycle
accounting, the wide fleet's lane agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..semantics.trace import TraceKind, TraceRecord
from ..uml.statemachine import StateMachine
from .protocol import Executor, Instance, PlainEvent, normalize_stimuli

__all__ = ["Observation", "UNSUPPORTED_PREFIX", "observe", "diff",
           "cached_observations"]

#: Error prefix marking "this executor rejects the machine's shape"
#: (e.g. nested-switch refusing cross-region transitions).
UNSUPPORTED_PREFIX = "unsupported: "

_OBSERVABLE = tuple(kind.value for kind in (TraceKind.CALL, TraceKind.EMIT,
                                             TraceKind.ASSIGN))


@dataclass(frozen=True)
class Observation:
    """One executor's externally-visible behaviour on one stimulus.

    Small, picklable and executor-neutral, so observations survive the
    on-disk cache: trace kinds are flattened to their string values.
    ``kinds`` (every record kind seen, internal ones included) is not
    compared; the fuzz runner feeds it to its coverage map.
    """

    payloads: Tuple[Tuple[str, Tuple], ...] = ()
    final: bool = False
    terminated: bool = False
    kinds: Tuple[str, ...] = ()
    error: Optional[str] = None
    #: The backend's by-product of a completed run (see the module
    #: docstring); ``None`` when the run raised.
    extra: Any = None

    @classmethod
    def of(cls, instance: Instance, error: Optional[str] = None
           ) -> "Observation":
        """Summarize *instance* after its run (with *error*: after it
        raised, keeping the trace up to the failure)."""
        scan = _Scan()
        if instance.is_started:
            scan = scan.extend(instance.trace.records)
        return scan.observation(instance, error)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def unsupported(self) -> bool:
        return self.error is not None and \
            self.error.startswith(UNSUPPORTED_PREFIX)

    def matches(self, other: "Observation") -> bool:
        """The one rule: same payloads, final flag and terminated flag."""
        return (self.payloads == other.payloads
                and self.final == other.final
                and self.terminated == other.terminated)

    def first_difference(self, other: "Observation") -> str:
        """Human-readable description of the first disagreement."""
        for i, (a, b) in enumerate(zip(self.payloads, other.payloads)):
            if a != b:
                return f"record {i}: {a} vs {b}"
        if len(self.payloads) != len(other.payloads):
            shorter = min(len(self.payloads), len(other.payloads))
            longer = (self.payloads if len(self.payloads) > shorter
                      else other.payloads)
            return (f"record {shorter}: one side ends, other has "
                    f"{longer[shorter]}")
        if self.final != other.final:
            return f"final-state: {self.final} vs {other.final}"
        if self.terminated != other.terminated:
            return f"termination: {self.terminated} vs {other.terminated}"
        return "no difference"

    def max_assigned_magnitude(self) -> int:
        """Largest |value| this run assigned to a context attribute
        (the fuzz oracle's word-width screen uses it)."""
        worst = 0
        for kind, detail in self.payloads:
            if kind == "assign" and len(detail) == 2:
                worst = max(worst, abs(int(detail[1])))
        return worst


class _Scan(NamedTuple):
    """What a run's trace shows up to record ``scanned``: the observable
    payloads, and the values of every record kind seen, sorted.  A run
    that continues an observed prefix extends the prefix's scan."""

    payloads: Tuple[Tuple[str, Tuple], ...] = ()
    kinds: Tuple[str, ...] = ()
    scanned: int = 0

    def extend(self, records: Sequence[TraceRecord]) -> "_Scan":
        """This scan carried over ``records[scanned:]``."""
        payloads, kinds = [], self.kinds
        for record in records[self.scanned:]:
            # ``TraceKind.value`` is a Python-level property; the
            # member's ``_value_`` is a plain attribute.
            kind = record.kind._value_
            if kind not in kinds:
                kinds = tuple(sorted((*kinds, kind)))
            if kind in _OBSERVABLE:
                payloads.append((kind, record.detail))
        return _Scan(self.payloads + tuple(payloads), kinds, len(records))

    def observation(self, instance: Instance,
                    error: Optional[str] = None) -> Observation:
        """The observation of *instance*, whose trace this scanned."""
        if error is not None:
            return Observation(payloads=self.payloads, kinds=self.kinds,
                               error=error)
        # Read the extra first: asking the VM for its final flag runs
        # simulated code, which its cycle accounting must not include.
        extra = instance.extra
        return Observation(payloads=self.payloads, final=instance.in_final,
                           terminated=instance.is_terminated,
                           kinds=self.kinds, extra=extra)


def observe(executor: Executor, machine: StateMachine,
            stimuli: Sequence[object]) -> Tuple[Observation, ...]:
    """Replay every stimulus on *machine*, one observation per stimulus,
    in stimulus order.

    The executor memoizes its load work (compile, table build), so the
    machine is compiled once however many stimuli there are.  A load
    failure observes the same error for every stimulus:
    ``unsupported: ...`` for a shape the backend documents as outside
    its subset, ``load failed: ...`` for anything else.

    When the loaded instance offers ``fork()`` (the interpreter's
    does), the stimuli are replayed as a prefix trie (:func:`_walk`):
    each distinct prefix is dispatched once, on one instance copied at
    the branch points.  Otherwise each stimulus runs on a fresh
    instance.  Either way every observation equals what a run of that
    stimulus alone observes.
    """
    out: List[Observation] = []
    for stimulus in stimuli:
        try:
            instance = executor.load(machine)
        except executor.shape_errors as exc:
            return _failed(stimuli, f"{UNSUPPORTED_PREFIX}{exc}")
        except Exception as exc:   # a backend crash is a verdict too
            return _failed(stimuli,
                           f"load failed: {type(exc).__name__}: {exc}")
        # One executor's loads all give the same kind of instance, so
        # the first decides how every stimulus is replayed.
        if hasattr(instance, "fork"):
            return _walk(executor, instance, stimuli)
        try:
            instance.run_scenario(stimulus)
        except executor.run_errors as exc:
            out.append(Observation.of(instance, error=_error(exc)))
            continue
        out.append(Observation.of(instance))
    return tuple(out)


class _Node:
    """One distinct stimulus prefix: the events that extend it, and the
    indexes of the stimuli that end at it."""

    __slots__ = ("children", "ends")

    def __init__(self) -> None:
        # Keyed by (name, payload): the payload is the pool priority, so
        # one name with two payloads is two edges.
        self.children: Dict[PlainEvent, "_Node"] = {}
        self.ends: List[int] = []

    def below(self) -> Iterator[int]:
        """The indexes of the stimuli at or below this node."""
        pending = [self]
        while pending:
            node = pending.pop()
            yield from node.ends
            pending.extend(node.children.values())


def _walk(executor: Executor, instance: Instance,
          stimuli: Sequence[object]) -> Tuple[Observation, ...]:
    """Replay *stimuli* as a prefix trie from the fresh *instance*.

    Depth first, each edge is dispatched once.  A node's first child
    continues on the node's instance itself, and runs after its
    siblings have each continued on a ``fork()`` of it, so a node with
    one child makes no copy.  Each observation extends its parent
    node's scan.  Errors and termination act as in
    :meth:`Instance.run_scenario`: the stimuli at or below an edge that
    raised observe the error, and those at or below a terminated node
    observe that node (nothing more is dispatched).
    """
    root = _Node()
    for index, stimulus in enumerate(stimuli):
        node = root
        for edge in normalize_stimuli(stimulus):
            child = node.children.get(edge)
            if child is None:
                child = node.children[edge] = _Node()
            node = child
        node.ends.append(index)
    out: List[Optional[Observation]] = [None] * len(stimuli)
    try:
        instance.start()
    except executor.run_errors as exc:
        failure = Observation.of(instance, error=_error(exc))
        return tuple(failure for _ in stimuli)
    # (node, the instance its edge continues, that edge, the parent's
    # scan, whether to continue on a fork of the instance)
    pending = [(root, instance, None, _Scan(), False)]
    while pending:
        node, instance, edge, scan, fork = pending.pop()
        if fork:
            instance = instance.fork()
        if edge is not None:
            try:
                instance.dispatch(*edge)
            except executor.run_errors as exc:
                failure = scan.extend(instance.trace.records).observation(
                    instance, _error(exc))
                for index in node.below():
                    out[index] = failure
                continue
        scan = scan.extend(instance.trace.records)
        if instance.is_terminated:
            observed = scan.observation(instance)
            for index in node.below():
                out[index] = observed
            continue
        if node.ends:
            observed = scan.observation(instance)
            for index in node.ends:
                out[index] = observed
        fork = False
        for edge, child in node.children.items():
            pending.append((child, instance, edge, scan, fork))
            fork = True
    return tuple(out)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _failed(stimuli: Sequence[object], error: str
            ) -> Tuple[Observation, ...]:
    failure = Observation(error=error)
    return tuple(failure for _ in stimuli)


def diff(reference: Sequence[Observation],
         observed: Sequence[Observation]) -> List[Tuple[int, str]]:
    """``(stimulus index, reason)`` for every stimulus where *observed*
    breaks the one rule against *reference*; a run that raised on
    either side is a mismatch."""
    mismatches = []
    for index, (ref, obs) in enumerate(zip(reference, observed)):
        if not ref.ok:
            mismatches.append((index, f"reference raised: {ref.error}"))
        elif not obs.ok:
            mismatches.append((index, f"executor raised: {obs.error}"))
        elif not ref.matches(obs):
            mismatches.append((index, ref.first_difference(obs)))
    return mismatches


def cached_observations(engine, executor: Executor, machine: StateMachine,
                        stimuli) -> Tuple[Observation, ...]:
    """:func:`observe` through *engine*'s content-addressed cache.

    *stimuli* is plain data (a sequence of event sequences of
    ``(name, payload)`` pairs), so keys are stable across processes and
    a corpus replay can be served from a warm disk cache."""
    from ..engine.fingerprint import observation_fingerprint
    key = observation_fingerprint(executor, machine, stimuli)
    return engine.cache.get_or_compute(
        key, lambda: observe(executor, machine, stimuli))
