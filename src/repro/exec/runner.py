"""The differential runner: replay stimuli, summarize, compare by one rule.

Every behaviour-preservation check in the repo is one question asked of
two executors — model vs. optimized model, model vs. compiled code,
model vs. fleet, and the fuzz oracle's N-way grid — so they share one
engine (McKeeman's differential testing) with thin per-backend
adapters:

* :func:`observe` loads the machine once per executor and replays every
  stimulus on a fresh instance through :meth:`Instance.run_scenario`,
  summarizing each run as an :class:`Observation`;
* :func:`diff` applies the one comparison rule,
  :meth:`Observation.matches` — observable payloads, plus the final
  flag, plus the terminated flag;
* :func:`cached_observations` is :func:`observe` through an
  :class:`~repro.engine.ExperimentEngine`'s content-addressed cache.

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
from typing import Any, List, Optional, Sequence, Tuple

from ..semantics.trace import TraceKind
from ..uml.statemachine import StateMachine
from .protocol import Executor, Instance

__all__ = ["Observation", "UNSUPPORTED_PREFIX", "observe", "diff",
           "cached_observations"]

#: Error prefix marking "this executor rejects the machine's shape"
#: (e.g. nested-switch refusing cross-region transitions).
UNSUPPORTED_PREFIX = "unsupported: "

_OBSERVABLE = (TraceKind.CALL, TraceKind.EMIT, TraceKind.ASSIGN)


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
        payloads = []
        seen: List[TraceKind] = []
        if instance.is_started:
            # Enum hashing and ``.value`` are Python-level calls: compare
            # kinds by identity, and spell out only the ones kept.
            for record in instance.trace.records:
                kind = record.kind
                if kind not in seen:
                    seen.append(kind)
                if kind in _OBSERVABLE:
                    payloads.append((kind.value, record.detail))
        kinds = tuple(sorted(kind.value for kind in seen))
        if error is not None:
            return cls(payloads=tuple(payloads), kinds=kinds, error=error)
        # Read the extra first: asking the VM for its final flag runs
        # simulated code, which its cycle accounting must not include.
        extra = instance.extra
        return cls(payloads=tuple(payloads), final=instance.in_final,
                   terminated=instance.is_terminated, kinds=kinds,
                   extra=extra)

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


def observe(executor: Executor, machine: StateMachine,
            stimuli: Sequence[object]) -> Tuple[Observation, ...]:
    """Run every stimulus on a fresh instance of *machine*.

    The executor memoizes its load work (compile, table build), so the
    machine is compiled once however many stimuli there are.  A load
    failure observes the same error for every stimulus:
    ``unsupported: ...`` for a shape the backend documents as outside
    its subset, ``load failed: ...`` for anything else.
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
        try:
            instance.run_scenario(stimulus)
        except executor.run_errors as exc:
            out.append(Observation.of(
                instance, error=f"{type(exc).__name__}: {exc}"))
            continue
        out.append(Observation.of(instance))
    return tuple(out)


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
