"""Stable content fingerprints for the experiment engine's cache keys.

A fingerprint is a SHA-256 digest over a canonical JSON rendering of
everything that determines a job's result:

* the **serialized machine** (via :func:`repro.uml.serialize.machine_to_dict`
  with sorted keys — structurally identical machines fingerprint
  identically even when they are distinct Python objects);
* the **pattern** name, the **optimization level**, the resolved
  **target name**, and the **semantics configuration**;
* job-type-specific extras (the pass selection for model
  optimizations, the scenario parameters for equivalence checks).

Fingerprints are *content-addressed*: rebuilding the same machine from
scratch (same builder calls, same seed) hits the same cache entry, while
any change to any key component — including the target or semantics —
misses.

Every digest also folds in the repro **schema stamp**
(:func:`repro.schema.schema_stamp`).  Keys may outlive the process via
the on-disk store (:mod:`repro.store`), and an artifact pickled by an
older serialization generation must not satisfy a newer key: bumping
``repro.schema.SCHEMA_VERSION`` (or the machine JSON format version)
changes every fingerprint, so stale on-disk entries become misses
instead of deserializing wrongly.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from typing import Optional, Sequence, Union

from ..compiler import OptLevel
from ..compiler.target import TargetDescription, resolve_target
from ..schema import schema_stamp
from ..semantics.variation import SemanticsConfig, UML_DEFAULT_SEMANTICS
from ..uml.serialize import machine_to_dict
from ..uml.statemachine import StateMachine

__all__ = ["machine_fingerprint", "semantics_key", "target_key",
           "compile_fingerprint", "optimize_fingerprint",
           "equivalence_fingerprint", "conformance_fingerprint",
           "stimuli_key", "observation_fingerprint", "tune_fingerprint"]


#: Per-object memo so repeated lookups of the same machine (the engine
#: fingerprints a machine several times per comparison) don't
#: re-serialize it.  Machines are immutable once built by repo
#: convention (the optimizer clones, never mutates), which is what makes
#: identity-keyed memoization sound.
_machine_fp_memo: "weakref.WeakKeyDictionary[StateMachine, str]" = \
    weakref.WeakKeyDictionary()


def machine_fingerprint(machine: StateMachine) -> str:
    """Digest of the machine's canonical serialized form."""
    try:
        return _machine_fp_memo[machine]
    except (KeyError, TypeError):
        pass
    payload = json.dumps(machine_to_dict(machine), sort_keys=True,
                         separators=(",", ":"))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    try:
        _machine_fp_memo[machine] = digest
    except TypeError:  # unhashable/unweakrefable machine subclass
        pass
    return digest


def semantics_key(semantics: SemanticsConfig) -> str:
    """Canonical string for every semantic variation point."""
    return json.dumps({
        "event_pool": semantics.event_pool.value,
        "unconsumed_events": semantics.unconsumed_events.value,
        "conflict_resolution": semantics.conflict_resolution.value,
        "completion_priority": semantics.completion_priority,
        "max_rtc_steps": semantics.max_run_to_completion_steps,
    }, sort_keys=True, separators=(",", ":"))


def target_key(target: Union[TargetDescription, str, None]) -> str:
    """Resolved target name (the registry is keyed by name)."""
    return resolve_target(target).name


def _digest(kind: str, *components: str) -> str:
    hasher = hashlib.sha256()
    hasher.update(schema_stamp().encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(kind.encode("utf-8"))
    for component in components:
        hasher.update(b"\x00")
        hasher.update(component.encode("utf-8"))
    return hasher.hexdigest()


def compile_fingerprint(machine: StateMachine, pattern: str,
                        level: OptLevel,
                        target: Union[TargetDescription, str, None],
                        semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                        ) -> str:
    """Key of one generate+compile job."""
    return _digest("compile", machine_fingerprint(machine), pattern,
                   level.value, target_key(target),
                   semantics_key(semantics))


def optimize_fingerprint(machine: StateMachine,
                         selection: Optional[Sequence[str]],
                         semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                         ) -> str:
    """Key of one model-optimization job."""
    selection_key = ("default" if selection is None
                     else json.dumps(list(selection)))
    return _digest("optimize", machine_fingerprint(machine), selection_key,
                   semantics_key(semantics))


def equivalence_fingerprint(original: StateMachine,
                            optimized: StateMachine,
                            semantics: SemanticsConfig =
                            UML_DEFAULT_SEMANTICS) -> str:
    """Key of one behavioral-equivalence check."""
    return _digest("equivalence", machine_fingerprint(original),
                   machine_fingerprint(optimized), semantics_key(semantics))


def stimuli_key(stimuli) -> str:
    """Canonical string for a fuzz stimulus set: a sequence of event
    sequences, each event a ``(name, payload)`` pair.  Plain data on
    purpose — the fingerprint layer never imports fuzz types."""
    return json.dumps([[[str(n), int(p)] for n, p in stimulus]
                       for stimulus in stimuli],
                      separators=(",", ":"))


def observation_fingerprint(executor, machine: StateMachine,
                            stimuli) -> str:
    """Key of one differential-runner observation run
    (:func:`repro.exec.cached_observations`).

    The executor's configuration keys it: semantics for the
    interpreter, semantics and width for the fleet, pattern, level and
    target for the VM (the fixed-code runtimes implement the UML
    defaults, so a VM key has no semantics).  It is read by attribute,
    so the fingerprint layer stays free of exec imports."""
    if executor.name == "vm":
        config = (executor.pattern, executor.level.value,
                  target_key(executor.target))
    else:
        config = (semantics_key(executor.semantics),)
        if executor.name == "fleet":
            config += (str(executor.n_lanes),)
    return _digest("observe", executor.name, *config,
                   machine_fingerprint(machine), stimuli_key(stimuli))


def tune_fingerprint(machine: StateMachine,
                     target: Union[TargetDescription, str, None],
                     objective_key: str, profile_key: str,
                     patterns: Sequence[str],
                     levels: Sequence[OptLevel],
                     semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                     ) -> str:
    """Key of one autotuner search (:meth:`ExperimentEngine.tune`).

    ``objective_key`` / ``profile_key`` are the canonical strings of
    :class:`repro.tune.record.ObjectiveWeights` /
    :class:`~repro.tune.record.EventProfile` — the fingerprint layer
    stays free of tune imports, like it is for fuzz stimuli.  The
    pattern and level axes key the record too: searching a narrower
    lattice is a different question with a different answer.
    """
    axes_key = json.dumps({"patterns": list(patterns),
                           "levels": [lv.value for lv in levels]},
                          sort_keys=True, separators=(",", ":"))
    return _digest("tune", machine_fingerprint(machine),
                   target_key(target), objective_key, profile_key,
                   axes_key, semantics_key(semantics))


def conformance_fingerprint(machine: StateMachine, pattern: str,
                            level: OptLevel,
                            target: Union[TargetDescription, str, None],
                            semantics: SemanticsConfig =
                            UML_DEFAULT_SEMANTICS,
                            scenario_params: Optional[dict] = None) -> str:
    """Key of one VM conformance run (interpreter vs. executed code).

    ``scenario_params`` are the :func:`repro.vm.conformance_scenarios`
    knobs — the scenario set is a deterministic function of the machine
    alphabet and these parameters, so they key the cache entry.
    """
    params_key = json.dumps(scenario_params or {}, sort_keys=True,
                            separators=(",", ":"))
    return _digest("vm-conformance", machine_fingerprint(machine), pattern,
                   level.value, target_key(target),
                   semantics_key(semantics), params_key)
