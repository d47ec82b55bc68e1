"""Executable semantics: variation points, interpreter, traces.

The reference behavior every implementation is judged against.  Main
public names: :class:`MachineInstance` (the run-to-completion
interpreter; scenarios run through :func:`repro.exec.run_scenario`) and
:class:`MachinePlan` (its per-machine index, built once per machine),
:class:`SemanticsConfig` and its
variation-point enums (:class:`EventPoolPolicy`,
:class:`UnconsumedPolicy`, :class:`ConflictPolicy`) with
:data:`UML_DEFAULT_SEMANTICS`, and :class:`Trace` /
:class:`TraceRecord` / :class:`TraceKind` / :func:`observable_equal` —
the observable-trace equality that defines behavioral equivalence for
:mod:`repro.optim` and :mod:`repro.vm` alike.
"""

from .runtime import ExecutionError, MachineInstance, MachinePlan
from .trace import Trace, TraceKind, TraceRecord, observable_equal
from .variation import (ConflictPolicy, EventPoolPolicy, SemanticsConfig,
                        UnconsumedPolicy, UML_DEFAULT_SEMANTICS)

__all__ = [
    "ExecutionError", "MachineInstance", "MachinePlan",
    "Trace", "TraceKind", "TraceRecord", "observable_equal",
    "ConflictPolicy", "EventPoolPolicy", "SemanticsConfig",
    "UnconsumedPolicy", "UML_DEFAULT_SEMANTICS",
]
