"""Wire format of the compile service: JSON lines, one message per line.

Requests are objects ``{"id": N, "op": NAME, ...params}``; responses
echo the id: ``{"id": N, "ok": true, "result": {...}}`` or ``{"id": N,
"ok": false, "error": "..."}``.  Operations:

======== ==============================================================
op       params -> result
======== ==============================================================
ping     ``{}`` -> ``{"pong": true, "version": ...}``
compile  one compile-job description (see :func:`compile_params`) ->
         the canonical result payload (:func:`compile_result_payload`)
batch    ``{"jobs": [<compile params>, ...]}`` -> ``{"results": [...],
         "deduplicated": N}`` — results in input order, jobs deduped
         by canonical request digest
metrics  ``{}`` -> request totals, latency histograms, queue gauges,
         worker fault counters, cache counters, shard sizes
         (:mod:`repro.service.metrics`; schema-stamped)
======== ==============================================================

A server running with a bounded queue may answer ``compile``/``batch``
with a **busy reply** instead: ``{"id": N, "ok": false, "busy": true,
"retry": true|false, "error": "..."}`` — the wire protocol's 429.
``retry: true`` means a backoff resend can succeed
(:class:`~repro.service.client.ServiceClient` does this
transparently); ``retry: false`` marks a request that can never be
admitted (a batch larger than the whole queue).

**Tracing (optional).**  A request may carry a ``"trace"`` field —
``{"trace_id": hex, "parent_id": hex}``, a
:meth:`repro.obs.trace.SpanContext.to_wire` dict — in which case the
server opens its ``service.<op>`` span under that parent (and forwards
the context to worker processes on chunk submissions).  The matching
response then carries a ``"spans"`` array of finished span dicts (see
:mod:`repro.obs.trace` for the schema) covering the server's and
workers' share of the trace, which the client ingests into its local
tracer.  Untraced requests omit both fields and pay nothing.

Machines travel as their canonical JSON dict
(:func:`repro.uml.serialize.machine_to_dict`) and semantics configs via
:func:`semantics_to_dict` — the same serializations the engine's cache
fingerprints are built from, so a service-side compile lands on exactly
the cache entry an in-process run of the same job would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from ..codegen import generator_by_name
from ..compiler import CompileResult, OptLevel
from ..compiler.target import TargetDescription, resolve_target
from ..engine.fingerprint import compile_fingerprint
from ..semantics.variation import (ConflictPolicy, EventPoolPolicy,
                                   SemanticsConfig, UML_DEFAULT_SEMANTICS,
                                   UnconsumedPolicy)
from ..uml.serialize import machine_from_dict, machine_to_dict
from ..uml.statemachine import StateMachine

__all__ = ["MAX_LINE_BYTES", "encode_message", "decode_message",
           "parse_opt_level", "semantics_to_dict", "semantics_from_dict",
           "compile_params", "CompileJob", "job_settings", "job_from_params",
           "compile_result_payload"]

#: Stream limit for one JSON line (a serialized machine can be large).
MAX_LINE_BYTES = 8 * 1024 * 1024


def encode_message(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    return json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("message must be a JSON object")
    return message


def parse_opt_level(level: Union[OptLevel, str, None]) -> OptLevel:
    """Accept ``OptLevel``, ``"-Os"``, ``"Os"``, ``"OS"`` ... (default
    ``-Os``, the paper's measurement flag)."""
    if level is None:
        return OptLevel.OS
    if isinstance(level, OptLevel):
        return level
    text = str(level)
    for candidate in (text, f"-{text}"):
        try:
            return OptLevel(candidate)
        except ValueError:
            pass
    try:
        return OptLevel[text.lstrip("-").upper()]
    except KeyError:
        raise ValueError(
            f"unknown optimization level {level!r} (expected one of "
            f"{', '.join(lv.value for lv in OptLevel)})") from None


def semantics_to_dict(semantics: SemanticsConfig) -> Dict[str, Any]:
    return {
        "event_pool": semantics.event_pool.value,
        "unconsumed_events": semantics.unconsumed_events.value,
        "conflict_resolution": semantics.conflict_resolution.value,
        "completion_priority": semantics.completion_priority,
        "max_run_to_completion_steps":
            semantics.max_run_to_completion_steps,
    }


def semantics_from_dict(data: Optional[Dict[str, Any]]) -> SemanticsConfig:
    if not data:
        return UML_DEFAULT_SEMANTICS
    return SemanticsConfig(
        event_pool=EventPoolPolicy(
            data.get("event_pool", EventPoolPolicy.FIFO.value)),
        unconsumed_events=UnconsumedPolicy(
            data.get("unconsumed_events", UnconsumedPolicy.DISCARD.value)),
        conflict_resolution=ConflictPolicy(
            data.get("conflict_resolution",
                     ConflictPolicy.INNERMOST_FIRST.value)),
        completion_priority=bool(data.get("completion_priority", True)),
        max_run_to_completion_steps=int(
            data.get("max_run_to_completion_steps", 10_000)),
    )


def compile_params(machine: Union[StateMachine, Dict[str, Any]],
                   pattern: str = "nested-switch",
                   level: Union[OptLevel, str, None] = None,
                   target: Optional[str] = None,
                   semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS,
                   want_asm: bool = False) -> Dict[str, Any]:
    """The params object of one ``compile`` request / ``batch`` job."""
    if isinstance(machine, StateMachine):
        machine = machine_to_dict(machine)
    return {
        "machine": machine,
        "pattern": pattern,
        "level": parse_opt_level(level).value,
        "target": target,
        "semantics": semantics_to_dict(semantics),
        "want_asm": bool(want_asm),
    }


@dataclass(frozen=True, eq=False)
class CompileJob:
    """One parsed compile job: machine x pattern x level x target.

    ``fingerprint()`` is the engine's cache key for the compile, and
    every result payload carries it.
    """

    machine: StateMachine
    pattern: str = "nested-switch"
    level: OptLevel = OptLevel.OS
    target: Union[TargetDescription, str, None] = None
    semantics: SemanticsConfig = UML_DEFAULT_SEMANTICS

    def fingerprint(self) -> str:
        return compile_fingerprint(self.machine, self.pattern, self.level,
                                   self.target, self.semantics)


def job_settings(params: Dict[str, Any]) -> Dict[str, Any]:
    """Parse everything a ``compile``/``batch`` params object says about
    its job but the machine: pattern, level, target and semantics, as
    :class:`CompileJob` keywords.  Raises ``KeyError`` for an unknown
    pattern or target and ``ValueError``, ``TypeError`` or
    ``AttributeError`` for a malformed level or semantics.  The server
    checks each job with it before admission, without deserializing a
    machine."""
    pattern = params.get("pattern", "nested-switch")
    generator_by_name(pattern)
    target = params.get("target")
    resolve_target(target)
    return {"pattern": pattern,
            "level": parse_opt_level(params.get("level")),
            "target": target,
            "semantics": semantics_from_dict(params.get("semantics"))}


def job_from_params(params: Dict[str, Any]) -> CompileJob:
    """Rebuild the compile job a ``compile``/``batch`` params object
    describes (raises as :func:`job_settings` does, or on a malformed
    machine)."""
    return CompileJob(machine=machine_from_dict(params["machine"]),
                      **job_settings(params))


def compile_result_payload(job: CompileJob, result: CompileResult,
                           want_asm: bool = False) -> Dict[str, Any]:
    """Canonical JSON rendering of one compile's artifacts.

    Both the service and in-process comparisons build payloads through
    this one function, which is what makes "submit over the socket" and
    "call the engine directly" byte-comparable.
    """
    module = result.module
    payload = {
        "fingerprint": job.fingerprint(),
        "machine": job.machine.name,
        "pattern": job.pattern,
        "level": result.opt_level.value,
        "target": result.target.name if result.target is not None else None,
        "total_size": module.total_size,
        "text_size": module.text_size,
        "rodata_size": module.rodata_size,
        "data_size": module.data_size,
        "bss_size": module.bss_size,
        "function_sizes": module.function_sizes(),
        "pass_stats": dict(result.pass_stats),
    }
    if want_asm:
        payload["asm"] = module.listing()
    return payload
