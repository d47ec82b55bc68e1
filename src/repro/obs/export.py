"""Render collected spans for humans and for trace viewers.

Two formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` JSON (the ``{"traceEvents": [...]}`` object form),
  loadable directly in Perfetto (https://ui.perfetto.dev) or Chrome's
  ``about:tracing``.  Spans become ``ph: "X"`` complete events with
  microsecond timestamps normalised so the earliest span starts at 0;
  per-process/thread metadata events name the lanes.  The current
  ``METRICS_SCHEMA_VERSION`` is stamped into ``otherData`` so a stale
  viewer of the companion metrics document fails loudly instead of
  misreading fields (:func:`load_chrome_trace` enforces the check).
* :func:`stage_tree` — a plain-text parent/child tree with millisecond
  durations, for terminals: what ``scripts/profile_compile.py`` and
  ``python -m repro.obs view`` print.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["chrome_trace", "write_chrome_trace", "load_chrome_trace",
           "SchemaMismatch", "stage_tree"]


def _metrics_schema_version() -> int:
    # Imported lazily: obs must not depend on the service package at
    # import time (the service imports obs).
    from ..service.metrics import METRICS_SCHEMA_VERSION
    return METRICS_SCHEMA_VERSION


class SchemaMismatch(RuntimeError):
    """A trace file was written under a different metrics schema than
    this code understands."""


def chrome_trace(spans: Iterable[Dict[str, Any]],
                 metadata: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
    """Convert span dicts (``Tracer.spans()`` / ``drain()`` output)
    into one Chrome ``trace_event`` document."""
    spans = [s for s in spans if isinstance(s, dict)]
    base = min((s.get("ts", 0.0) for s in spans), default=0.0)
    events: List[Dict[str, Any]] = []
    lanes: Dict[Any, str] = {}
    for s in spans:
        pid = s.get("pid", 0)
        tid = s.get("tid", 0)
        proc = s.get("proc") or f"pid-{pid}"
        if pid not in lanes:
            lanes[pid] = proc
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": proc}})
        args: Dict[str, Any] = {"trace_id": s.get("trace_id"),
                                "span_id": s.get("span_id"),
                                "parent_id": s.get("parent_id")}
        attrs = s.get("attrs")
        if attrs:
            args.update(attrs)
        events.append({
            "ph": "X",
            "name": s.get("name", "?"),
            "cat": "repro",
            "ts": round((s.get("ts", 0.0) - base) * 1e6, 3),
            "dur": round(s.get("dur", 0.0) * 1e6, 3),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    other: Dict[str, Any] = {
        "generator": "repro.obs",
        "metrics_schema": _metrics_schema_version(),
        "span_count": len(spans),
    }
    if metadata:
        other.update(metadata)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": other}


def write_chrome_trace(path: str, spans: Iterable[Dict[str, Any]],
                       metadata: Optional[Dict[str, Any]] = None) -> int:
    """Write a Perfetto-loadable trace file; returns the event count."""
    doc = chrome_trace(spans, metadata)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(doc["traceEvents"])


def load_chrome_trace(path: str) -> Dict[str, Any]:
    """Load a trace written by :func:`write_chrome_trace`, refusing
    files stamped with a different metrics schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    stamped = doc.get("otherData", {}).get("metrics_schema")
    expected = _metrics_schema_version()
    if stamped != expected:
        raise SchemaMismatch(
            f"{path}: trace stamped metrics_schema={stamped!r}, this "
            f"viewer understands {expected} — re-export the trace")
    return doc


# -- human stage tree -------------------------------------------------------

#: Children of one span that :func:`stage_tree` prints before eliding.
_MAX_CHILDREN = 40


def _sort_key(span: Dict[str, Any]):
    return (span.get("ts", 0.0), span.get("name", ""))


def stage_tree(spans: Iterable[Dict[str, Any]]) -> str:
    """Render spans as an indented parent→child tree with millisecond
    durations and each child's share of its parent (at most 40
    children per span)."""
    spans = sorted((s for s in spans if isinstance(s, dict)),
                   key=_sort_key)
    if not spans:
        return "(no spans)"
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None           # orphan (e.g. unsampled parent): root it
        children.setdefault(parent, []).append(s)

    lines: List[str] = []

    def emit(span: Dict[str, Any], depth: int, parent_dur: float) -> None:
        dur = span.get("dur", 0.0)
        share = f" {dur / parent_dur:>5.1%}" if parent_dur > 0 else ""
        proc = span.get("proc", "")
        label = f"{'  ' * depth}{span.get('name', '?')}"
        lines.append(f"{label:<44} {1e3 * dur:>10.3f} ms{share}"
                     f"  [{proc}]")
        kids = children.get(span["span_id"], [])
        for kid in kids[:_MAX_CHILDREN]:
            emit(kid, depth + 1, dur)
        if len(kids) > _MAX_CHILDREN:
            lines.append(f"{'  ' * (depth + 1)}"
                         f"... {len(kids) - _MAX_CHILDREN} more")

    roots = children.get(None, [])
    for root in roots:
        emit(root, 0, 0.0)
    return "\n".join(lines)
