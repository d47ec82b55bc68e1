"""The repro serialization schema stamp.

Persistent artifacts (the on-disk store of :mod:`repro.store`, and any
cache key that may outlive a process) embed a *schema stamp* naming the
generation of repro's serialized forms.  Two independent version axes
feed it:

* :data:`SCHEMA_VERSION` — the generation of the *result* objects the
  engine caches (``CompileResult``, ``OptimizationReport``,
  ``EquivalenceReport``, VM conformance reports).  Bump it whenever a
  change to those classes — or to anything reachable from them — would
  make an old pickled artifact deserialize into something subtly wrong;
* :data:`repro.uml.serialize.FORMAT_VERSION` — the machine JSON format,
  which keys fingerprints through ``machine_to_dict``.

Because :func:`schema_stamp` is folded into every
:mod:`repro.engine.fingerprint` digest, bumping either version changes
every cache key: entries written by older code become *misses* instead
of being deserialized wrongly.  The stamp is additionally stored inside
every on-disk entry header, so even a stale store laid out by an older
scheme self-invalidates entry by entry.
"""

from __future__ import annotations

from .uml.serialize import FORMAT_VERSION

__all__ = ["SCHEMA_VERSION", "schema_stamp"]

#: Generation counter of the engine's cached result schemas.  Bump on
#: any change that alters what a cached artifact deserializes to.
#: Generation 2: fuzz Observations (pool_depth field) + expression-call
#: tracing in interpreter traces.  Generation 3: Observation moved to
#: repro.exec (the pool depth became its per-executor ``extra``) and the
#: observation caches share one fingerprint kind.  Generation 4:
#: ``GimpleFunction`` (pickled in ``CompileResult.program`` and
#: ``UnitArtifact.optimized_fn``) keeps its label and register counters
#: as ints.  Generation 5: the run-to-completion step budget
#: (``max_rtc_steps`` in the semantics key) bounds one ``start()`` or
#: ``dispatch()`` instead of an instance's lifetime, so observations and
#: equivalence reports stored under the same budget may differ.
SCHEMA_VERSION = 5


def schema_stamp() -> str:
    """Canonical stamp naming the current serialization generation."""
    return f"repro.schema/{SCHEMA_VERSION}+uml.format/{FORMAT_VERSION}"
