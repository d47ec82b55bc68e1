"""Batch shaping for the cluster: dedup, locality sort, chunk planning.

These are the pure functions between "a batch request arrived" and
"chunks hit the worker pool", kept side-effect-free so the scheduling
policy is unit-testable without processes.

**Dedup** folds byte-identical jobs (same canonical params JSON) onto
one computation before any chunk is planned, so a duplicate never
crosses a process boundary (inside a worker, the engine's cache would
only have made it a hit).

**Locality sort** (the ROADMAP item 5 follow-up): mixed batches are
full of *near*-duplicates — mutant chains of one machine, the same
machine across levels — whose lowered compilation units overlap
almost entirely.  Unit-cache reuse only pays when related jobs land on
the *same worker's* warm unit tier, so the sort groups jobs by
(machine name, pattern, target, level, semantics) before contiguous
chunking; a family of near-duplicates then rides one chunk to one
worker instead of being sprayed across the pool.

**Chunk planning** splits the sorted jobs into at most
``2 * workers`` contiguous, near-equal chunks: enough chunks that a
straggler machine doesn't idle half the pool, few enough that
families stay mostly contiguous.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Sequence, Tuple

__all__ = ["params_digest", "dedup_params", "locality_key",
           "sort_for_locality", "plan_chunks"]


def params_digest(params: Dict[str, Any]) -> str:
    """Digest of one wire-level compile-params object.

    This is the *request-identity* key (coalescing, batch dedup): two
    requests with byte-identical canonical params JSON are the same
    request.  It deliberately does not deserialize the machine — the
    event loop and batch front-end stay CPU-light; the engine-level
    content fingerprint is computed by whichever worker runs the job.
    """
    canonical = json.dumps(params, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def dedup_params(raw_jobs: Sequence[Dict[str, Any]]
                 ) -> Tuple[List[str], Dict[str, Dict[str, Any]]]:
    """``(digest per input job, {digest: params first seen})``."""
    order: List[str] = []
    unique: Dict[str, Dict[str, Any]] = {}
    for params in raw_jobs:
        digest = params_digest(params)
        order.append(digest)
        if digest not in unique:
            unique[digest] = params
    return order, unique


def locality_key(params: Dict[str, Any]) -> Tuple[str, ...]:
    """Sort key grouping near-duplicate jobs adjacently.

    Machine *name* leads: mutant chains and sweep variants keep their
    parent's name, and that is exactly the population whose units
    overlap.  Pattern/target/level follow so one family's grid cells
    cluster too; the full digest breaks ties deterministically.
    """
    machine = params.get("machine")
    name = machine.get("name", "") if isinstance(machine, dict) else ""
    semantics = params.get("semantics")
    return (
        str(name),
        str(params.get("pattern", "")),
        str(params.get("target") or ""),
        str(params.get("level", "")),
        json.dumps(semantics, sort_keys=True) if semantics else "",
        params_digest(params),
    )


def sort_for_locality(digests_and_params:
                      "Sequence[Tuple[str, Dict[str, Any]]]"
                      ) -> List[Tuple[str, Dict[str, Any]]]:
    """Order (digest, params) pairs so near-duplicates are adjacent."""
    return sorted(digests_and_params,
                  key=lambda item: locality_key(item[1]))


def plan_chunks(items: Sequence, n_chunks: int) -> List[List]:
    """Split *items* into ``min(len, n_chunks)`` contiguous, near-equal
    chunks (earlier chunks take the remainder)."""
    items = list(items)
    if not items:
        return []
    n_chunks = max(1, min(len(items), int(n_chunks)))
    base, extra = divmod(len(items), n_chunks)
    chunks: List[List] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks
