"""Deterministic fingerprint routing: which worker serves which request.

The router's one job is *stickiness*: every request that touches the same
resources must land on the same worker, so that worker's materialized score
vectors (:class:`~repro.core.scorestore.ScoreStore`) and result cache serve
the whole key's traffic.  Three small pure functions implement it:

1. :func:`request_references` extracts the ``(kind, name)`` resource
   references from a wire-protocol-v2 request payload — the fields the
   request dataclasses mark as references
   (:data:`~repro.service.jobs.REFERENCE_FIELDS`) — without validating the
   request: the worker stays the single validation authority;
2. :func:`routing_key` resolves each referenced name through the snapshot's
   fingerprint index (:func:`repro.snapshot.snapshot_fingerprints`) and
   hashes the sorted resolved references, so routing follows resource
   *content*: renaming a dataset does not reshuffle the fleet, and two names
   for identical content share a worker's warm stores;
3. :func:`worker_slot` maps a key onto one of N workers.

A payload with no recognisable references (malformed JSON, missing fields)
gets the empty key and deterministically routes to slot 0, where the worker
produces exactly the error envelope a single-process deployment would.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Mapping, Optional, Tuple

from repro.service.jobs import REFERENCE_FIELDS

__all__ = ["request_references", "routing_key", "worker_slot"]

#: ``(kind, name)`` pairs — the same reference shape the CLI's catalog
#: resolution check uses.
Reference = Tuple[str, str]

#: ``(kind, name) -> content fingerprint``, as read from a snapshot file.
FingerprintIndex = Dict[Reference, str]


def request_references(payload: Mapping[str, object]) -> Tuple[Reference, ...]:
    """The catalogue resources a request payload references, sorted.

    Tolerant by design: unknown fields are ignored and nothing is validated,
    so the router can compute a slot for *any* body and leave rejection to
    the worker.  The request ``kind`` is deliberately not part of the result:
    a ``quantify``, ``breakdown`` and ``sweep`` over the same (dataset,
    function) pair should share one worker's score store.
    """
    references = set()
    for field, (kind, many) in REFERENCE_FIELDS.items():
        value = payload.get(field)
        if many:
            names = value if isinstance(value, (list, tuple)) else ()
        else:
            names = (value,)
        for name in names:
            if isinstance(name, str) and name:
                references.add((kind.value, name))
    return tuple(sorted(references))


def routing_key(
    references: Tuple[Reference, ...],
    fingerprints: Optional[FingerprintIndex] = None,
) -> str:
    """The deterministic routing key for a set of resource references.

    Each reference resolves to its content fingerprint when the index knows
    it (the shared-nothing router reads the index straight from the snapshot
    file's metadata) and falls back to the raw name otherwise, so routing
    still works for resources registered after the snapshot was taken.
    Returns ``""`` for an empty reference set.
    """
    if not references:
        return ""
    index = fingerprints or {}
    parts = [
        f"{kind}={index.get((kind, name), name)}" for kind, name in references
    ]
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def worker_slot(key: str, workers: int) -> int:
    """Map a routing key onto one of ``workers`` slots (stable across calls)."""
    if workers < 1:
        raise ValueError(f"worker_slot needs at least 1 worker, got {workers}")
    if workers == 1 or not key:
        return 0
    return int(key[:16], 16) % workers
