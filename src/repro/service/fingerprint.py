"""Stable content fingerprints for service cache keys.

The service layer memoises results by *content*, not by object identity:
two semantically identical requests — same individuals, same weights, same
formulation — must map to the same cache key even when the objects carrying
them were built independently (e.g. a fresh ``RankDerivedScorer`` per panel,
or a re-filtered copy of a registered dataset).

Three fingerprint sources compose into a key:

* datasets hash their schema plus every (uid, values) row, memoised per
  object so a large population is only walked once per process;
* scoring functions expose a ``fingerprint()`` protocol
  (:meth:`repro.scoring.base.ScoringFunction.fingerprint`); functions without
  a structured representation fall back to a pickle hash, and unpicklable
  functions degrade to an identity token (caching still works while the same
  object is reused, and never aliases two different functions);
* formulations and plain request parameters hash through a canonical
  recursive encoding (:func:`fingerprint_value`).
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from enum import Enum
from typing import Optional
from weakref import WeakKeyDictionary

from repro.core.formulations import Formulation
from repro.data.dataset import Dataset
from repro.scoring.base import ScoringFunction

__all__ = [
    "combine_fingerprints",
    "fingerprint_value",
    "fingerprint_dataset",
    "fingerprint_function",
    "fingerprint_formulation",
    "fingerprint_marketplace",
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _encode(value: object) -> bytes:
    """Canonical byte encoding of a JSON-ish value tree.

    Every branch is tagged by type so e.g. the string ``"1"`` and the int
    ``1`` never collide, floats use ``float.hex()`` for exactness, and dicts
    are encoded in sorted-key order.
    """
    if value is None:
        return b"n;"
    if isinstance(value, bool):
        return b"b1;" if value else b"b0;"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii") + b";"
    if isinstance(value, float):
        return b"f" + value.hex().encode("ascii") + b";"
    if isinstance(value, str):
        encoded = value.encode("utf-8")
        return b"s" + str(len(encoded)).encode("ascii") + b":" + encoded + b";"
    if isinstance(value, bytes):
        return b"y" + str(len(value)).encode("ascii") + b":" + value + b";"
    if isinstance(value, Enum):
        return b"e" + _encode(value.value)
    if isinstance(value, (list, tuple)):
        return b"l" + b"".join(_encode(item) for item in value) + b";"
    if isinstance(value, (set, frozenset)):
        return b"t" + b"".join(sorted(_encode(item) for item in value)) + b";"
    if isinstance(value, dict):
        parts = [
            _encode(key) + _encode(value[key])
            for key in sorted(value, key=lambda k: (str(type(k)), str(k)))
        ]
        return b"d" + b"".join(parts) + b";"
    # Last resort for exotic leaf values (e.g. numpy scalars): repr is stable
    # within a process and across processes for the value types we store.
    return b"r" + repr(value).encode("utf-8") + b";"


def fingerprint_value(value: object) -> str:
    """Stable hash of a plain parameter tree (strings, numbers, lists, dicts)."""
    return _digest(b"value\x00" + _encode(value))


# -- datasets -----------------------------------------------------------------

_dataset_cache: "WeakKeyDictionary[Dataset, str]" = WeakKeyDictionary()
_dataset_cache_lock = threading.Lock()


def _hash_dataset(dataset: Dataset) -> str:
    digest = hashlib.sha256()
    digest.update(b"dataset\x00")
    for attr in dataset.schema:
        digest.update(
            _encode((attr.name, attr.kind.value, attr.atype.value, attr.domain))
        )
    # iter_rows yields (uid, values-in-schema-order) straight from the column
    # arrays — the same bytes as walking Individual rows, without ever
    # materialising them (a 10M-row population is hashed one decode chunk at
    # a time).
    for uid, values in dataset.iter_rows():
        digest.update(_encode(uid))
        digest.update(_encode(values))
    return digest.hexdigest()


def fingerprint_dataset(dataset: Dataset) -> str:
    """Content hash of a dataset (schema + rows), memoised per object.

    The dataset's display ``name`` is deliberately excluded: renaming a
    population does not change any fairness result, so it should not defeat
    the cache.
    """
    with _dataset_cache_lock:
        cached = _dataset_cache.get(dataset)
    if cached is not None:
        return cached
    value = _hash_dataset(dataset)
    with _dataset_cache_lock:
        _dataset_cache[dataset] = value
    return value


# -- scoring functions --------------------------------------------------------

def fingerprint_function(function: ScoringFunction) -> str:
    """Content hash of a scoring function.

    Prefers the function's own :meth:`~repro.scoring.base.ScoringFunction.fingerprint`
    protocol; falls back to hashing its pickle serialisation, and finally to
    a per-object identity token for unpicklable functions (conservative: the
    same object keeps hitting the cache, distinct objects never alias).
    """
    try:
        return str(function.fingerprint())
    # No structured fingerprint: fall through to the pickle hash below.
    # fairlint: disable=FL007 -- documented fallback chain
    except NotImplementedError:
        pass
    try:
        blob = pickle.dumps(function, protocol=4)
    except Exception:
        return _digest(
            b"function-identity\x00"
            + f"{type(function).__module__}.{type(function).__qualname__}"
              f":{id(function)}".encode("utf-8")
        )
    return _digest(b"function-pickle\x00" + blob)


# -- formulations -------------------------------------------------------------

def fingerprint_formulation(formulation: Formulation) -> str:
    """Content hash of a formulation (objective, aggregation, distance, binning)."""
    binning = formulation.effective_binning
    return _digest(
        b"formulation\x00"
        + _encode(
            (
                formulation.objective.value,
                formulation.aggregation.value,
                formulation.distance.name,
                float(binning.low),
                float(binning.high),
                int(binning.bins),
            )
        )
    )


# -- marketplaces -------------------------------------------------------------

def fingerprint_marketplace(marketplace) -> str:
    """Content hash of a marketplace: its workers plus every job's identity.

    A job contributes its title, its scoring function's content fingerprint
    and its candidate filter, so two crawls that rebuilt identical platforms
    share cache entries while any re-weighted job changes the hash.
    """
    parts = [fingerprint_dataset(marketplace.workers)]
    for job in marketplace:
        parts.append(
            combine_fingerprints(
                "job",
                fingerprint_value(job.title),
                fingerprint_function(job.function),
                fingerprint_value(job.candidate_filter.describe()),
            )
        )
    return combine_fingerprints("marketplace", *parts)


def combine_fingerprints(*parts: Optional[str]) -> str:
    """Fold component fingerprints (and literal tags) into one cache key."""
    digest = hashlib.sha256()
    digest.update(b"combined\x00")
    for part in parts:
        if part is None:
            digest.update(b"N;")
        else:
            encoded = part.encode("utf-8")
            digest.update(b"s" + str(len(encoded)).encode("ascii") + b":" + encoded + b";")
    return digest.hexdigest()
