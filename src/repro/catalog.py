"""The unified resource registry: one catalogue for the whole system.

FaiRank is an interactive system: users register datasets and scoring
functions once, then iterate over configurations and panels.  Before this
module existed that catalogue lived twice — the session engine and the
fairness service each kept private name->object dicts — so a dataset
registered through one was invisible to the other and the two could drift.

:class:`Catalog` is the single registry every layer resolves resources
through.  It stores typed :class:`Resource` entries for the four resource
kinds of the paper's workflow (datasets, scoring functions, marketplaces,
fairness formulations) and adds what a servable deployment needs on top of a
plain dict:

* **content-fingerprint addressing** — every entry records the same content
  hash the service cache keys on, so a resource can be resolved by name *or*
  by (a unique prefix of) its fingerprint, and re-registering identical
  content under an existing name is an idempotent no-op;
* **replace/freeze semantics** — replacing a name with *different* content
  requires ``replace=True``, and a frozen entry can never be replaced, so a
  deployment can pin the resources live clients depend on;
* **JSON-able listings** — :meth:`Catalog.describe` renders the whole
  catalogue (name, kind, fingerprint, per-kind metadata such as row counts
  and scoring arity) for the ``fairank catalog`` CLI and remote clients;
* **snapshot persistence** — :meth:`Catalog.save` / :meth:`Catalog.load`
  write and rebuild the whole registry as one JSON file (see
  :mod:`repro.snapshot`), so ``fairank serve --catalog snapshot.json`` can
  boot a full deployment.

The catalog is thread-safe: the HTTP server registers and resolves from
handler threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace as dataclass_replace
from enum import Enum
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CatalogError

__all__ = ["Catalog", "Resource", "ResourceKind"]

#: Minimum hex characters a fingerprint-prefix reference must supply.  Short
#: prefixes would collide with (and be shadowed by) plain resource names.
_MIN_FINGERPRINT_PREFIX = 8


class ResourceKind(str, Enum):
    """The four kinds of resources a FaiRank deployment serves."""

    DATASET = "dataset"
    FUNCTION = "function"
    MARKETPLACE = "marketplace"
    FORMULATION = "formulation"

    @property
    def label(self) -> str:
        """Human-readable label used in error messages and listings."""
        if self is ResourceKind.FUNCTION:
            return "scoring function"
        return self.value


@dataclass(frozen=True)
class Resource:
    """One catalogue entry: a named, fingerprinted value of a known kind."""

    kind: ResourceKind
    name: str
    value: object = field(compare=False)
    fingerprint: str
    frozen: bool = False
    metadata: Mapping[str, object] = field(default_factory=dict, compare=False)

    def describe(self) -> Dict[str, object]:
        """JSON-able summary of this entry (no live objects)."""
        entry: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind.value,
            "fingerprint": self.fingerprint,
            "frozen": self.frozen,
        }
        entry.update(self.metadata)
        return entry


def _fingerprint_resource(kind: ResourceKind, value: object) -> str:
    """Content fingerprint of a resource, matching the service cache keys.

    Imported lazily: :mod:`repro.service.fingerprint` is a leaf module, but
    importing it at module scope would close an import cycle through the
    :mod:`repro.service` package (which imports the service facade, which
    imports this module).
    """
    from repro.service import fingerprint as fp

    if kind is ResourceKind.DATASET:
        return fp.fingerprint_dataset(value)  # type: ignore[arg-type]
    if kind is ResourceKind.FUNCTION:
        return fp.fingerprint_function(value)  # type: ignore[arg-type]
    if kind is ResourceKind.MARKETPLACE:
        return fp.fingerprint_marketplace(value)  # type: ignore[arg-type]
    if kind is ResourceKind.FORMULATION:
        return fp.fingerprint_formulation(value)  # type: ignore[arg-type]
    raise CatalogError(f"unhandled resource kind {kind!r}")  # pragma: no cover


def _infer_kind(value: object) -> ResourceKind:
    """Map a live object to its resource kind (explicit kind wins)."""
    from repro.core.formulations import Formulation
    from repro.data.dataset import Dataset
    from repro.marketplace.entities import Marketplace
    from repro.scoring.base import ScoringFunction

    if isinstance(value, Dataset):
        return ResourceKind.DATASET
    if isinstance(value, ScoringFunction):
        return ResourceKind.FUNCTION
    if isinstance(value, Marketplace):
        return ResourceKind.MARKETPLACE
    if isinstance(value, Formulation):
        return ResourceKind.FORMULATION
    raise CatalogError(
        f"cannot infer a resource kind for {type(value).__name__}; pass kind= explicitly"
    )


def _resource_metadata(kind: ResourceKind, value: object) -> Dict[str, object]:
    """Per-kind listing metadata (row counts, arity, ...), all JSON scalars."""
    if kind is ResourceKind.DATASET:
        schema = value.schema  # type: ignore[attr-defined]
        return {
            "rows": len(value),  # type: ignore[arg-type]
            "protected": len(schema.protected_names),
            "observed": len(schema.observed_names),
        }
    if kind is ResourceKind.FUNCTION:
        attributes = getattr(value, "attributes", None)
        return {
            "arity": len(attributes) if attributes is not None else None,
            "transparent": bool(getattr(value, "transparent", True)),
            "type": type(value).__name__,
        }
    if kind is ResourceKind.MARKETPLACE:
        return {
            "workers": len(value.workers),  # type: ignore[attr-defined]
            "jobs": len(value),  # type: ignore[arg-type]
        }
    if kind is ResourceKind.FORMULATION:
        return {"bins": value.effective_binning.bins}  # type: ignore[attr-defined]
    return {}  # pragma: no cover


def _looks_like_fingerprint(ref: str) -> bool:
    """Whether a reference could be (a prefix of) a hex content fingerprint."""
    if len(ref) < _MIN_FINGERPRINT_PREFIX:
        return False
    return all(ch in "0123456789abcdef" for ch in ref)


class Catalog:
    """The single, fingerprint-aware registry of a FaiRank deployment.

    Entries are addressed primarily by name; a reference that looks like a
    content fingerprint (>= 8 hex characters) and matches no name is resolved
    against entry fingerprints instead, so clients can pin exact content.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: Dict[ResourceKind, "Dict[str, Resource]"] = {
            kind: {} for kind in ResourceKind
        }

    # -- registration ----------------------------------------------------------

    def register(
        self,
        value: object,
        name: Optional[str] = None,
        kind: Optional[ResourceKind] = None,
        *,
        replace: bool = False,
        freeze: bool = False,
    ) -> Resource:
        """Add a resource; returns its catalogue entry.

        Semantics for an existing entry under the same name:

        * identical content (same fingerprint) — idempotent: the existing
          entry is returned (upgraded to frozen when ``freeze`` is set);
        * different content, entry frozen — always a :class:`CatalogError`;
        * different content, ``replace=False`` — :class:`CatalogError`
          telling the caller to pass ``replace=True``;
        * different content, ``replace=True`` — the entry is overwritten.
        """
        resolved_kind = kind if kind is not None else _infer_kind(value)
        key = name or getattr(value, "name", None)
        if not key:
            raise CatalogError(
                f"a {resolved_kind.label} needs a non-empty name to be registered"
            )
        key = str(key)
        fingerprint = _fingerprint_resource(resolved_kind, value)
        with self._lock:
            entries = self._entries[resolved_kind]
            existing = entries.get(key)
            if existing is not None:
                if existing.fingerprint == fingerprint:
                    if freeze and not existing.frozen:
                        existing = dataclass_replace(existing, frozen=True)
                        entries[key] = existing
                    return existing
                if existing.frozen:
                    raise CatalogError(
                        f"{resolved_kind.label} {key!r} is frozen and cannot be "
                        "replaced with different content"
                    )
                if not replace:
                    raise CatalogError(
                        f"a {resolved_kind.label} named {key!r} is already registered "
                        "with different content; pass replace=True to overwrite it"
                    )
            resource = Resource(
                kind=resolved_kind,
                name=key,
                value=value,
                fingerprint=fingerprint,
                frozen=freeze,
                metadata=_resource_metadata(resolved_kind, value),
            )
            entries[key] = resource
            return resource

    def freeze(self, kind: ResourceKind, name: str) -> Resource:
        """Pin an entry: from now on it can never be replaced."""
        with self._lock:
            resource = self.get(kind, name)
            if not resource.frozen:
                resource = dataclass_replace(resource, frozen=True)
                self._entries[kind][resource.name] = resource
            return resource

    def remove(self, kind: ResourceKind, name: str) -> Resource:
        """Drop an entry (frozen entries cannot be removed)."""
        with self._lock:
            resource = self.get(kind, name)
            if resource.frozen:
                raise CatalogError(
                    f"{kind.label} {resource.name!r} is frozen and cannot be removed"
                )
            return self._entries[kind].pop(resource.name)

    # -- resolution ------------------------------------------------------------

    def get(self, kind: ResourceKind, ref: str) -> Resource:
        """The entry for a name or (a unique prefix of) a content fingerprint."""
        with self._lock:
            entries = self._entries[kind]
            resource = entries.get(ref)
            if resource is not None:
                return resource
            if _looks_like_fingerprint(ref):
                matches = [
                    entry for entry in entries.values()
                    if entry.fingerprint.startswith(ref)
                ]
                if len(matches) == 1:
                    return matches[0]
                if len(matches) > 1:
                    names = ", ".join(sorted(entry.name for entry in matches))
                    raise CatalogError(
                        f"fingerprint prefix {ref!r} is ambiguous between "
                        f"{kind.label}s: {names}"
                    )
            raise CatalogError(
                f"unknown {kind.label} {ref!r}; registered: "
                f"{', '.join(sorted(entries)) or '(none)'}"
            )

    def resolve(self, kind: ResourceKind, ref: str) -> object:
        """The live object behind a name or fingerprint reference."""
        return self.get(kind, ref).value

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, tuple) or len(item) != 2:
            return False
        kind, name = item
        with self._lock:
            return isinstance(kind, ResourceKind) and name in self._entries[kind]

    # -- listings --------------------------------------------------------------

    def names(self, kind: ResourceKind) -> Tuple[str, ...]:
        """Registered names of one kind, in registration order."""
        with self._lock:
            return tuple(self._entries[kind])

    def resources(self, kind: Optional[ResourceKind] = None) -> Tuple[Resource, ...]:
        """All entries (of one kind, or every kind in kind order)."""
        with self._lock:
            if kind is not None:
                return tuple(self._entries[kind].values())
            return tuple(
                resource
                for entries in self._entries.values()
                for resource in entries.values()
            )

    def __len__(self) -> int:
        with self._lock:
            return sum(len(entries) for entries in self._entries.values())

    def __iter__(self) -> Iterator[Resource]:
        return iter(self.resources())

    def describe(self) -> Dict[str, object]:
        """JSON-able listing of the whole catalogue (for CLI and clients)."""
        with self._lock:
            listing: List[Dict[str, object]] = [
                resource.describe() for resource in self.resources()
            ]
            counts = {
                kind.value: len(entries) for kind, entries in self._entries.items()
            }
        return {"resources": listing, "counts": counts}

    # -- snapshot persistence --------------------------------------------------

    def save(
        self,
        path: Union[str, Path],
        *,
        dataset_sources: Optional[Mapping[str, Mapping[str, object]]] = None,
        columnar_datasets: Union[bool, Sequence[str], None] = None,
    ) -> Dict[str, object]:
        """Write this catalogue to a JSON snapshot file (see :mod:`repro.snapshot`).

        Datasets are embedded inline unless ``dataset_sources`` names a loader
        reference for them; scoring functions are saved by their weights,
        marketplaces by workers + jobs, formulations by name.  Returns the
        snapshot document that was written.

        ``columnar_datasets`` (a list of dataset names, or ``True`` for all)
        persists those datasets as raw column files under
        ``<path>.columns/<fingerprint>/`` instead of embedded JSON rows;
        :meth:`load` re-opens them as read-only memory maps.
        """
        from repro.snapshot import save_catalog

        with self._lock:
            return save_catalog(
                self,
                path,
                dataset_sources=dataset_sources,
                columnar_datasets=columnar_datasets,
            )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Catalog":
        """Rebuild a catalogue from a snapshot file written by :meth:`save`.

        Raises :class:`~repro.errors.CatalogError` for unreadable, truncated
        or unknown-version snapshots, and for entries whose reconstructed
        content no longer matches the fingerprint recorded at save time.
        """
        from repro.snapshot import load_catalog

        return load_catalog(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            parts = ", ".join(
                f"{len(entries)} {kind.value}(s)"
                for kind, entries in self._entries.items()
                if entries
            )
        return f"Catalog({parts or 'empty'})"
