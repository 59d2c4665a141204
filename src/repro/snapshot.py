"""Catalog snapshot persistence: save/load a deployment's resource registry.

A FaiRank deployment is its :class:`~repro.catalog.Catalog`: the datasets,
scoring functions, marketplaces and formulations a server resolves requests
against.  This module serialises that registry to a single JSON *snapshot*
file so a deployment can be rebuilt byte-identically in another process —
``fairank serve --catalog snapshot.json`` boots a server from one, and
:meth:`~repro.session.engine.FaiRankEngine.save_catalog` exports a live
session's registry.

Snapshot format (``{"format": "fairank-catalog", "version": 1}``):

* **datasets** travel *inline* (schema + rows) by default, or *by loader
  reference* (``{"source": {"loader": ...}}``) for populations that are
  cheaper to rebuild than to embed — the built-in Table 1 example, a CSV
  file on disk, a seeded synthetic population, or an on-disk *column
  sidecar* (``save_catalog(..., columnar_datasets=...)`` writes each
  dataset's raw column arrays under ``<snapshot>.columns/<fingerprint>/``
  and load re-opens them as read-only memory maps — the only practical
  shape for a million-row population);
* **scoring functions** travel by their normalised weights (only
  transparent :class:`~repro.scoring.linear.LinearScoringFunction` entries
  are snapshotable — an opaque or rank-derived function has no portable
  content representation);
* **marketplaces** embed their workers dataset plus every job's title,
  weights and candidate filter (the whole declarative filter algebra of
  :mod:`repro.data.filters` round-trips);
* **formulations** travel by name: objective / aggregation / distance
  strings plus the binning.

Every entry records the resource's content fingerprint at save time; load
recomputes fingerprints and refuses a snapshot whose reconstructed content
drifted, so a booted deployment serves exactly the cache keys the saving
deployment computed.  All failure modes (unreadable file, truncated JSON,
unknown version, unsupported resource) raise
:class:`~repro.errors.CatalogError` with a message naming the problem.
"""

from __future__ import annotations

import json
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CatalogError, FaiRankError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.catalog import Catalog

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "save_catalog",
    "load_catalog",
    "snapshot_fingerprints",
    "function_to_portable_json",
    "function_from_portable_json",
]

#: Identifies a snapshot file (so arbitrary JSON is rejected loudly).
SNAPSHOT_FORMAT = "fairank-catalog"

#: The snapshot schema version this build writes (and the only one it reads).
SNAPSHOT_VERSION = 1


# -- datasets -----------------------------------------------------------------


def _schema_to_json(schema) -> List[Dict[str, object]]:
    return [
        {
            "name": attr.name,
            "kind": attr.kind.value,
            "atype": attr.atype.value,
            "domain": None if attr.domain is None else list(attr.domain),
            "description": attr.description,
        }
        for attr in schema
    ]


def _schema_from_json(entries):
    from repro.data.schema import Attribute, AttributeKind, AttributeType, Schema

    attributes = []
    for entry in entries:
        attributes.append(
            Attribute(
                name=str(entry["name"]),
                kind=AttributeKind(entry["kind"]),
                atype=AttributeType(entry["atype"]),
                domain=None if entry.get("domain") is None else tuple(entry["domain"]),
                description=str(entry.get("description", "")),
            )
        )
    return Schema(tuple(attributes))


def _dataset_to_json(dataset) -> Dict[str, object]:
    schema = _schema_to_json(dataset.schema)
    names = dataset.schema.names
    individuals = [
        {"uid": uid, "values": dict(zip(names, values))}
        for uid, values in dataset.iter_rows()
    ]
    return {"name": dataset.name, "schema": schema, "individuals": individuals}


def _dataset_from_json(payload: Mapping[str, object]):
    from repro.data.dataset import Dataset

    schema = _schema_from_json(payload["schema"])  # type: ignore[arg-type]
    rows = payload["individuals"]
    return Dataset.from_columns(
        schema,
        {name: [row["values"][name] for row in rows] for name in schema.names},  # type: ignore
        name=str(payload.get("name", "dataset")),
        uids=[str(row["uid"]) for row in rows],  # type: ignore[union-attr]
        validate=False,  # a drifted value must surface as a fingerprint mismatch
    )


#: Loader registry for datasets saved *by reference* instead of inline.  A
#: source spec is ``{"loader": <key>, ...loader-specific fields...}``.
#: ``base_dir`` anchors relative paths (the snapshot file's directory, so a
#: snapshot plus its column sidecars can be moved or shipped as a unit).
def _load_dataset_source(source: Mapping[str, object], base_dir: Optional[Path] = None):
    loader = source.get("loader")
    if loader == "columns":
        from repro.data.columns import ColumnStore
        from repro.data.dataset import Dataset

        try:
            directory = Path(str(source["dir"]))
            schema = _schema_from_json(source["schema"])  # type: ignore[arg-type]
        except KeyError as missing:
            raise CatalogError(
                f"columns dataset source is missing field {missing.args[0]!r} "
                "(needs dir, schema)"
            ) from None
        if not directory.is_absolute() and base_dir is not None:
            directory = base_dir / directory
        store = ColumnStore.load(directory, mmap=bool(source.get("mmap", True)))
        return Dataset.from_store(
            schema,
            store,
            name=str(source.get("name", "dataset")),
            validate=False,
        )
    if loader == "example_table1":
        from repro.data.loaders import load_example_table1

        return load_example_table1(name=str(source.get("name", "table1-example")))
    if loader == "csv":
        from repro.data.loaders import load_csv

        try:
            return load_csv(
                str(source["path"]),
                protected_names=[str(n) for n in source["protected"]],  # type: ignore[union-attr]
                observed_names=[str(n) for n in source["observed"]],  # type: ignore[union-attr]
                name=None if source.get("name") is None else str(source["name"]),
                uid_field=(
                    None if source.get("uid_field") is None else str(source["uid_field"])
                ),
            )
        except KeyError as missing:
            raise CatalogError(
                f"csv dataset source is missing field {missing.args[0]!r} "
                "(needs path, protected, observed)"
            ) from None
    if loader == "synthetic":
        from repro.experiments.workloads import synthetic_population

        # A "columnar" field (written by older snapshots) is ignored: every
        # population is column-backed.
        return synthetic_population(
            size=int(source.get("size", 400)),  # type: ignore[arg-type]
            seed=int(source.get("seed", 7)),  # type: ignore[arg-type]
        )
    raise CatalogError(
        f"unknown dataset loader {loader!r} in catalog snapshot; "
        "known loaders: columns, csv, example_table1, synthetic"
    )


# -- scoring functions --------------------------------------------------------


def _function_to_json(function, context: str) -> Dict[str, object]:
    from repro.scoring.linear import LinearScoringFunction

    if not isinstance(function, LinearScoringFunction):
        raise CatalogError(
            f"cannot snapshot {context}: {type(function).__name__} has no portable "
            "content representation (only linear scoring functions can be saved)"
        )
    return {
        "type": "linear",
        "name": function.name,
        "weights": dict(function.weights),
    }


def _function_from_json(payload: Mapping[str, object]):
    from repro.scoring.linear import LinearScoringFunction

    if payload.get("type") != "linear":
        raise CatalogError(
            f"unknown scoring-function type {payload.get('type')!r} in catalog snapshot"
        )
    # The saved weights are already normalised; normalize=False preserves them
    # bit-for-bit so the reloaded function's fingerprint matches exactly.
    return LinearScoringFunction(
        dict(payload["weights"]),  # type: ignore[arg-type]
        name=str(payload.get("name", "linear")),
        normalize=False,
    )


def function_to_portable_json(function, context: str = "scoring function") -> Dict[str, object]:
    """Portable JSON for a scoring function (warm-start bundles, snapshots).

    Raises :class:`~repro.errors.CatalogError` for function types without a
    portable content representation — callers skip those, they don't crash.
    """
    return _function_to_json(function, context)


def function_from_portable_json(payload: Mapping[str, object]):
    """Rebuild a scoring function from :func:`function_to_portable_json` output.

    Weights are preserved bit-for-bit so the rebuilt function's content
    fingerprint matches the one recorded at save time.
    """
    return _function_from_json(payload)


# -- filters ------------------------------------------------------------------


def _filter_to_json(row_filter) -> Dict[str, object]:
    from repro.data.filters import And, Between, Equals, Not, OneOf, Or, TrueFilter

    if isinstance(row_filter, TrueFilter):
        return {"op": "true"}
    if isinstance(row_filter, Equals):
        return {"op": "equals", "attribute": row_filter.attribute, "value": row_filter.value}
    if isinstance(row_filter, OneOf):
        return {
            "op": "one_of",
            "attribute": row_filter.attribute,
            "values": list(row_filter.values),
        }
    if isinstance(row_filter, Between):
        return {
            "op": "between",
            "attribute": row_filter.attribute,
            "low": row_filter.low,
            "high": row_filter.high,
        }
    if isinstance(row_filter, Not):
        return {"op": "not", "inner": _filter_to_json(row_filter.inner)}
    if isinstance(row_filter, And):
        return {"op": "and", "parts": [_filter_to_json(part) for part in row_filter.parts]}
    if isinstance(row_filter, Or):
        return {"op": "or", "parts": [_filter_to_json(part) for part in row_filter.parts]}
    raise CatalogError(
        f"cannot snapshot candidate filter {type(row_filter).__name__}; "
        "only the declarative filter algebra of repro.data.filters round-trips"
    )


def _filter_from_json(payload: Mapping[str, object]):
    from repro.data.filters import And, Between, Equals, Not, OneOf, Or, TrueFilter

    op = payload.get("op")
    if op == "true":
        return TrueFilter()
    if op == "equals":
        return Equals(str(payload["attribute"]), payload["value"])
    if op == "one_of":
        return OneOf(str(payload["attribute"]), tuple(payload["values"]))  # type: ignore[arg-type]
    if op == "between":
        return Between(
            str(payload["attribute"]),
            float(payload["low"]),  # type: ignore[arg-type]
            float(payload["high"]),  # type: ignore[arg-type]
        )
    if op == "not":
        return Not(_filter_from_json(payload["inner"]))  # type: ignore[arg-type]
    if op == "and":
        parts = payload["parts"]
        return And(tuple(_filter_from_json(part) for part in parts))  # type: ignore[union-attr]
    if op == "or":
        parts = payload["parts"]
        return Or(tuple(_filter_from_json(part) for part in parts))  # type: ignore[union-attr]
    raise CatalogError(f"unknown filter op {op!r} in catalog snapshot")


# -- marketplaces -------------------------------------------------------------


def _marketplace_to_json(marketplace) -> Dict[str, object]:
    jobs = [
        {
            "title": job.title,
            "description": job.description,
            "function": _function_to_json(
                job.function, f"job {job.title!r} of marketplace {marketplace.name!r}"
            ),
            "candidate_filter": _filter_to_json(job.candidate_filter),
        }
        for job in marketplace
    ]
    return {
        "name": marketplace.name,
        "workers": _dataset_to_json(marketplace.workers),
        "jobs": jobs,
    }


def _marketplace_from_json(payload: Mapping[str, object]):
    from repro.marketplace.entities import Job, Marketplace

    workers = _dataset_from_json(payload["workers"])  # type: ignore[arg-type]
    jobs = [
        Job(
            title=str(entry["title"]),
            function=_function_from_json(entry["function"]),
            candidate_filter=_filter_from_json(entry["candidate_filter"]),
            description=str(entry.get("description", "")),
        )
        for entry in payload["jobs"]  # type: ignore[union-attr]
    ]
    return Marketplace(name=str(payload.get("name", "marketplace")), workers=workers, jobs=jobs)


# -- formulations -------------------------------------------------------------


def _formulation_to_json(formulation) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "objective": formulation.objective.value,
        "aggregation": formulation.aggregation.value,
        "distance": formulation.distance.name,
        "bins": formulation.bins,
    }
    if formulation.binning is not None:
        payload["binning"] = {
            "low": formulation.binning.low,
            "high": formulation.binning.high,
            "bins": formulation.binning.bins,
        }
    return payload


def _formulation_from_json(payload: Mapping[str, object]):
    from repro.core.formulations import Formulation
    from repro.metrics.histogram import Binning

    formulation = Formulation.from_names(
        objective=str(payload["objective"]),
        aggregation=str(payload["aggregation"]),
        distance=str(payload["distance"]),
        bins=int(payload["bins"]),  # type: ignore[arg-type]
    )
    binning = payload.get("binning")
    if binning is not None:
        formulation = dataclass_replace(
            formulation,
            binning=Binning(
                low=float(binning["low"]),  # type: ignore[index]
                high=float(binning["high"]),  # type: ignore[index]
                bins=int(binning["bins"]),  # type: ignore[index]
            ),
        )
    return formulation


# -- snapshot save/load -------------------------------------------------------


def _resource_body(resource, dataset_sources: Mapping[str, Mapping[str, object]]):
    """The kind-specific body of one snapshot entry."""
    from repro.catalog import ResourceKind

    if resource.kind is ResourceKind.DATASET:
        source = dataset_sources.get(resource.name)
        if source is not None:
            if "loader" not in source:
                raise CatalogError(
                    f"dataset source for {resource.name!r} needs a 'loader' field"
                )
            return {"source": dict(source)}
        return {"dataset": _dataset_to_json(resource.value)}
    if resource.kind is ResourceKind.FUNCTION:
        return {"function": _function_to_json(resource.value, f"function {resource.name!r}")}
    if resource.kind is ResourceKind.MARKETPLACE:
        return {"marketplace": _marketplace_to_json(resource.value)}
    if resource.kind is ResourceKind.FORMULATION:
        return {"formulation": _formulation_to_json(resource.value)}
    raise CatalogError(f"unhandled resource kind {resource.kind!r}")  # pragma: no cover


def save_catalog(
    catalog: "Catalog",
    path: Union[str, Path],
    *,
    dataset_sources: Optional[Mapping[str, Mapping[str, object]]] = None,
    columnar_datasets: Union[bool, Sequence[str], None] = None,
) -> Dict[str, object]:
    """Write ``catalog`` to a snapshot file; returns the snapshot document.

    ``dataset_sources`` maps a registered dataset name to a loader reference
    (e.g. ``{"loader": "csv", "path": ..., "protected": [...], "observed":
    [...]}``); named datasets are saved by that reference instead of inline.

    ``columnar_datasets`` names registered datasets to persist as on-disk
    *column sidecars*: each one's values are written as raw column files
    under ``<path>.columns/<fingerprint-prefix>/`` (see
    :meth:`repro.data.columns.ColumnStore.save`) and the snapshot entry
    records a ``{"loader": "columns"}`` reference, so
    :func:`load_catalog` re-opens the arrays as read-only memory maps
    instead of parsing embedded JSON rows — the only practical shape for a
    million-row population.  ``True`` selects every registered dataset.
    The sidecar directory travels with the snapshot file (the recorded path
    is relative), and a name may not appear in both ``dataset_sources`` and
    ``columnar_datasets``.
    """
    sources = dict(dataset_sources or {})
    path = Path(path)
    dataset_names = {
        resource.name
        for resource in catalog.resources()
        if resource.kind.value == "dataset"
    }
    if columnar_datasets is True:
        columnar = set(dataset_names)
    else:
        columnar = {str(name) for name in (columnar_datasets or ())}
        unknown_columnar = columnar - dataset_names
        if unknown_columnar:
            raise CatalogError(
                "columnar_datasets references unregistered datasets: "
                f"{sorted(unknown_columnar)}"
            )
    overlap = columnar & set(sources)
    if overlap:
        raise CatalogError(
            f"datasets named in both dataset_sources and columnar_datasets: "
            f"{sorted(overlap)}"
        )
    if columnar:
        sidecar_root = path.with_name(path.name + ".columns")
        for resource in catalog.resources():
            if resource.name not in columnar or resource.kind.value != "dataset":
                continue
            dataset = resource.value
            directory = sidecar_root / resource.fingerprint[:16]
            try:
                directory.mkdir(parents=True, exist_ok=True)
                dataset.to_store().save(directory)
            except OSError as error:
                raise CatalogError(
                    f"cannot write column sidecar for dataset {resource.name!r}: {error}"
                ) from None
            sources[resource.name] = {
                "loader": "columns",
                "dir": f"{sidecar_root.name}/{resource.fingerprint[:16]}",
                "name": dataset.name,
                "schema": _schema_to_json(dataset.schema),
            }
    entries: List[Dict[str, object]] = []
    for resource in catalog.resources():
        entry: Dict[str, object] = {
            "kind": resource.kind.value,
            "name": resource.name,
            "fingerprint": resource.fingerprint,
            "frozen": resource.frozen,
        }
        entry.update(_resource_body(resource, sources))
        entries.append(entry)
    unknown = set(sources) - {
        entry["name"] for entry in entries if entry["kind"] == "dataset"
    }
    if unknown:
        raise CatalogError(
            f"dataset_sources references unregistered datasets: {sorted(unknown)}"
        )
    document: Dict[str, object] = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "resources": entries,
    }
    try:
        Path(path).write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    except OSError as error:
        raise CatalogError(f"cannot write catalog snapshot: {error}") from None
    return document


def _rebuild_resource(entry: Mapping[str, object], base_dir: Optional[Path] = None):
    """(kind, value) for one snapshot entry."""
    from repro.catalog import ResourceKind

    try:
        kind = ResourceKind(entry["kind"])
    except (KeyError, ValueError):
        raise CatalogError(
            f"catalog snapshot entry has unknown kind {entry.get('kind')!r}"
        ) from None
    if kind is ResourceKind.DATASET:
        if "source" in entry:
            return kind, _load_dataset_source(entry["source"], base_dir)  # type: ignore[arg-type]
        return kind, _dataset_from_json(entry["dataset"])  # type: ignore[arg-type]
    if kind is ResourceKind.FUNCTION:
        return kind, _function_from_json(entry["function"])  # type: ignore[arg-type]
    if kind is ResourceKind.MARKETPLACE:
        return kind, _marketplace_from_json(entry["marketplace"])  # type: ignore[arg-type]
    return kind, _formulation_from_json(entry["formulation"])  # type: ignore[arg-type]


def _read_snapshot_document(path: Union[str, Path]) -> List[Mapping[str, object]]:
    """Read and validate a snapshot file; returns its ``resources`` entries."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise CatalogError(f"cannot read catalog snapshot: {error}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise CatalogError(
            f"catalog snapshot {path} is not valid JSON (truncated file?): {error}"
        ) from None
    if not isinstance(document, dict) or document.get("format") != SNAPSHOT_FORMAT:
        raise CatalogError(
            f"{path} is not a catalog snapshot (missing "
            f'"format": "{SNAPSHOT_FORMAT}")'
        )
    version = document.get("version")
    if version != SNAPSHOT_VERSION:
        raise CatalogError(
            f"unsupported catalog snapshot version {version!r}; "
            f"this build reads version {SNAPSHOT_VERSION}"
        )
    entries = document.get("resources")
    if not isinstance(entries, list):
        raise CatalogError(f"catalog snapshot {path} has no 'resources' list")
    return entries


def snapshot_fingerprints(path: Union[str, Path]) -> Dict[Tuple[str, str], str]:
    """The ``(kind, name) -> fingerprint`` index of a snapshot file.

    Reads only the snapshot's recorded metadata — no dataset, marketplace or
    function is rebuilt — so a *shared-nothing* process (the shard router)
    can route requests by content fingerprint without holding any resource
    in memory.  Validates the file exactly like :func:`load_catalog` (same
    :class:`~repro.errors.CatalogError` failure modes for a missing file,
    truncated JSON or an unknown version).
    """
    fingerprints: Dict[Tuple[str, str], str] = {}
    for index, entry in enumerate(_read_snapshot_document(path), start=1):
        if not isinstance(entry, Mapping) or "name" not in entry or "kind" not in entry:
            raise CatalogError(
                f"catalog snapshot entry #{index} is malformed (needs kind and name)"
            )
        fingerprint = entry.get("fingerprint")
        if fingerprint is not None:
            fingerprints[(str(entry["kind"]), str(entry["name"]))] = str(fingerprint)
    return fingerprints


def load_catalog(path: Union[str, Path]) -> "Catalog":
    """Rebuild a :class:`~repro.catalog.Catalog` from a snapshot file.

    Raises :class:`~repro.errors.CatalogError` for an unreadable or truncated
    file, an unknown snapshot version, an unsupported resource entry, or an
    entry whose reconstructed content fingerprint no longer matches the one
    recorded at save time (e.g. a CSV source file that changed on disk).
    """
    from repro.catalog import Catalog

    entries = _read_snapshot_document(path)
    # Relative loader paths (column sidecars) resolve against the snapshot's
    # own directory, so a snapshot + sidecar tree relocates as a unit.
    base_dir = Path(path).resolve().parent
    catalog = Catalog()
    for index, entry in enumerate(entries, start=1):
        if not isinstance(entry, Mapping) or "name" not in entry:
            raise CatalogError(
                f"catalog snapshot entry #{index} is malformed (needs kind and name)"
            )
        try:
            kind, value = _rebuild_resource(entry, base_dir)
        except CatalogError:
            raise
        except (FaiRankError, KeyError, TypeError, ValueError) as error:
            raise CatalogError(
                f"catalog snapshot entry #{index} ({entry.get('name')!r}) cannot be "
                f"rebuilt: {error}"
            ) from None
        resource = catalog.register(
            value, name=str(entry["name"]), kind=kind, freeze=bool(entry.get("frozen"))
        )
        saved_fingerprint = entry.get("fingerprint")
        if saved_fingerprint is not None and resource.fingerprint != saved_fingerprint:
            raise CatalogError(
                f"catalog snapshot entry {resource.name!r} ({kind.value}) drifted: "
                f"reconstructed content fingerprint {resource.fingerprint[:12]} does "
                f"not match the saved {str(saved_fingerprint)[:12]}"
            )
    return catalog
