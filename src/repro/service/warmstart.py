"""Warm-start bundles: persist a service's hot state across restarts.

A graceful shutdown snapshots the service's *derived* state — the
materialized :class:`~repro.core.scorestore.ScoreStore` pool and the
JSON-payload result cache — into a directory of raw ``.bin`` buffers plus
JSON manifests.  A later boot pointed at the same directory reloads that
state so the first requests of a restarted fleet are served hot instead of
paying the cold scoring pass again.

Safety discipline (the same one :mod:`repro.snapshot` applies to catalogs):
every loaded component is verified against the *live* catalog by content
fingerprint, and every buffer by exact element count.  Anything that drifted,
truncated, or simply belongs to another deployment is skipped — counted on
``fairank_warmstart_skips_total`` with a stable ``reason`` label and logged
as a structured event — and the service falls back to cold compute for that
component.  A warm start can be slower than hoped; it can never be wrong.

Metric families (documented in ``docs/OPERATIONS.md``):

* ``fairank_warmstart_loads_total`` — components restored, by ``component``
  (``store`` or ``result``).
* ``fairank_warmstart_skips_total`` — components rejected, by ``reason``
  (``manifest``, ``fingerprint``, ``truncated``, ``function``,
  ``catalog_drift``, ``error``).
* ``fairank_warmstart_bytes_total`` — bytes of bundle data restored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.catalog import ResourceKind
from repro.core.scorestore import ScoreStore
from repro.errors import CatalogError, WarmStartError
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.service.fingerprint import (
    combine_fingerprints,
    fingerprint_function,
)
from repro.snapshot import function_from_portable_json, function_to_portable_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.data.dataset import Dataset
    from repro.service.service import FairnessService

__all__ = ["WARM_FORMAT", "WARM_VERSION", "save_warm_state", "load_warm_state"]

#: Identifies a warm-start bundle directory (arbitrary JSON is rejected loudly).
WARM_FORMAT = "fairank-warmstart"

#: The bundle schema version this build writes (and the only one it reads).
#: Version 2: result-cache keys hash the canonical request JSON, so version-1
#: entries could never be hit and are skipped with the whole bundle.
WARM_VERSION = 2


def _metrics():
    registry = get_registry()
    return (
        registry.counter(
            "fairank_warmstart_loads_total",
            "Warm-start components restored, by component (store/result).",
        ),
        registry.counter(
            "fairank_warmstart_skips_total",
            "Warm-start components rejected and served cold instead, by reason.",
        ),
        registry.counter(
            "fairank_warmstart_bytes_total",
            "Bytes of warm-start bundle data restored into memory.",
        ),
    )


def _skip(skips, reason: str, **fields: object) -> None:
    skips.inc(reason=reason)
    get_logger().event("warmstart_skip", reason=reason, **fields)


def _catalog_fingerprint(service: "FairnessService") -> str:
    """Content fingerprint over every registered resource, order-free.

    Cached results are only portable while the *whole* catalog content is
    unchanged — a result may reference any combination of resources, so the
    result cache is keyed on all of them at once.
    """
    return combine_fingerprints(
        "warm-catalog",
        *sorted(entry.fingerprint for entry in service.catalog.resources()),
    )


def _bundle_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.glob("*.bin"))


# -- saving -------------------------------------------------------------------


def save_warm_state(
    service: "FairnessService", directory: Union[str, Path]
) -> Dict[str, object]:
    """Persist the service's warm state under ``directory``; returns the manifest.

    Saved: every *materialized* score store whose function has a portable
    JSON form, and every result-cache entry holding a plain JSON payload.
    Cold stores, non-portable functions and kernel-level cache entries are
    silently left out — they are rebuilt on demand after a restart, exactly
    as they were built the first time.  The top-level ``manifest.json`` is
    written last, so an interrupted save is indistinguishable from no bundle.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stores_manifest: List[Dict[str, object]] = []
    for index, store in enumerate(service._store_pool.values()):
        if not isinstance(store, ScoreStore) or not store.materialized:
            continue
        try:
            function_json = function_to_portable_json(store.function)
        # Only functions with portable content can be verified at load time;
        # the rest are recomputed cold, never guessed.
        # fairlint: disable=FL007 -- documented skip of one store
        except CatalogError:
            continue
        store_dir = f"store_{index:02d}"
        store_manifest = store.save(directory / "stores" / store_dir)
        stores_manifest.append(
            {
                "directory": f"stores/{store_dir}",
                "dataset": store_manifest["dataset"],
                "rows": store_manifest["rows"],
                "dataset_fingerprint": store_manifest["dataset_fingerprint"],
                "function_fingerprint": store_manifest["function_fingerprint"],
                "function": function_json,
            }
        )
    results: List[Dict[str, object]] = []
    for key, value, cost in service.cache.items():
        if not isinstance(value, dict):
            continue
        entry = {"key": key, "cost": cost, "payload": value}
        try:
            json.dumps(entry)
        # Kernel-level memo entries (live objects) are rebuilt on demand.
        # fairlint: disable=FL007 -- documented skip of one cache entry
        except (TypeError, ValueError):
            continue
        results.append(entry)
    (directory / "results.json").write_text(
        json.dumps({"results": results}, indent=2) + "\n", encoding="utf-8"
    )
    manifest: Dict[str, object] = {
        "format": WARM_FORMAT,
        "version": WARM_VERSION,
        "catalog_fingerprint": _catalog_fingerprint(service),
        "stores": stores_manifest,
        "results": "results.json",
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    get_logger().event(
        "warmstart_save",
        directory=str(directory),
        stores=len(stores_manifest),
        results=len(results),
    )
    return manifest


# -- loading ------------------------------------------------------------------


def _load_store(
    service: "FairnessService", directory: Path, entry: Dict[str, object]
) -> Optional[str]:
    """Load one store bundle into the pool; returns its pool key (or None)."""
    loads, skips, bytes_total = _metrics()
    store_dir = directory / str(entry.get("directory", ""))
    try:
        function = function_from_portable_json(entry["function"])  # type: ignore[arg-type]
    except (CatalogError, KeyError, TypeError) as error:
        _skip(skips, "function", directory=str(store_dir), error=str(error))
        return None
    function_fingerprint = fingerprint_function(function)
    if function_fingerprint != entry.get("function_fingerprint"):
        _skip(
            skips,
            "fingerprint",
            directory=str(store_dir),
            detail="rebuilt function does not match its recorded fingerprint",
        )
        return None
    dataset_fingerprint = str(entry.get("dataset_fingerprint", ""))
    dataset: Optional["Dataset"] = None
    for resource in service.catalog.resources(ResourceKind.DATASET):
        if resource.fingerprint == dataset_fingerprint:
            dataset = resource.value  # type: ignore[assignment]
            break
    if dataset is None:
        _skip(
            skips,
            "fingerprint",
            directory=str(store_dir),
            detail="no live dataset matches the bundle's dataset fingerprint",
        )
        return None
    try:
        store = ScoreStore.load(store_dir, dataset, function)
    except WarmStartError as error:
        _skip(skips, error.reason, directory=str(store_dir), error=str(error))
        return None
    key = combine_fingerprints(
        "score-store", dataset_fingerprint, function_fingerprint
    )
    service._store_pool.put(key, store)
    loaded_bytes = _bundle_bytes(store_dir)
    loads.inc(component="store")
    bytes_total.inc(loaded_bytes)
    get_logger().event(
        "warmstart_load",
        component="store",
        dataset=dataset.name,
        function=function.name,
        rows=len(dataset),
        bytes=loaded_bytes,
    )
    return key


def _load_results(
    service: "FairnessService", directory: Path, manifest: Dict[str, object]
) -> int:
    """Reload cached result payloads; returns how many entries were restored."""
    loads, skips, bytes_total = _metrics()
    if manifest.get("catalog_fingerprint") != _catalog_fingerprint(service):
        # The catalog content changed since the bundle was saved; cached
        # results may reference resources that no longer mean the same thing.
        _skip(skips, "catalog_drift", directory=str(directory))
        return 0
    results_file = directory / str(manifest.get("results", "results.json"))
    try:
        payload = json.loads(results_file.read_text(encoding="utf-8"))
        entries = payload["results"]
    except (OSError, ValueError, KeyError, TypeError) as error:
        _skip(skips, "manifest", directory=str(directory), error=str(error))
        return 0
    restored = 0
    for entry in entries:
        try:
            key = str(entry["key"])
            cost = float(entry["cost"])
            value = entry["payload"]
        except (KeyError, TypeError, ValueError):
            _skip(skips, "manifest", directory=str(directory))
            continue
        if not isinstance(value, dict):
            _skip(skips, "manifest", directory=str(directory))
            continue
        # Entries arrive least recently used first, so re-inserting in file
        # order reproduces the cache's recency order exactly.
        service.cache.put(key, value, cost=cost)
        loads.inc(component="result")
        restored += 1
    if restored:
        loaded_bytes = results_file.stat().st_size
        bytes_total.inc(loaded_bytes)
        get_logger().event(
            "warmstart_load",
            component="results",
            entries=restored,
            bytes=loaded_bytes,
        )
    return restored


def load_warm_state(
    service: "FairnessService", directory: Union[str, Path]
) -> Dict[str, int]:
    """Reload warm state saved by :func:`save_warm_state`; returns load counts.

    Every component is fingerprint-verified against the live catalog; drift,
    truncation or foreign content skips that component (counted and logged)
    and the service computes it cold on first use.  A directory without a
    ``manifest.json`` is a normal first boot — nothing is loaded or counted.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        return {"stores": 0, "results": 0}
    _, skips, _ = _metrics()
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        _skip(skips, "manifest", directory=str(directory), error=str(error))
        return {"stores": 0, "results": 0}
    if not isinstance(manifest, dict) or manifest.get("format") != WARM_FORMAT:
        _skip(skips, "manifest", directory=str(directory), detail="not a warm bundle")
        return {"stores": 0, "results": 0}
    if manifest.get("version") != WARM_VERSION:
        _skip(
            skips,
            "manifest",
            directory=str(directory),
            detail=f"unsupported bundle version {manifest.get('version')!r}",
        )
        return {"stores": 0, "results": 0}
    stores = 0
    entries = manifest.get("stores", ())
    if isinstance(entries, list):
        for entry in entries:
            if isinstance(entry, dict) and _load_store(service, directory, entry):
                stores += 1
    results = _load_results(service, directory, manifest)
    return {"stores": stores, "results": results}
