"""The :class:`FairnessService` facade: catalog + cache + request execution.

FaiRank is interactive: users re-run the partitioning search over the same
population while varying the scoring function and the formulation, and
auditors fan the same analysis out across jobs and platforms.  The service
layer turns the library's pure functions into a servable engine:

* a single :class:`~repro.catalog.Catalog` of named datasets, scoring
  functions, marketplaces and formulations — the one registry the session
  engine, the role workflows, batch execution and the CLI all resolve
  resources through (fingerprint-aware, with replace/freeze semantics);
* a **result cache** keyed by the canonical request JSON with resource
  fingerprints, so identical requests are computed once
  (:mod:`repro.service.fingerprint`, :mod:`repro.service.cache`);
* **request execution** for the typed wire protocol v2 of
  :mod:`repro.service.jobs` — all seven request kinds — returning JSON-ready
  :class:`~repro.service.jobs.ServiceResult` envelopes, with failures
  reported as structured error payloads instead of raised-only exceptions;
* cached wrappers around the role workflows (``Auditor``, ``JobOwner``,
  ``EndUser``) and the core kernels (``quantify``, ``exhaustive_search``,
  ``unfairness_breakdown``) for programmatic callers such as
  :class:`~repro.session.engine.FaiRankEngine`.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.catalog import Catalog, ResourceKind
from repro.core.exhaustive import ExhaustiveResult, exhaustive_search
from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD, resolve_binning
from repro.core.partition import root_partition, split_partition
from repro.core.quantify import QuantifyResult, quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import (
    UnfairnessBreakdown,
    pairwise_distances,
    unfairness_breakdown,
)
from repro.data.dataset import Dataset
from repro.errors import CatalogError, FaiRankError, ServiceError
from repro.marketplace.entities import Marketplace
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Trace, activate, current_trace_id
from repro.roles.auditor import AuditReport, Auditor
from repro.roles.end_user import EndUser
from repro.roles.job_owner import JobOwner, JobOwnerReport
from repro.roles.report import ReportTable
from repro.scoring.base import ScoringFunction
from repro.scoring.library import weight_sweep
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction, RankDerivedScorer
from repro.service.cache import CacheStats, LRUCache
from repro.service.fingerprint import (
    combine_fingerprints,
    fingerprint_dataset,
    fingerprint_formulation,
    fingerprint_function,
    fingerprint_marketplace,
    fingerprint_value,
)
from repro.service.jobs import (
    AuditRequest,
    BreakdownRequest,
    CompareRequest,
    EndUserRequest,
    JobOwnerRequest,
    QuantifyRequest,
    ServiceRequest,
    ServiceResult,
    SweepRequest,
    wire_fields,
)

__all__ = ["CachedQuantify", "FairnessService", "StorePoolStats"]


def _copy_json(value):
    """Deep copy of a plain-JSON tree (dict/list/scalars only).

    Payloads are JSON-safe by construction, so this replaces
    ``copy.deepcopy`` on the warm serving path — same privacy guarantee
    (mutating a served payload never corrupts the cached value) without
    deepcopy's per-object memo bookkeeping, which dominated warm latency.
    ``marshal`` round-trips plain containers at C speed; anything it cannot
    handle (it raises ``ValueError``) falls back to a recursive copy.
    """
    try:
        return marshal.loads(marshal.dumps(value))
    # marshal cannot serialise this tree: the recursive copy below handles it.
    # fairlint: disable=FL007 -- documented fallback chain
    except ValueError:
        pass
    if isinstance(value, dict):
        return {key: _copy_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_copy_json(item) for item in value]
    return value


def _error_code(error: BaseException) -> str:
    """Stable wire code for an exception class (``ServiceError`` -> ``service``)."""
    name = type(error).__name__
    if name.endswith("Error"):
        name = name[: -len("Error")]
    code = re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()
    return code or "error"


@dataclass(frozen=True)
class CachedQuantify:
    """A QUANTIFY search plus its breakdown, as served from the cache."""

    result: QuantifyResult
    breakdown: UnfairnessBreakdown
    key: str
    cached: bool


@dataclass(frozen=True)
class StorePoolStats:
    """Snapshot of the service's score-store pool effectiveness.

    ``hits``/``misses`` count store *lookups* (a hit means a later request
    over the same (dataset, function) fingerprints reused an existing
    materialized score vector); the scoring/histogram counters aggregate over
    the live stores (evicted stores take their counters with them).
    """

    stores: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    scoring_passes: int = 0
    sliced_partitions: int = 0
    histogram_hits: int = 0
    histogram_misses: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of store lookups that reused a materialized vector."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "stores": self.stores,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "scoring_passes": self.scoring_passes,
            "sliced_partitions": self.sliced_partitions,
            "histogram_hits": self.histogram_hits,
            "histogram_misses": self.histogram_misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def describe(self) -> str:
        return (
            f"{self.stores} store(s), {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} reuse), {self.scoring_passes} scoring pass(es), "
            f"histograms {self.histogram_hits} hits / {self.histogram_misses} misses, "
            f"{self.evictions} evictions"
        )


class FairnessService:
    """Servable fairness engine: one catalogue, memoisation, requests.

    Parameters
    ----------
    cache_size:
        Maximum number of memoised results (ignored when ``cache`` is given).
    max_cost:
        Optional total-cost bound for the cache; the cost of a quantify
        result is the number of candidate splits its search evaluated.
    cache:
        An externally owned :class:`~repro.service.cache.LRUCache`, e.g. to
        share one cache between several services or sessions.
    max_stores:
        Bound on the number of per-(dataset, function) score stores the
        service keeps for cross-request reuse (LRU-evicted beyond it).
    catalog:
        An externally owned :class:`~repro.catalog.Catalog`, e.g. to share
        one resource registry between several services.  By default the
        service owns a fresh catalog — the *only* catalogue in the system;
        session engines delegate to it rather than keeping their own.
    """

    def __init__(
        self,
        cache_size: int = 256,
        max_cost: Optional[float] = None,
        cache: Optional[LRUCache] = None,
        max_stores: int = 32,
        catalog: Optional[Catalog] = None,
        warm_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if max_stores < 1:
            raise ServiceError(f"max_stores must be >= 1, got {max_stores}")
        self.catalog = catalog if catalog is not None else Catalog()
        self.cache = cache if cache is not None else LRUCache(cache_size, max_cost=max_cost)
        self.max_stores = max_stores
        # The store pool is itself an LRUCache: thread-safe LRU with
        # hit/miss/eviction stats and single-flight store construction.
        self._store_pool = LRUCache(max_stores)
        # Where warm-start bundles live; the constructor only records the
        # path — callers invoke load_warm_state() once the catalogue is
        # populated (fingerprint verification needs the live resources).
        self.warm_dir = Path(warm_dir) if warm_dir is not None else None

    # -- warm-start persistence ------------------------------------------------

    def load_warm_state(
        self, directory: Optional[Union[str, Path]] = None
    ) -> Optional[Dict[str, int]]:
        """Reload warm state from ``directory`` (default: ``warm_dir``).

        A no-op returning ``None`` when no directory is configured.  Load
        failures never propagate: each component is individually verified and
        skipped on mismatch (see :mod:`repro.service.warmstart`), so a stale
        or corrupted bundle degrades to a cold boot, never a crashed one.
        """
        target = Path(directory) if directory is not None else self.warm_dir
        if target is None:
            return None
        from repro.service.warmstart import load_warm_state

        return load_warm_state(self, target)

    def save_warm_state(
        self, directory: Optional[Union[str, Path]] = None
    ) -> Optional[Dict[str, object]]:
        """Persist warm state to ``directory`` (default: ``warm_dir``).

        A no-op returning ``None`` when no directory is configured.  Save
        errors are reported as a structured event rather than raised — a
        shutdown must always complete, warm bundle or not.
        """
        target = Path(directory) if directory is not None else self.warm_dir
        if target is None:
            return None
        from repro.obs.log import get_logger
        from repro.service.warmstart import save_warm_state

        try:
            return save_warm_state(self, target)
        # Shutdown must finish even when the disk is full or read-only; the
        # next boot simply comes up cold.
        except OSError as error:
            get_logger().event(
                "warmstart_save_failed", directory=str(target), error=str(error)
            )
            return None

    # -- the catalogue ---------------------------------------------------------

    def register_dataset(
        self,
        dataset: Dataset,
        name: Optional[str] = None,
        *,
        replace: bool = True,
        freeze: bool = False,
    ) -> str:
        """Add a dataset to the catalogue; returns its registered name."""
        try:
            return self.catalog.register(
                dataset, name=name, kind=ResourceKind.DATASET,
                replace=replace, freeze=freeze,
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def register_function(
        self,
        function: ScoringFunction,
        replace: bool = True,
        *,
        freeze: bool = False,
    ) -> str:
        """Add a scoring function to the catalogue; returns its name."""
        try:
            return self.catalog.register(
                function, kind=ResourceKind.FUNCTION, replace=replace, freeze=freeze
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def register_marketplace(
        self, marketplace: Marketplace, *, replace: bool = True, freeze: bool = False
    ) -> str:
        """Register a marketplace plus its workers dataset and job functions.

        ``replace`` governs the satellite registrations too: with
        ``replace=False`` a job function whose name is already taken by
        *different* content raises (after the marketplace and workers entries
        have landed — registration is not transactional).  ``freeze`` pins
        only the marketplace entry itself; job functions may be shared with
        other marketplaces, so they are never frozen implicitly.
        """
        try:
            name = self.catalog.register(
                marketplace, kind=ResourceKind.MARKETPLACE,
                replace=replace, freeze=freeze,
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None
        self.register_dataset(marketplace.workers, name=name, replace=replace)
        for job in marketplace:
            self.register_function(job.function, replace=replace)
        return name

    def register_formulation(
        self,
        formulation: Formulation,
        name: Optional[str] = None,
        *,
        replace: bool = True,
        freeze: bool = False,
    ) -> str:
        """Add a named formulation to the catalogue; returns its name."""
        try:
            return self.catalog.register(
                formulation, name=name or formulation.name,
                kind=ResourceKind.FORMULATION, replace=replace, freeze=freeze,
            ).name
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    @property
    def dataset_names(self) -> Tuple[str, ...]:
        return self.catalog.names(ResourceKind.DATASET)

    @property
    def function_names(self) -> Tuple[str, ...]:
        return self.catalog.names(ResourceKind.FUNCTION)

    @property
    def marketplace_names(self) -> Tuple[str, ...]:
        return self.catalog.names(ResourceKind.MARKETPLACE)

    @property
    def formulation_names(self) -> Tuple[str, ...]:
        return self.catalog.names(ResourceKind.FORMULATION)

    def dataset(self, ref: str) -> Dataset:
        """Resolve a dataset by name or content-fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.DATASET, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def function(self, ref: str) -> ScoringFunction:
        """Resolve a scoring function by name or content-fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.FUNCTION, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def marketplace(self, ref: str) -> Marketplace:
        """Resolve a marketplace by name or content-fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.MARKETPLACE, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    def formulation(self, ref: str) -> Formulation:
        """Resolve a registered formulation by name or fingerprint prefix."""
        try:
            return self.catalog.resolve(ResourceKind.FORMULATION, ref)  # type: ignore[return-value]
        except CatalogError as error:
            raise ServiceError(str(error)) from None

    @property
    def cache_stats(self) -> CacheStats:
        return self.cache.stats

    # -- score materialization (cross-request reuse) ---------------------------

    def score_store(self, dataset: Dataset, function: ScoringFunction) -> ScoreStore:
        """The shared :class:`~repro.core.scorestore.ScoreStore` for a pair.

        Stores are keyed by *content* fingerprints, so an AUDIT or COMPARE
        fan-out that re-runs searches over the same population and scoring
        function — even via rebuilt, content-identical objects — shares one
        materialized scoring pass.  The pool is LRU-bounded by ``max_stores``.
        """
        key = combine_fingerprints(
            "score-store", fingerprint_dataset(dataset), fingerprint_function(function)
        )
        # Content-keyed: a store serves content-identical roots as its own.
        store, _ = self._store_pool.get_or_compute(
            key, lambda: ScoreStore(dataset, function)
        )
        return store

    @property
    def store_stats(self) -> StorePoolStats:
        """Aggregate effectiveness of the score-store pool (for monitoring)."""
        pool = self._store_pool.stats
        per_store = [store.stats for store in self._store_pool.values()]
        return StorePoolStats(
            stores=pool.entries,
            hits=pool.hits,
            misses=pool.misses,
            evictions=pool.evictions,
            scoring_passes=sum(s.scoring_passes for s in per_store),
            sliced_partitions=sum(s.sliced_partitions for s in per_store),
            histogram_hits=sum(s.histogram_hits for s in per_store),
            histogram_misses=sum(s.histogram_misses for s in per_store),
        )

    # -- cached kernels (object-level API) ------------------------------------

    def quantify_cached(
        self,
        dataset: Dataset,
        function: ScoringFunction,
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
        *,
        attributes: Optional[Sequence[str]] = None,
        max_depth: Optional[int] = None,
        min_partition_size: int = 1,
    ) -> CachedQuantify:
        """Memoised ``quantify`` + ``unfairness_breakdown`` over live objects.

        The key is built from content fingerprints, so re-filtered copies of
        the same population and freshly re-built but identical scoring
        functions still hit the cache.
        """
        key = combine_fingerprints(
            "quantify",
            fingerprint_dataset(dataset),
            fingerprint_function(function),
            fingerprint_formulation(formulation),
            fingerprint_value(
                {
                    "attributes": None if attributes is None else list(attributes),
                    "max_depth": max_depth,
                    "min_partition_size": min_partition_size,
                }
            ),
        )

        def produce() -> Tuple[QuantifyResult, UnfairnessBreakdown]:
            store = self.score_store(dataset, function)
            result = quantify(
                dataset,
                function,
                formulation=formulation,
                attributes=attributes,
                max_depth=max_depth,
                min_partition_size=min_partition_size,
                store=store,
            )
            breakdown = unfairness_breakdown(
                result.partitioning, function, formulation, store=store
            )
            return result, breakdown

        (result, breakdown), hit = self.cache.get_or_compute(
            key, produce, cost=lambda pair: float(pair[0].splits_evaluated + 1)
        )
        return CachedQuantify(result=result, breakdown=breakdown, key=key, cached=hit)

    def exhaustive_cached(
        self,
        dataset: Dataset,
        function: ScoringFunction,
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
        *,
        attributes: Optional[Sequence[str]] = None,
        limit: Optional[int] = 200_000,
    ) -> ExhaustiveResult:
        """Memoised :func:`~repro.core.exhaustive.exhaustive_search`."""
        key = combine_fingerprints(
            "exhaustive",
            fingerprint_dataset(dataset),
            fingerprint_function(function),
            fingerprint_formulation(formulation),
            fingerprint_value(
                {
                    "attributes": None if attributes is None else list(attributes),
                    "limit": limit,
                }
            ),
        )
        result, _ = self.cache.get_or_compute(
            key,
            lambda: exhaustive_search(
                dataset,
                function,
                formulation=formulation,
                attributes=attributes,
                limit=limit,
                store=self.score_store(dataset, function),
            ),
            cost=lambda outcome: float(outcome.explored + 1),
        )
        return result

    def breakdown_cached(
        self,
        dataset: Dataset,
        function: ScoringFunction,
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
        *,
        attributes: Optional[Sequence[str]] = None,
        max_depth: Optional[int] = None,
        min_partition_size: int = 1,
    ) -> UnfairnessBreakdown:
        """The breakdown of the quantified partitioning (shares the cache)."""
        return self.quantify_cached(
            dataset,
            function,
            formulation,
            attributes=attributes,
            max_depth=max_depth,
            min_partition_size=min_partition_size,
        ).breakdown

    # -- cached role workflows -------------------------------------------------

    def _resolve_marketplace(self, marketplace: Union[str, Marketplace]) -> Marketplace:
        if isinstance(marketplace, str):
            return self.marketplace(marketplace)
        return marketplace

    def audit_marketplace(
        self,
        marketplace: Union[str, Marketplace],
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
        *,
        attributes: Optional[Sequence[str]] = None,
        min_partition_size: int = 1,
    ) -> AuditReport:
        """Memoised AUDITOR workflow over a (named or live) marketplace."""
        market = self._resolve_marketplace(marketplace)
        key = combine_fingerprints(
            "audit-report",
            fingerprint_marketplace(market),
            fingerprint_formulation(formulation),
            fingerprint_value(
                {
                    "attributes": None if attributes is None else list(attributes),
                    "min_partition_size": min_partition_size,
                }
            ),
        )
        auditor = Auditor(
            formulation=formulation,
            attributes=attributes,
            min_partition_size=min_partition_size,
            store_provider=self.score_store,
        )
        report, _ = self.cache.get_or_compute(
            key,
            lambda: auditor.audit_marketplace(market),
            cost=lambda rep: float(
                sum(audit.result.splits_evaluated for audit in rep.audits) + 1
            ),
        )
        return report

    def explore_job(
        self,
        marketplace: Union[str, Marketplace],
        job_title: str,
        sweep_steps: int = 5,
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
        *,
        attributes: Optional[Sequence[str]] = None,
        min_partition_size: int = 1,
    ) -> JobOwnerReport:
        """Memoised JOB OWNER workflow (weight sweep over one job)."""
        market = self._resolve_marketplace(marketplace)
        key = combine_fingerprints(
            "job-owner",
            fingerprint_marketplace(market),
            fingerprint_formulation(formulation),
            fingerprint_value(
                {
                    "job_title": job_title,
                    "sweep_steps": sweep_steps,
                    "attributes": None if attributes is None else list(attributes),
                    "min_partition_size": min_partition_size,
                }
            ),
        )
        owner = JobOwner(
            formulation=formulation,
            attributes=attributes,
            min_partition_size=min_partition_size,
        )
        report, _ = self.cache.get_or_compute(
            key, lambda: owner.explore_job(market, job_title, sweep_steps=sweep_steps)
        )
        return report

    def end_user_view(
        self,
        group: Mapping[str, object],
        marketplaces: Sequence[Union[str, Marketplace]],
        job_title: str,
        formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    ) -> ReportTable:
        """Memoised END USER workflow: one group, one job, several platforms."""
        markets = [self._resolve_marketplace(market) for market in marketplaces]
        key = combine_fingerprints(
            "end-user",
            fingerprint_value(dict(group)),
            fingerprint_value(job_title),
            fingerprint_formulation(formulation),
            *[fingerprint_marketplace(market) for market in markets],
        )
        table, _ = self.cache.get_or_compute(
            key,
            lambda: EndUser(dict(group), formulation=formulation).compare_marketplaces(
                markets, job_title
            ),
        )
        return table

    # -- request execution (the wire protocol) --------------------------------

    def request_key(self, request: ServiceRequest) -> str:
        """The cache key a request resolves to: SHA-256 of its canonical JSON.

        The hashed JSON is the request's wire form (kind included) with every
        resource reference replaced by ``{"name", "fingerprint"}``: the
        requested name (payloads echo it) plus the catalog entry's content
        fingerprint (re-registering different data under a name changes the
        key).  Every field is covered by construction; a field that must not
        split the cache is normalised in the request's ``__post_init__``.
        Unknown resources and invalid formulations raise here, before any
        computation.  Content-level sharing across names happens one layer
        down, in :meth:`quantify_cached`.
        """
        wire = request.to_json()
        for spec in wire_fields(type(request)):
            if spec.reference is not None:
                wire[spec.name] = self._pin(spec.reference, wire[spec.name])
        request.formulation()
        canonical = json.dumps(wire, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _pin(self, kind: ResourceKind, value: object) -> object:
        """A reference (or list of references) as it enters a request key."""
        if isinstance(value, list):
            return [self._pin(kind, name) for name in value]
        try:
            fingerprint = self.catalog.get(kind, str(value)).fingerprint
        except CatalogError as error:
            raise ServiceError(str(error)) from None
        return {"name": value, "fingerprint": fingerprint}

    def error_result(
        self,
        request: ServiceRequest,
        error: BaseException,
        key: str = "",
        elapsed_s: float = 0.0,
        timings: Optional[Dict[str, object]] = None,
    ) -> ServiceResult:
        """The protocol-v2 error envelope for a failed request."""
        return ServiceResult(
            kind=request.kind,
            key=key,
            payload={},
            cached=False,
            elapsed_s=elapsed_s,
            store_stats=self.store_stats.as_dict(),
            timings=timings,
            error={"code": _error_code(error), "message": str(error)},
        )

    @staticmethod
    def _finish_timings(trace: Trace, elapsed: float) -> Dict[str, object]:
        """The envelope's ``timings`` field: recorded spans + derived totals.

        ``cache_ms`` is what is left of the wall clock after fingerprinting
        and payload computation — cache lookup, single-flight waiting and
        envelope assembly.  ``score_ms`` (when present) is *inside*
        ``compute_ms``: it times the score store's materialization pass.
        """
        timings = trace.timings()
        total_ms = round(elapsed * 1000.0, 3)
        key_ms = float(timings.get("key_ms", 0.0))  # type: ignore[arg-type]
        compute_ms = float(timings.get("compute_ms", 0.0))  # type: ignore[arg-type]
        timings["cache_ms"] = round(max(total_ms - key_ms - compute_ms, 0.0), 3)
        timings["total_ms"] = total_ms
        return timings

    @staticmethod
    def _record_request(
        kind: str, status: str, cached: bool, elapsed: float,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        registry = registry if registry is not None else get_registry()
        registry.counter(
            "fairank_requests_total",
            "Executed service requests by kind, outcome and cache hit",
        ).inc(kind=kind, status=status, cached="true" if cached else "false")
        registry.histogram(
            "fairank_request_seconds", "Service request latency by kind"
        ).observe(elapsed, kind=kind)

    def execute(
        self, request: ServiceRequest, key: Optional[str] = None
    ) -> ServiceResult:
        """Execute one request, serving from the cache when possible.

        ``key`` lets callers that already computed :meth:`request_key`
        (:meth:`execute_many` does, for deduplication) skip recomputing it.

        A request that fails with a library error (unknown resource, invalid
        formulation, empty candidate pool, ...) returns an **error envelope**
        — :class:`~repro.service.jobs.ServiceResult` with ``error`` set and
        an empty payload — rather than raising, so batch and remote callers
        always get one result per request.  Error results are never cached:
        registering the missing resource makes the same request succeed.

        Note on statistics: a cold quantify/compare request records a miss
        both for its request-level payload entry and for the underlying
        kernel entry of :meth:`quantify_cached` (the layer shared with
        :class:`~repro.session.engine.FaiRankEngine`); ``cache_stats``
        therefore counts both layers.  The returned payload is a private
        deep copy — mutating it never corrupts the cached value.
        """
        started = time.perf_counter()
        # A fresh trace per request, inheriting any active trace id (HTTP
        # ingress, batch parent): batched requests share one trace id while
        # keeping per-request timings.
        trace = Trace(trace_id=current_trace_id())
        registry = get_registry()
        with activate(trace):
            try:
                if key is None:
                    with trace.span("key"):
                        key = self.request_key(request)

                def produce() -> Dict[str, object]:
                    with trace.span("compute"):
                        return self._build_payload(request)

                payload, hit = self.cache.get_or_compute(key, produce)
            except FaiRankError as error:
                elapsed = time.perf_counter() - started
                self._record_request(request.kind, "error", False, elapsed, registry)
                return self.error_result(
                    request, error, key=key or "", elapsed_s=elapsed,
                    timings=self._finish_timings(trace, elapsed),
                )
        elapsed = time.perf_counter() - started
        self._record_request(request.kind, "ok", hit, elapsed, registry)
        return ServiceResult(
            kind=request.kind,
            key=key,
            payload=_copy_json(payload),
            cached=hit,
            elapsed_s=elapsed,
            store_stats=self.store_stats.as_dict(),
            timings=self._finish_timings(trace, elapsed),
        )

    def execute_many(self, requests: Sequence[ServiceRequest]) -> List[ServiceResult]:
        """Run a batch serially, computing each distinct key once.

        Results come back in input order, and requests with the same key
        share one :class:`~repro.service.jobs.ServiceResult`.  A request
        whose key cannot be computed (it references a resource the catalog
        does not know, or names an invalid formulation) gets an error
        envelope in its slot instead of failing the whole batch.  Parallel
        serving is the worker fleet's job (:mod:`repro.shard`): under the
        GIL a thread pool here ran slower than this loop.
        """
        served: Dict[str, ServiceResult] = {}
        results: List[ServiceResult] = []
        for request in requests:
            try:
                key = self.request_key(request)
            except FaiRankError as error:
                results.append(self.error_result(request, error))
                continue
            if key not in served:
                served[key] = self.execute(request, key)
            results.append(served[key])
        return results

    # -- payload builders ------------------------------------------------------

    def _effective_function(
        self, dataset: Dataset, function_name: str, use_ranks_only: bool
    ) -> ScoringFunction:
        """Resolve a function honouring the transparency settings."""
        function = self.function(function_name)
        if isinstance(function, OpaqueScoringFunction):
            return RankDerivedScorer(
                function.reveal_ranking(dataset), name=f"{function_name}-from-ranks"
            )
        if use_ranks_only:
            return RankDerivedScorer(
                function.rank(dataset), name=f"{function_name}-from-ranks"
            )
        return function

    def _build_payload(self, request: ServiceRequest) -> Dict[str, object]:
        """Dispatch on kind: every kind has a ``_<kind>_payload`` handler."""
        return getattr(self, f"_{request.kind}_payload")(request)

    def _quantify_payload(self, request: QuantifyRequest) -> Dict[str, object]:
        dataset = self.dataset(request.dataset)
        function = self._effective_function(
            dataset, request.function, request.use_ranks_only
        )
        formulation = request.formulation()
        served = self.quantify_cached(
            dataset,
            function,
            formulation,
            attributes=request.attributes,
            max_depth=request.max_depth,
            min_partition_size=request.min_partition_size,
        )
        result, breakdown = served.result, served.breakdown
        return {
            "dataset": request.dataset,
            "function": request.function,
            "formulation": formulation.name,
            "population": len(dataset),
            "unfairness": result.unfairness,
            "partitions": [
                {"label": label, "size": size}
                for label, size in zip(result.partitioning.labels, result.partitioning.sizes)
            ],
            "splits_evaluated": result.splits_evaluated,
            "most_favored": breakdown.most_favored,
            "least_favored": breakdown.least_favored,
            "pairwise": [
                [first, second, value]
                for (first, second), value in breakdown.pairwise.items()
            ],
        }

    def _audit_payload(self, request: AuditRequest) -> Dict[str, object]:
        market = self.marketplace(request.marketplace)
        formulation = request.formulation()
        auditor = Auditor(
            formulation=formulation,
            attributes=request.attributes,
            min_partition_size=request.min_partition_size,
            store_provider=self.score_store,
        )
        if request.job is not None:
            audits = [auditor.audit_job(market, market.job(request.job))]
        else:
            audits = list(
                self.audit_marketplace(
                    market,
                    formulation,
                    attributes=request.attributes,
                    min_partition_size=request.min_partition_size,
                ).audits
            )
        jobs_payload = [
            {
                "job": audit.job_title,
                "transparent_function": audit.transparent_function,
                "unfairness": audit.unfairness,
                "groups": list(audit.partitions),
                "most_favored": audit.most_favored,
                "least_favored": audit.least_favored,
            }
            for audit in audits
        ]
        most_unfair = max(audits, key=lambda audit: audit.unfairness)
        least_unfair = min(audits, key=lambda audit: audit.unfairness)
        return {
            "marketplace": request.marketplace,
            "formulation": formulation.name,
            "jobs": jobs_payload,
            "most_unfair_job": most_unfair.job_title,
            "least_unfair_job": least_unfair.job_title,
        }

    def _compare_payload(self, request: CompareRequest) -> Dict[str, object]:
        dataset = self.dataset(request.dataset)
        formulation = request.formulation()
        rows: List[Dict[str, object]] = []
        for name in request.functions:
            served = self.quantify_cached(
                dataset,
                self._effective_function(dataset, name, use_ranks_only=False),
                formulation,
                attributes=request.attributes,
                max_depth=request.max_depth,
                min_partition_size=request.min_partition_size,
            )
            rows.append(
                {
                    "function": name,
                    "unfairness": served.result.unfairness,
                    "groups": len(served.result.partitioning),
                    "most_favored": served.breakdown.most_favored,
                    "least_favored": served.breakdown.least_favored,
                }
            )
        by_unfairness = sorted(rows, key=lambda row: (row["unfairness"], row["function"]))
        return {
            "dataset": request.dataset,
            "formulation": formulation.name,
            "functions": rows,
            "fairest": by_unfairness[0]["function"],
            "most_unfair": by_unfairness[-1]["function"],
        }

    def _breakdown_payload(self, request: BreakdownRequest) -> Dict[str, object]:
        """Per-attribute unfairness of the first-level single-attribute splits."""
        dataset = self.dataset(request.dataset)
        function = self._effective_function(
            dataset, request.function, request.use_ranks_only
        )
        formulation = request.formulation()
        binning = resolve_binning(formulation)
        attributes = (
            request.attributes
            if request.attributes is not None
            else dataset.schema.protected_names
        )
        if not attributes:
            raise ServiceError(
                "a breakdown request needs at least one protected attribute "
                f"(dataset {request.dataset!r} declares none)"
            )
        for attribute in attributes:
            dataset.schema.require_protected(attribute)
        # One materialized scoring pass serves every attribute's split, over
        # the store's own (content-identical) root: nothing is remapped.
        store = self.score_store(dataset, function)
        root = root_partition(store.dataset)
        rows: List[Dict[str, object]] = []
        for attribute in attributes:
            children = split_partition(root, attribute)
            admissible = len(children) >= 2 and all(
                child.size >= request.min_partition_size for child in children
            )
            if len(children) >= 2:
                _, _, histograms = store.candidate_split(root, attribute, binning)
                value = formulation.aggregate(
                    pairwise_distances(histograms, formulation)
                )
            else:
                value = 0.0
            groups = []
            for child in children:
                scores = store.scores(child)
                groups.append(
                    {
                        "label": child.label,
                        "size": child.size,
                        "mean_score": float(scores.mean()) if scores.size else 0.0,
                    }
                )
            rows.append(
                {
                    "attribute": attribute,
                    "unfairness": value,
                    "admissible": admissible,
                    "groups": groups,
                }
            )
        ranked = [row for row in rows if row["admissible"]] or rows
        most = max(ranked, key=lambda row: row["unfairness"])
        least = min(ranked, key=lambda row: row["unfairness"])
        return {
            "dataset": request.dataset,
            "function": request.function,
            "formulation": formulation.name,
            "population": len(dataset),
            "attributes": rows,
            "most_unfair_attribute": most["attribute"],
            "least_unfair_attribute": least["attribute"],
        }

    def _sweep_payload(self, request: SweepRequest) -> Dict[str, object]:
        """Weight sweep over a linear function, one shared scoring pass per point.

        Every sweep point resolves its :class:`~repro.core.scorestore.ScoreStore`
        through the pool *before* running the search, so the summary statistics
        and the (quantify + breakdown) kernel share one materialized vector —
        the pool records a hit per point, visible in ``store_stats``.
        """
        dataset = self.dataset(request.dataset)
        base = self.function(request.function)
        if not isinstance(base, LinearScoringFunction):
            raise ServiceError(
                f"sweep requests need a transparent linear scoring function; "
                f"{request.function!r} is a {type(base).__name__}"
            )
        formulation = request.formulation()
        vectors = request.weight_maps
        if vectors is None:
            vectors = tuple(weight_sweep(base.attributes, steps=request.steps))
        points: List[Dict[str, object]] = []
        for index, weights in enumerate(vectors):
            # An explicit vector fully specifies the variant's weights
            # (normalized; attributes it omits get weight 0) — it is NOT
            # merged into the base function's weights, so the client always
            # gets exactly the function it asked for.
            variant = LinearScoringFunction(
                dict(weights), name=f"{base.name}@sweep{index}"
            )
            store = self.score_store(dataset, variant)
            vector = store.vector()
            served = self.quantify_cached(
                dataset,
                variant,
                formulation,
                attributes=request.attributes,
                max_depth=request.max_depth,
                min_partition_size=request.min_partition_size,
            )
            points.append(
                {
                    "weights": dict(variant.weights),
                    "unfairness": served.result.unfairness,
                    "groups": len(served.result.partitioning),
                    "most_favored": served.breakdown.most_favored,
                    "least_favored": served.breakdown.least_favored,
                    "mean_score": float(vector.mean()),
                    "splits_evaluated": served.result.splits_evaluated,
                }
            )
        fairest = min(range(len(points)), key=lambda i: points[i]["unfairness"])
        most_unfair = max(range(len(points)), key=lambda i: points[i]["unfairness"])
        return {
            "dataset": request.dataset,
            "function": request.function,
            "formulation": formulation.name,
            "population": len(dataset),
            "points": points,
            "fairest_index": fairest,
            "fairest_weights": points[fairest]["weights"],
            "most_unfair_index": most_unfair,
        }

    def _end_user_payload(self, request: EndUserRequest) -> Dict[str, object]:
        group = request.group_map
        formulation = request.formulation()
        user = EndUser(group, formulation=formulation)
        outcomes: List[Dict[str, object]] = []
        for name in request.marketplaces:
            market = self.marketplace(name)
            if request.job not in market:
                continue
            outcome = user.assess_job(market, request.job)
            outcomes.append(
                {
                    "marketplace": name,
                    "job": outcome.job_title,
                    "group_size": outcome.group_size,
                    "population_size": outcome.population_size,
                    "mean_score": outcome.mean_score,
                    "population_mean_score": outcome.population_mean_score,
                    "score_gap": outcome.score_gap,
                    "mean_rank": outcome.mean_rank,
                    "exposure_share": outcome.exposure_share,
                    "emd_vs_rest": outcome.emd_vs_rest,
                    "flagged_unfair": outcome.flagged_unfair,
                }
            )
        if not outcomes:
            raise ServiceError(
                f"none of the marketplaces ({', '.join(request.marketplaces)}) "
                f"offers a job titled {request.job!r}"
            )
        best = max(outcomes, key=lambda row: row["score_gap"])
        worst = min(outcomes, key=lambda row: row["score_gap"])
        return {
            "group": dict(group),
            "job": request.job,
            "formulation": formulation.name,
            "marketplaces": list(request.marketplaces),
            "outcomes": outcomes,
            "best_marketplace": best["marketplace"],
            "worst_marketplace": worst["marketplace"],
        }

    def _job_owner_payload(self, request: JobOwnerRequest) -> Dict[str, object]:
        formulation = request.formulation()
        report = self.explore_job(
            request.marketplace,
            request.job,
            sweep_steps=request.sweep_steps,
            formulation=formulation,
            min_partition_size=request.min_partition_size,
        )
        variants = [
            {
                "variant": evaluation.name,
                "weights": dict(evaluation.function.weights),
                "unfairness": evaluation.unfairness,
                "groups": len(evaluation.partitions),
                "most_favored": evaluation.most_favored,
                "least_favored": evaluation.least_favored,
            }
            for evaluation in report.evaluations
        ]
        recommended = report.fairest
        most_unfair = report.most_unfair
        return {
            "marketplace": request.marketplace,
            "job": request.job,
            "formulation": formulation.name,
            "sweep_steps": request.sweep_steps,
            "variants": variants,
            "recommended": None if recommended is None else recommended.name,
            "most_unfair": None if most_unfair is None else most_unfair.name,
        }
