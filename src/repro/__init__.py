"""FaiRank reproduction: exploring fairness of ranking in online job marketplaces.

This package reproduces the system described in *FaiRank: An Interactive
System to Explore Fairness of Ranking in Online Job Marketplaces* (Ghizzawi,
Marinescu, Elbassuoni, Amer-Yahia, Bisson — EDBT 2019).  The public API
re-exported here covers the most common entry points:

* data: :class:`~repro.data.Dataset`, :func:`~repro.data.load_example_table1`
* scoring: :class:`~repro.scoring.LinearScoringFunction`,
  :class:`~repro.scoring.RankDerivedScorer`
* core: :func:`~repro.core.quantify` (Algorithm 1),
  :func:`~repro.core.exhaustive_search`, :func:`~repro.core.unfairness`,
  :class:`~repro.core.Formulation`, :class:`~repro.core.FairnessProblem`
* roles: :class:`~repro.roles.Auditor`, :class:`~repro.roles.JobOwner`,
  :class:`~repro.roles.EndUser`
* session: :class:`~repro.session.FaiRankEngine`,
  :class:`~repro.session.SessionConfig`
* catalog: :class:`~repro.catalog.Catalog` — the single resource registry
  engine, service, roles and CLI all resolve through
* service: :class:`~repro.service.FairnessService`,
  :class:`~repro.service.FairnessClient` (``FairnessService.execute_many``
  runs batches), the protocol-v2 request types (:class:`~repro.service.QuantifyRequest`,
  :class:`~repro.service.AuditRequest`, :class:`~repro.service.CompareRequest`,
  :class:`~repro.service.BreakdownRequest`, :class:`~repro.service.SweepRequest`,
  :class:`~repro.service.EndUserRequest`, :class:`~repro.service.JobOwnerRequest`)
  and the result cache (:class:`~repro.service.LRUCache`)
* server: :class:`~repro.server.FairnessHTTPServer` (protocol v2 over REST)
  and :class:`~repro.server.HTTPFairnessClient` (same method surface as the
  in-process client, carried over HTTP)

See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro.catalog import Catalog, Resource, ResourceKind
from repro.core import (
    Aggregation,
    FairnessProblem,
    Formulation,
    Objective,
    Partition,
    Partitioning,
    ScoreStore,
    exhaustive_search,
    quantify,
    unfairness,
    unfairness_breakdown,
)
from repro.data import Dataset, Schema, load_example_table1
from repro.errors import CatalogError, FaiRankError
from repro.marketplace import CrowdsourcingGenerator, Job, Marketplace, MarketplaceCrawler
from repro.roles import Auditor, EndUser, JobOwner
from repro.scoring import LinearScoringFunction, RankDerivedScorer, ScoringFunction
from repro.service import (
    PROTOCOL_VERSION,
    AuditRequest,
    BreakdownRequest,
    CacheStats,
    CompareRequest,
    EndUserRequest,
    FairnessClient,
    FairnessService,
    JobOwnerRequest,
    LRUCache,
    QuantifyRequest,
    ServiceResult,
    SweepRequest,
    request_from_json,
)
from repro.server import FairnessHTTPServer, HTTPFairnessClient
from repro.session import FaiRankEngine, SessionConfig

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "FaiRankError",
    "Dataset",
    "Schema",
    "load_example_table1",
    "ScoringFunction",
    "LinearScoringFunction",
    "RankDerivedScorer",
    "Partition",
    "Partitioning",
    "ScoreStore",
    "Formulation",
    "Objective",
    "Aggregation",
    "quantify",
    "exhaustive_search",
    "unfairness",
    "unfairness_breakdown",
    "FairnessProblem",
    "Marketplace",
    "Job",
    "CrowdsourcingGenerator",
    "MarketplaceCrawler",
    "Auditor",
    "JobOwner",
    "EndUser",
    "FaiRankEngine",
    "SessionConfig",
    "Catalog",
    "CatalogError",
    "Resource",
    "ResourceKind",
    "FairnessService",
    "FairnessClient",
    "FairnessHTTPServer",
    "HTTPFairnessClient",
    "LRUCache",
    "CacheStats",
    "PROTOCOL_VERSION",
    "QuantifyRequest",
    "AuditRequest",
    "CompareRequest",
    "BreakdownRequest",
    "SweepRequest",
    "EndUserRequest",
    "JobOwnerRequest",
    "ServiceResult",
    "request_from_json",
]
