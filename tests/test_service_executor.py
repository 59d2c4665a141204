"""Batch execution (``FairnessService.execute_many``): dedup and ordering."""

from __future__ import annotations

from typing import List

from repro.experiments.workloads import crowdsourcing_marketplace
from repro.marketplace.generator import CrowdsourcingGenerator
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    AuditRequest,
    CompareRequest,
    FairnessService,
    QuantifyRequest,
)


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(
        CrowdsourcingGenerator(seed=13).generate(120, name="pop"), name="pop"
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="language-heavy")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=100, seed=13))
    return service


def mixed_batch_16() -> List:
    """16 mixed requests, including duplicates and all three kinds."""
    quantify = [
        QuantifyRequest(dataset="pop", function=function, aggregation=aggregation,
                        min_partition_size=3)
        for function in ("balanced", "language-heavy")
        for aggregation in ("average", "maximum", "variance")
    ]  # 6 distinct
    extras = [
        QuantifyRequest(dataset="pop", function="balanced", objective="least_unfair",
                        min_partition_size=3),
        QuantifyRequest(dataset="pop", function="balanced", use_ranks_only=True,
                        min_partition_size=3),
        QuantifyRequest(dataset="crowdsourcing-sim", function="Content writing",
                        min_partition_size=3),
        AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3),
        AuditRequest(marketplace="crowdsourcing-sim", job="Data labelling",
                     min_partition_size=3),
        CompareRequest(dataset="pop", functions=("balanced", "language-heavy"),
                       min_partition_size=3),
    ]  # 6 distinct
    duplicates = [quantify[0], quantify[3], extras[3], extras[5]]  # 4 duplicates
    batch = quantify + extras + duplicates
    assert len(batch) == 16
    return batch


class TestBatchExecution:
    def test_16_request_batch_matches_serial_byte_for_byte(self):
        service = build_service()
        serial = [service.execute(request) for request in mixed_batch_16()]
        batched = build_service().execute_many(mixed_batch_16())
        assert len(serial) == len(batched) == 16
        assert [r.canonical() for r in batched] == [r.canonical() for r in serial]

    def test_results_come_back_in_input_order(self):
        service = build_service()
        batch = mixed_batch_16()
        results = service.execute_many(batch)
        assert [result.kind for result in results] == [request.kind for request in batch]
        assert [result.key for result in results] == [
            service.request_key(request) for request in batch
        ]

    def test_duplicate_requests_share_one_computation(self):
        service = build_service()
        request = QuantifyRequest(dataset="pop", function="balanced", min_partition_size=3)
        results = service.execute_many([request] * 8)
        assert len(results) == 8
        assert len({id(result) for result in results}) == 1, "duplicates share the result"
        # Only one quantify computation hit the service cache as a miss.
        assert service.cache_stats.misses == 2  # request payload + quantify kernel

    def test_empty_batch(self):
        assert build_service().execute_many([]) == []

    def test_execute_many_is_the_service_entry_point(self):
        service = build_service()
        batch = mixed_batch_16()[:4]
        results = service.execute_many(batch)
        assert [result.kind for result in results] == [request.kind for request in batch]


class TestWarmBatch:
    def test_second_run_is_fully_cached(self):
        service = build_service()
        cold = service.execute_many(mixed_batch_16())
        warm = service.execute_many(mixed_batch_16())
        assert all(result.cached for result in warm)
        assert [r.canonical() for r in warm] == [r.canonical() for r in cold]
