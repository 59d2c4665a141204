"""Service layer — cold vs. warm, batch parity, and sweep reuse.

Measures what the :mod:`repro.service` subsystem buys on the scalability
workload (E11's synthetic populations):

* **cold vs. warm** — an identical quantify request repeated against a warm
  cache must be served at least 10x faster than the cold computation;
* **batch = serial** — a 16-request mixed batch through
  ``FairnessService.execute_many`` must produce byte-identical results to
  per-request ``execute`` on a fresh service, in the same order;
* **sweep reuse** — a protocol-v2 ``SweepRequest`` over N weight vectors on
  a 10k-row population must share one materialized scoring pass per vector
  via the score-store pool (``store_stats`` records the reuse) while staying
  byte-identical to N serial quantify calls over the same variants.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population

from benchmarks.results import REPO_ROOT, write_results
from repro.scoring.linear import LinearScoringFunction
from repro.service import (
    AuditRequest,
    CompareRequest,
    FairnessService,
    QuantifyRequest,
    ServiceRequest,
    SweepRequest,
)


_RESULTS_PATH = REPO_ROOT / "BENCH_service.json"


def _write_results(payload: Dict[str, object]) -> None:
    """Merge a result block into BENCH_service.json (CI uploads it)."""
    write_results(
        _RESULTS_PATH,
        payload,
        synthetic_300=300,
        synthetic_1000=1_000,
        synthetic_10000=10_000,
        marketplace=200,
    )


def build_service() -> FairnessService:
    """A service over the scalability workload (fresh cache each call)."""
    service = FairnessService()
    service.register_dataset(synthetic_population(size=1_000, seed=7), name="synthetic-1000")
    service.register_dataset(synthetic_population(size=300, seed=7), name="synthetic-300")
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.8, "Rating": 0.2}, name="language-heavy")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=200, seed=7))
    return service


def mixed_batch() -> List[ServiceRequest]:
    """A 16-request mixed workload (quantify / audit / compare, with dupes)."""
    requests: List[ServiceRequest] = []
    for function in ("balanced", "language-heavy"):
        for dataset in ("synthetic-1000", "synthetic-300"):
            requests.append(
                QuantifyRequest(dataset=dataset, function=function, min_partition_size=5)
            )
    for aggregation in ("average", "maximum", "variance"):
        requests.append(
            QuantifyRequest(
                dataset="synthetic-300",
                function="balanced",
                aggregation=aggregation,
                min_partition_size=5,
            )
        )
    requests.append(
        QuantifyRequest(
            dataset="synthetic-300",
            function="balanced",
            use_ranks_only=True,
            min_partition_size=5,
        )
    )
    requests.append(AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5))
    requests.append(
        AuditRequest(
            marketplace="crowdsourcing-sim", job="Content writing", min_partition_size=5
        )
    )
    requests.append(
        QuantifyRequest(
            dataset="synthetic-300",
            function="balanced",
            objective="least_unfair",
            min_partition_size=5,
        )
    )
    requests.append(
        QuantifyRequest(
            dataset="synthetic-300", function="language-heavy", bins=10, min_partition_size=5
        )
    )
    requests.append(
        CompareRequest(
            dataset="synthetic-1000",
            functions=("balanced", "language-heavy"),
            min_partition_size=5,
        )
    )
    requests.append(
        CompareRequest(
            dataset="synthetic-300",
            functions=("balanced", "language-heavy"),
            aggregation="maximum",
            min_partition_size=5,
        )
    )
    # Duplicates: execute_many computes each distinct key once.
    requests.append(
        QuantifyRequest(dataset="synthetic-1000", function="balanced", min_partition_size=5)
    )
    requests.append(AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5))
    assert len(requests) == 16
    return requests


def test_cold_vs_warm_cache(benchmark):
    """A warm-cache repeat of an identical request is >= 10x faster than cold."""
    service = build_service()
    request = QuantifyRequest(
        dataset="synthetic-1000", function="balanced", min_partition_size=5
    )

    started = time.perf_counter()
    cold = service.execute(request)
    cold_elapsed = time.perf_counter() - started

    def warm_run():
        return service.execute(
            QuantifyRequest(
                dataset="synthetic-1000", function="balanced", min_partition_size=5
            )
        )

    warm = benchmark.pedantic(warm_run, rounds=5, iterations=1)
    # Best-of-5 so a one-off GC pause cannot distort the warm measurement.
    warm_elapsed = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        warm = warm_run()
        warm_elapsed = min(warm_elapsed, time.perf_counter() - started)

    print()
    print(
        f"cold: {cold_elapsed * 1000:.2f}ms  warm: {warm_elapsed * 1000:.3f}ms  "
        f"speedup: {cold_elapsed / max(warm_elapsed, 1e-9):.0f}x"
    )
    print(f"cache: {service.cache_stats.describe()}")
    print(f"score store: {service.store_stats.describe()}")
    _write_results(
        {
            "cold_vs_warm": {
                "cold_ms": round(cold_elapsed * 1000, 2),
                "warm_ms": round(warm_elapsed * 1000, 3),
                "speedup": round(cold_elapsed / max(warm_elapsed, 1e-9), 1),
                "cache": service.cache_stats.as_dict(),
                "store": service.store_stats.as_dict(),
            }
        }
    )
    assert not cold.cached and warm.cached
    assert cold.canonical() == warm.canonical()
    assert cold_elapsed >= 10 * warm_elapsed, (
        f"warm cache should be >= 10x faster (cold {cold_elapsed:.4f}s, "
        f"warm {warm_elapsed:.4f}s)"
    )


def test_batched_matches_serial(benchmark):
    """A 16-request mixed batch is byte-identical to per-request execution."""
    service = build_service()
    serial_results = [service.execute(request) for request in mixed_batch()]

    def batched_run():
        # A fresh service per round so the batch always starts cold.
        return build_service().execute_many(mixed_batch())

    batched_results = benchmark.pedantic(batched_run, rounds=1, iterations=1)

    assert len(batched_results) == len(serial_results) == 16
    serial_bytes = [result.canonical() for result in serial_results]
    batched_bytes = [result.canonical() for result in batched_results]
    assert batched_bytes == serial_bytes, "batched results differ from serial execution"
    print()
    print(f"16-request mixed batch: byte-identical to serial ({len(serial_bytes)} results)")
    _write_results({"batch_matches_serial": {"requests": len(serial_bytes), "identical": True}})


SWEEP_WEIGHTS = [
    {"Language Test": alpha, "Rating": 1.0 - alpha}
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)
]


def _sweep_service() -> FairnessService:
    """A fresh service over the 10k-row scalability population."""
    service = FairnessService()
    service.register_dataset(
        synthetic_population(size=10_000, seed=7), name="synthetic-10000"
    )
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    return service


def test_sweep_shares_scoring_passes(benchmark):
    """A 5-vector SweepRequest on 10k rows reuses the score-store pool.

    Every sweep point materializes its score vector once and serves both the
    summary statistics and the quantify+breakdown kernel from it — the pool
    records a hit per point — and the per-point unfairness values are
    byte-identical to serial quantify calls over the same variants.
    """
    service = _sweep_service()
    request = SweepRequest(
        dataset="synthetic-10000",
        function="balanced",
        weights=tuple(SWEEP_WEIGHTS),
        min_partition_size=5,
    )

    started = time.perf_counter()
    result = service.execute(request)
    sweep_elapsed = time.perf_counter() - started
    assert result.ok and len(result.payload["points"]) == len(SWEEP_WEIGHTS)
    stats = result.store_stats
    assert stats["hits"] > 0, "the sweep must reuse the materialized score-store pool"
    assert stats["scoring_passes"] == len(SWEEP_WEIGHTS), (
        "each weight vector must be scored exactly once across summary + search"
    )

    # Serial reference: fresh service, one quantify_cached per weight vector.
    serial_service = _sweep_service()
    dataset = serial_service.dataset("synthetic-10000")
    base = serial_service.function("balanced")
    started = time.perf_counter()
    serial_values = []
    for index, weights in enumerate(SWEEP_WEIGHTS):
        variant = base.with_weights(name=f"balanced@sweep{index}", **weights)
        served = serial_service.quantify_cached(dataset, variant, min_partition_size=5)
        serial_values.append(served.result.unfairness)
    serial_elapsed = time.perf_counter() - started

    sweep_values = [point["unfairness"] for point in result.payload["points"]]
    assert json.dumps(sweep_values) == json.dumps(serial_values), (
        "sweep results must be byte-identical to serial quantify calls"
    )

    def warm_sweep():
        return service.execute(request)

    warm = benchmark.pedantic(warm_sweep, rounds=3, iterations=1)
    assert warm.cached is True

    print()
    print(
        f"sweep({len(SWEEP_WEIGHTS)} vectors, 10k rows): {sweep_elapsed * 1000:.1f}ms  "
        f"serial quantify: {serial_elapsed * 1000:.1f}ms  "
        f"store: {stats['hits']} hits / {stats['misses']} misses, "
        f"{stats['scoring_passes']} scoring pass(es)"
    )
    _write_results(
        {
            "sweep_reuse": {
                "vectors": len(SWEEP_WEIGHTS),
                "rows": 10_000,
                "sweep_ms": round(sweep_elapsed * 1000, 1),
                "serial_quantify_ms": round(serial_elapsed * 1000, 1),
                "identical_to_serial": True,
                "store": stats,
            }
        }
    )
