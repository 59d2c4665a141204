"""FairnessService facade: registry, cached kernels, requests, engine + CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.formulations import Formulation, Objective
from repro.core.quantify import quantify
from repro.core.unfairness import unfairness_breakdown
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import ServiceError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.marketplace.generator import CrowdsourcingGenerator
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import OpaqueScoringFunction
from repro.service import (
    AuditRequest,
    CompareRequest,
    FairnessService,
    LRUCache,
    QuantifyRequest,
)
from repro.session.config import SessionConfig
from repro.session.engine import FaiRankEngine


@pytest.fixture()
def service():
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    return service


class TestRegistry:
    def test_unknown_names_raise_service_errors(self, service):
        with pytest.raises(ServiceError, match="unknown dataset"):
            service.dataset("nope")
        with pytest.raises(ServiceError, match="unknown scoring function"):
            service.function("nope")
        with pytest.raises(ServiceError, match="unknown marketplace"):
            service.marketplace("nope")

    def test_register_marketplace_registers_workers_and_functions(self, service):
        market = crowdsourcing_marketplace(size=80, seed=13)
        name = service.register_marketplace(market)
        assert name == "crowdsourcing-sim"
        assert "crowdsourcing-sim" in service.dataset_names
        assert "Content writing" in service.function_names
        assert "crowdsourcing-sim" in service.marketplace_names


class TestCachedKernels:
    def test_quantify_cached_matches_direct_call(self, service):
        dataset = service.dataset("table1")
        function = service.function("table1-f")
        served = service.quantify_cached(dataset, function)
        direct = quantify(dataset, function)
        assert served.result.unfairness == pytest.approx(direct.unfairness)
        assert served.result.partitioning.labels == direct.partitioning.labels
        direct_breakdown = unfairness_breakdown(direct.partitioning, function)
        assert served.breakdown.most_favored == direct_breakdown.most_favored
        assert served.cached is False
        again = service.quantify_cached(dataset, function)
        assert again.cached is True and again.key == served.key
        assert again.result is served.result

    def test_semantically_identical_objects_hit_the_cache(self, service):
        served = service.quantify_cached(
            load_example_table1(), LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
        )
        again = service.quantify_cached(
            load_example_table1(), LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
        )
        assert served.cached is False and again.cached is True

    def test_different_formulation_misses(self, service):
        dataset = service.dataset("table1")
        function = service.function("table1-f")
        service.quantify_cached(dataset, function)
        least = service.quantify_cached(
            dataset, function, Formulation(objective=Objective.LEAST_UNFAIR)
        )
        assert least.cached is False

    def test_exhaustive_cached(self, service):
        dataset = service.dataset("table1")
        function = service.function("table1-f")
        first = service.exhaustive_cached(dataset, function, attributes=("Gender",))
        second = service.exhaustive_cached(dataset, function, attributes=("Gender",))
        assert first is second  # served from the cache

    def test_breakdown_cached_shares_quantify_entry(self, service):
        dataset = service.dataset("table1")
        function = service.function("table1-f")
        served = service.quantify_cached(dataset, function)
        breakdown = service.breakdown_cached(dataset, function)
        assert breakdown is served.breakdown


class TestRoleWorkflows:
    @pytest.fixture()
    def market_service(self):
        service = FairnessService()
        service.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
        return service

    def test_audit_marketplace_cached(self, market_service):
        first = market_service.audit_marketplace("crowdsourcing-sim", min_partition_size=3)
        second = market_service.audit_marketplace("crowdsourcing-sim", min_partition_size=3)
        assert first is second
        assert {audit.job_title for audit in first.audits} == {
            "Content writing", "Data labelling", "Balanced microtasks",
            "English transcription",
        }

    def test_explore_job_cached(self, market_service):
        first = market_service.explore_job("crowdsourcing-sim", "Content writing",
                                           sweep_steps=3, min_partition_size=3)
        second = market_service.explore_job("crowdsourcing-sim", "Content writing",
                                            sweep_steps=3, min_partition_size=3)
        assert first is second
        assert first.evaluations

    def test_end_user_view_cached(self, market_service):
        group = {"Gender": "Female"}
        first = market_service.end_user_view(group, ["crowdsourcing-sim"], "Data labelling")
        second = market_service.end_user_view(group, ["crowdsourcing-sim"], "Data labelling")
        assert first is second


class TestRequestExecution:
    def test_quantify_payload_matches_library(self, service):
        result = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        direct = quantify(service.dataset("table1"), service.function("table1-f"))
        assert result.kind == "quantify"
        assert result.payload["unfairness"] == pytest.approx(direct.unfairness)
        assert [p["label"] for p in result.payload["partitions"]] == list(
            direct.partitioning.labels
        )
        # The payload survives real JSON serialisation.
        assert json.loads(json.dumps(result.payload)) == result.payload

    def test_ranks_only_changes_key_and_result(self, service):
        scored = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        ranked = service.execute(
            QuantifyRequest(dataset="table1", function="table1-f", use_ranks_only=True)
        )
        assert scored.key != ranked.key

    def test_opaque_function_is_audited_via_ranks(self, service):
        service.register_function(
            OpaqueScoringFunction(
                LinearScoringFunction(TABLE1_WEIGHTS, name="hidden"), name="blackbox"
            )
        )
        result = service.execute(QuantifyRequest(dataset="table1", function="blackbox"))
        assert result.payload["unfairness"] >= 0.0

    def test_audit_request_payload(self):
        service = FairnessService()
        service.register_marketplace(crowdsourcing_marketplace(size=80, seed=13))
        result = service.execute(
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=3)
        )
        assert result.kind == "audit"
        assert len(result.payload["jobs"]) == 4
        assert result.payload["most_unfair_job"] in {job["job"] for job in result.payload["jobs"]}
        single = service.execute(
            AuditRequest(marketplace="crowdsourcing-sim", job="Content writing",
                         min_partition_size=3)
        )
        assert [job["job"] for job in single.payload["jobs"]] == ["Content writing"]

    def test_compare_request_payload(self, service):
        service.register_function(
            LinearScoringFunction({"Language Test": 1.0}, name="language-only")
        )
        result = service.execute(
            CompareRequest(dataset="table1", functions=("table1-f", "language-only"))
        )
        assert result.kind == "compare"
        assert [row["function"] for row in result.payload["functions"]] == [
            "table1-f", "language-only",
        ]
        names = {row["function"] for row in result.payload["functions"]}
        assert result.payload["fairest"] in names
        assert result.payload["most_unfair"] in names

    def test_same_weights_under_new_name_share_the_kernel_but_not_the_payload(self, service):
        service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="renamed"))
        first = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        second = service.execute(QuantifyRequest(dataset="table1", function="renamed"))
        # Distinct request keys (payloads echo the requested name) ...
        assert first.key != second.key
        assert second.payload["function"] == "renamed"
        # ... but the same unfairness, served from the shared quantify kernel.
        assert second.payload["unfairness"] == pytest.approx(first.payload["unfairness"])

    def test_mutating_a_payload_does_not_corrupt_the_cache(self, service):
        request = QuantifyRequest(dataset="table1", function="table1-f")
        first = service.execute(request)
        first.payload["partitions"].clear()
        first.payload.pop("pairwise")
        second = service.execute(request)
        assert second.cached is True
        assert second.payload["partitions"] and "pairwise" in second.payload

    def test_precomputed_key_is_honoured(self, service):
        request = QuantifyRequest(dataset="table1", function="table1-f")
        key = service.request_key(request)
        result = service.execute(request, key)
        assert result.key == key

    def test_shared_external_cache(self):
        cache = LRUCache(capacity=16)
        first = FairnessService(cache=cache)
        second = FairnessService(cache=cache)
        for svc in (first, second):
            svc.register_dataset(load_example_table1(), name="table1")
            svc.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
        first.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        result = second.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        assert result.cached is True


class TestEngineIntegration:
    def test_open_panel_uses_the_service_cache(self):
        engine = FaiRankEngine()
        dataset = CrowdsourcingGenerator(seed=13).generate(60, name="pop")
        engine.register_dataset(dataset)
        engine.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        config = SessionConfig(dataset_name="pop", function_name="balanced",
                               min_partition_size=3)
        first = engine.open_panel(config)
        second = engine.open_panel(config)
        assert engine.cache_stats.hits >= 1
        assert first.result.unfairness == pytest.approx(second.result.unfairness)
        assert first.panel_id != second.panel_id  # panels stay distinct sessions

    def test_engines_can_share_a_service(self):
        shared = FairnessService()
        dataset = CrowdsourcingGenerator(seed=13).generate(60, name="pop")
        function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5},
                                         name="balanced")
        config = SessionConfig(dataset_name="pop", function_name="balanced",
                               min_partition_size=3)
        for _ in range(2):
            engine = FaiRankEngine(service=shared)
            engine.register_dataset(dataset)
            engine.register_function(function)
            engine.open_panel(config)
        assert shared.cache_stats.hits >= 1


class TestServeBatchCLI:
    def test_serve_batch_runs_a_request_file(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps({
            "requests": [
                {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                {"kind": "audit", "marketplace": "crowdsourcing-sim",
                 "min_partition_size": 5},
            ]
        }))
        exit_code = main(["serve-batch", str(path), "--market-size", "80",
                          "--repeat", "2"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "quantify" in output and "audit" in output
        assert "hit" in output  # the second round is served from the cache
        assert "cache:" in output
        assert "score store:" in output  # materialization stats are reported
        assert "scoring pass(es)" in output

    def test_serve_batch_rejects_bad_files(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        assert main(["serve-batch", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        path.write_text("{not json")
        assert main(["serve-batch", str(path)]) == 2
        assert main(["serve-batch", str(tmp_path / "missing.json")]) == 2

    def test_serve_batch_serial_mode_and_synthetic_datasets(self, tmp_path, capsys):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "synthetic-60", "function": "balanced",
             "min_partition_size": 3},
        ]))
        exit_code = main(["serve-batch", str(path), "--market-size", "60",
                          "--synthetic", "60"])
        assert exit_code == 0
        assert "serial" in capsys.readouterr().out
