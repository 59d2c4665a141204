"""Tests for the HTTP front end (repro.server): endpoints, parity, errors."""

import json
import os
import re
import subprocess
import sys
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.formulations import MOST_UNFAIR_AVG_EMD
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import ServiceError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.scoring.linear import LinearScoringFunction
from repro.server import REQUEST_ENDPOINTS, FairnessHTTPServer, HTTPFairnessClient
from repro.service import (
    AuditRequest,
    FairnessClient,
    FairnessService,
    QuantifyRequest,
)


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_marketplace(crowdsourcing_marketplace(size=60, seed=7))
    service.register_formulation(MOST_UNFAIR_AVG_EMD)
    return service


@pytest.fixture(scope="module")
def server():
    with FairnessHTTPServer(build_service(), port=0) as running:
        running.serve_in_background()
        yield running


@pytest.fixture(scope="module")
def client(server):
    return HTTPFairnessClient(server.base_url)


def raw_call(server, path, method="GET", body=None, headers=None):
    """A raw HTTP exchange (status, parsed JSON) bypassing the typed client."""
    request = urllib.request.Request(
        f"{server.base_url}{path}",
        data=None if body is None else body,
        headers=headers or {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestReadEndpoints:
    def test_health_reports_liveness_and_stats(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["protocol"] == 2
        assert health["uptime_s"] >= 0
        assert set(health["cache"]) >= {"hits", "misses", "entries"}
        assert set(health["store_pool"]) >= {"stores", "scoring_passes"}
        assert health["catalog"]["dataset"] >= 2
        assert set(REQUEST_ENDPOINTS) <= set(health["endpoints"])

    def test_health_counts_served_requests(self, server, client):
        before = client.health()["requests_served"]
        client.health()
        assert client.health()["requests_served"] >= before + 2

    def test_catalog_lists_the_registry(self, client):
        listing = client.catalog()
        names = {entry["name"] for entry in listing["resources"]}
        assert {"table1", "table1-f", "crowdsourcing-sim"} <= names
        assert listing["counts"]["marketplace"] == 1

    def test_trailing_slash_is_tolerated(self, server):
        status, payload = raw_call(server, "/v2/health/")
        assert status == 200 and payload["status"] == "ok"


class TestRequestEndpoints:
    def test_every_kind_is_byte_identical_to_in_process(self, server, client):
        in_process = FairnessClient(server.service)
        calls = [
            ("quantify", lambda c: c.quantify("table1", "table1-f")),
            ("audit", lambda c: c.audit("crowdsourcing-sim", min_partition_size=5)),
            ("compare", lambda c: c.compare("table1", ["table1-f", "balanced"])),
            ("breakdown", lambda c: c.breakdown("table1", "table1-f")),
            ("sweep", lambda c: c.sweep("table1", "table1-f", steps=3)),
            (
                "end_user",
                lambda c: c.end_user(
                    {"Gender": "Female"}, ["crowdsourcing-sim"], "Content writing"
                ),
            ),
            (
                "job_owner",
                lambda c: c.job_owner(
                    "crowdsourcing-sim", "Content writing", sweep_steps=3
                ),
            ),
        ]
        for kind, call in calls:
            over_http = call(client)
            local = call(in_process)
            assert over_http.kind == kind
            assert over_http.canonical() == local.canonical(), kind

    def test_http_traffic_shares_the_service_cache(self, server, client):
        request = dict(dataset="table1", function="table1-f", bins=7)
        client.quantify(**request)
        assert client.quantify(**request).cached is True
        # ... and the same request in-process is a hit too: one cache.
        assert server.service.execute(
            QuantifyRequest(dataset="table1", function="table1-f", bins=7)
        ).cached is True

    def test_kind_field_in_body_is_optional(self, server):
        body = json.dumps({"dataset": "table1", "function": "table1-f"}).encode()
        status, payload = raw_call(
            server, "/v2/quantify", method="POST", body=body,
            headers={"Content-Type": "application/json"},
        )
        assert status == 200
        assert payload["kind"] == "quantify"
        assert payload["error"] is None

    def test_concurrent_requests_are_served(self, client):
        def fire(bins):
            return client.quantify("table1", "table1-f", bins=bins)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(fire, [2, 3, 4, 5] * 4))
        assert len(results) == 16
        assert all(result.ok for result in results)
        assert len({result.key for result in results}) == 4


class TestErrorMapping:
    def test_unknown_resource_is_an_error_envelope_with_422(self, server):
        body = json.dumps({"dataset": "missing", "function": "table1-f"}).encode()
        status, payload = raw_call(server, "/v2/quantify", method="POST", body=body)
        assert status == 422
        assert payload["error"]["code"] == "service"
        assert "missing" in payload["error"]["message"]

    def test_client_raises_or_returns_the_envelope(self, server):
        raising = HTTPFairnessClient(server.base_url)
        with pytest.raises(ServiceError, match="unknown dataset"):
            raising.quantify("missing", "table1-f")
        inspecting = HTTPFairnessClient(server.base_url, raise_errors=False)
        envelope = inspecting.quantify("missing", "table1-f")
        assert not envelope.ok
        assert envelope.error["code"] == "service"

    def test_malformed_json_is_400(self, server):
        status, payload = raw_call(
            server, "/v2/quantify", method="POST", body=b"{not json"
        )
        assert status == 400
        assert "not valid JSON" in payload["error"]["message"]

    def test_empty_body_is_400(self, server):
        status, payload = raw_call(server, "/v2/quantify", method="POST", body=b"")
        assert status == 400
        assert "empty" in payload["error"]["message"]

    def test_kind_mismatch_between_path_and_body_is_400(self, server):
        body = json.dumps(
            {"kind": "audit", "dataset": "table1", "function": "table1-f"}
        ).encode()
        status, payload = raw_call(server, "/v2/quantify", method="POST", body=body)
        assert status == 400
        assert "declares kind 'audit'" in payload["error"]["message"]

    def test_unknown_endpoint_is_404(self, server):
        status, payload = raw_call(server, "/v2/nonsense", method="POST", body=b"{}")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_methods_are_405(self, server):
        status, _ = raw_call(server, "/v2/quantify")
        assert status == 405
        status, _ = raw_call(server, "/v2/health", method="POST", body=b"{}")
        assert status == 405

    def test_rejected_posts_do_not_desync_keepalive_connections(self, server):
        """Error paths must drain the body: the next request on the same
        keep-alive connection has to parse cleanly (regression)."""
        import http.client

        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            body = json.dumps({"dataset": "table1", "function": "table1-f"})
            for bad_path in ("/v2/health", "/v2/nonsense"):
                connection.request(
                    "POST", bad_path, body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status in (404, 405)
                response.read()
                # Same socket, next request: must be served normally.
                connection.request(
                    "POST", "/v2/quantify", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200
                assert payload["kind"] == "quantify"
        finally:
            connection.close()

    def test_invalid_parameters_fail_client_side(self, client):
        with pytest.raises(ServiceError, match="at least 2 steps"):
            client.sweep("table1", "table1-f", steps=1)


class TestBatchEndpoint:
    def test_batch_matches_serial_execution_in_order(self, server, client):
        requests = [
            QuantifyRequest(dataset="table1", function="table1-f"),
            AuditRequest(marketplace="crowdsourcing-sim", min_partition_size=5),
            QuantifyRequest(dataset="table1", function="table1-f"),
        ]
        over_http = client.batch(requests)
        serial = [server.service.execute(request) for request in requests]
        assert [r.kind for r in over_http] == [r.kind for r in serial]
        for http_result, local in zip(over_http, serial):
            assert http_result.canonical() == local.canonical()

    def test_batch_keeps_errors_in_slot(self, client):
        requests = [
            QuantifyRequest(dataset="table1", function="table1-f"),
            QuantifyRequest(dataset="missing", function="table1-f"),
            QuantifyRequest(dataset="table1", function="balanced"),
        ]
        results = client.batch(requests)
        assert [result.ok for result in results] == [True, False, True]
        assert results[1].error["code"] == "service"

    def test_unparseable_slot_gets_an_error_envelope(self, server):
        body = json.dumps(
            {
                "requests": [
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                    {"kind": "frobnicate"},
                    {"kind": "quantify"},
                ]
            }
        ).encode()
        status, payload = raw_call(server, "/v2/batch", method="POST", body=body)
        assert status == 200
        results = payload["results"]
        assert len(results) == 3
        assert results[0]["error"] is None
        assert "unknown request kind" in results[1]["error"]["message"]
        assert "missing required field 'dataset'" in results[2]["error"]["message"]

    def test_empty_batch_is_400(self, server):
        status, payload = raw_call(
            server, "/v2/batch", method="POST", body=b'{"requests": []}'
        )
        assert status == 400
        assert "non-empty" in payload["error"]["message"]


class TestServerLifecycle:
    def test_port_zero_binds_an_ephemeral_port(self):
        with FairnessHTTPServer(FairnessService(), port=0) as ephemeral:
            assert ephemeral.port > 0
            assert ephemeral.base_url.endswith(str(ephemeral.port))

    def test_binding_a_taken_port_raises_service_error(self, server):
        with pytest.raises(ServiceError, match="cannot bind"):
            FairnessHTTPServer(FairnessService(), port=server.port)

    def test_unreachable_server_raises_service_error(self, server):
        ghost = HTTPFairnessClient("http://127.0.0.1:9", timeout=2)
        with pytest.raises(ServiceError, match="cannot reach"):
            ghost.quantify("table1", "table1-f")


class TestServeCLI:
    def test_serve_boots_from_a_snapshot_subprocess(self, tmp_path):
        """`fairank serve --catalog snap --port 0` answers real HTTP traffic."""
        snapshot = tmp_path / "snap.json"
        build_service().catalog.save(snapshot)
        repo_src = str(Path(__file__).resolve().parent.parent / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--catalog", str(snapshot), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=repo_src),
        )
        try:
            port = None
            assert process.stdout is not None
            for line in process.stdout:
                match = re.search(r"http://[\d.]+:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "server never announced its port"
            client = HTTPFairnessClient(f"http://127.0.0.1:{port}", timeout=60)
            assert client.health()["status"] == "ok"
            result = client.quantify("table1", "table1-f")
            assert result.ok and result.payload["dataset"] == "table1"
        finally:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15)


class TestBatchMalformedSlotsOverHTTP:
    """Error paths for batch slots that are not even request-shaped objects."""

    def test_non_dict_slots_get_in_slot_envelopes(self, server):
        body = json.dumps(
            {
                "requests": [
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                    "not-a-request",
                    42,
                    None,
                ]
            }
        ).encode()
        status, payload = raw_call(server, "/v2/batch", method="POST", body=body)
        assert status == 200
        results = payload["results"]
        assert len(results) == 4
        assert results[0]["error"] is None
        for slot in results[1:]:
            assert slot["kind"] == "unknown"
            assert slot["error"]["code"] == "service"
            assert "must be a JSON object" in slot["error"]["message"]

    def test_batch_body_that_is_not_a_list_is_400(self, server):
        status, payload = raw_call(
            server, "/v2/batch", method="POST", body=b'{"requests": {"kind": "x"}}'
        )
        assert status == 400
        assert "non-empty list" in payload["error"]["message"]

    def test_results_stay_in_input_order_around_bad_slots(self, server, client):
        body = json.dumps(
            {
                "requests": [
                    "bad",
                    {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
                    "also bad",
                    {"kind": "quantify", "dataset": "table1", "function": "balanced"},
                ]
            }
        ).encode()
        status, payload = raw_call(server, "/v2/batch", method="POST", body=body)
        assert status == 200
        oks = [entry["error"] is None for entry in payload["results"]]
        assert oks == [False, True, False, True]
        assert payload["results"][1]["payload"]["function"] == "table1-f"
        assert payload["results"][3]["payload"]["function"] == "balanced"


#: Wire fields whose JSON type does not match the declared field type.
WRONG_TYPED_FIELDS = [
    ("/v2/quantify", {"bins": "abc"}, "'bins'"),
    ("/v2/quantify", {"max_depth": [1]}, "'max_depth'"),
    ("/v2/quantify", {"use_ranks_only": "false"}, "'use_ranks_only'"),
    ("/v2/quantify", {"attributes": "Gender"}, "'attributes'"),
    ("/v2/compare", {"functions": "fg"}, "'functions'"),
]


class TestTypedWireFields:
    """A wrongly typed field is a 400 (or an in-slot error), never a 500."""

    @pytest.mark.parametrize("path,fields,named", WRONG_TYPED_FIELDS)
    def test_wrong_type_is_a_400(self, server, path, fields, named):
        body = {"dataset": "table1", "function": "table1-f"}
        if path == "/v2/compare":
            body = {"dataset": "table1"}
        body.update(fields)
        status, payload = raw_call(
            server, path, method="POST", body=json.dumps(body).encode()
        )
        assert status == 400
        assert payload["error"]["code"] == "service"
        assert named in payload["error"]["message"]

    def test_wrong_type_in_a_batch_stays_in_its_slot(self, server):
        entries = [
            {"kind": "quantify", "dataset": "table1", "function": "table1-f", **fields}
            for _, fields, _ in WRONG_TYPED_FIELDS[:4]
        ]
        entries.insert(2, {"kind": "quantify", "dataset": "table1", "function": "table1-f"})
        status, payload = raw_call(
            server, "/v2/batch", method="POST",
            body=json.dumps({"requests": entries}).encode(),
        )
        assert status == 200
        oks = [entry["error"] is None for entry in payload["results"]]
        assert oks == [False, False, True, False, False]
        assert "must be a JSON integer" in payload["results"][0]["error"]["message"]
