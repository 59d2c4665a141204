"""Tests for repro.obs: metrics registry, tracing, structured logging."""

import io
import json

import pytest

from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.obs.log import WORKER_SLOT_ENV, ObsLogger
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    merge_parsed,
    parse_prometheus,
    render_parsed,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Trace,
    activate,
    current_trace_id,
    new_trace_id,
    span,
    valid_trace_id,
)
from repro.scoring.linear import LinearScoringFunction
from repro.server import FairnessHTTPServer
from repro.service import FairnessService, QuantifyRequest


def build_service() -> FairnessService:
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    return service


class TestMetricsPrimitives:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits")
        counter.inc(kind="quantify")
        counter.inc(2, kind="quantify")
        counter.inc(kind="audit")
        assert counter.value(kind="quantify") == 3
        assert counter.value(kind="audit") == 1
        assert counter.value(kind="missing") == 0

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_sets_and_moves(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(5, queue="a")
        gauge.inc(2.5, queue="a")
        assert gauge.value(queue="a") == 7.5

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        samples = {
            (name, labels): value for name, labels, value in histogram.samples()
        }
        assert samples[("lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 3
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 4
        assert samples[("lat_seconds_count", ())] == 4
        assert samples[("lat_seconds_sum", ())] == pytest.approx(6.05)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=(1.0, 0.5))

    def test_registry_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a_total")

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(kind="x")
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["a_total"]["kind"] == "counter"
        assert any(
            sample["name"] == "h_seconds_count"
            for sample in snapshot["h_seconds"]["samples"]
        )


class TestPrometheusText:
    def test_render_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests").inc(3, kind="a b", path='q"x"')
        registry.gauge("up", "uptime").set(1.5)
        registry.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        page = parse_prometheus(registry.render())
        assert page.value("req_total", kind="a b", path='q"x"') == 3
        assert page.value("up") == 1.5
        assert page.value("lat_seconds_bucket", le="+Inf") == 1
        assert page.types["lat_seconds"] == "histogram"

    def test_parse_rejects_malformed_pages(self):
        with pytest.raises(ValueError):
            parse_prometheus("this is not a sample line at all!{")

    def test_merge_sums_identical_series_across_pages(self):
        pages = []
        for count in (2, 5):
            registry = MetricsRegistry()
            registry.counter("req_total").inc(count, kind="quantify")
            registry.histogram("lat_seconds", buckets=(1.0,)).observe(0.5)
            pages.append(parse_prometheus(registry.render()))
        merged = merge_parsed(pages)
        assert merged.value("req_total", kind="quantify") == 7
        assert merged.value("lat_seconds_count") == 2

    def test_render_parsed_keeps_bucket_order_and_reparses(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", buckets=(0.005, 0.05, 0.5))
        histogram.observe(0.01, kind="a")
        registry.counter("req_total").inc(kind="a")
        rendered = render_parsed(parse_prometheus(registry.render()))
        bucket_lines = [
            line for line in rendered.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert '+Inf' in bucket_lines[-1]
        # A rendered page must itself be scrapeable (router aggregation
        # re-renders merged worker pages).
        again = parse_prometheus(rendered)
        assert again.value("req_total", kind="a") == 1


class TestTrace:
    def test_trace_ids_validate(self):
        assert valid_trace_id(new_trace_id()) is not None
        assert valid_trace_id("ok-id_1.2") == "ok-id_1.2"
        assert valid_trace_id("bad id") is None
        assert valid_trace_id("") is None
        assert valid_trace_id(17) is None
        assert valid_trace_id("x" * 65) is None

    def test_spans_accumulate_into_wire_timings(self):
        trace = Trace("tid-1")
        trace.add("queue", 0.25)
        with trace.span("compute"):
            pass
        trace.add("compute", 0.5)
        timings = trace.timings()
        assert timings["trace_id"] == "tid-1"
        assert timings["queue_ms"] == 250.0
        assert timings["compute_ms"] >= 500.0

    def test_activate_scopes_the_current_trace(self):
        assert current_trace_id() is None
        with activate(Trace("outer")):
            assert current_trace_id() == "outer"
            with activate(Trace("inner")):
                assert current_trace_id() == "inner"
            assert current_trace_id() == "outer"
        assert current_trace_id() is None

    def test_module_span_is_a_noop_without_a_trace(self):
        with span("compute"):
            pass
        trace = Trace()
        with activate(trace):
            with span("compute"):
                pass
        assert "compute_ms" in trace.timings()


class TestObsLogger:
    def test_lifecycle_events_always_emit_json_lines(self):
        captured = io.StringIO()
        ObsLogger(captured).event("worker_crash", slot=1, returncode=-9)
        record = json.loads(captured.getvalue())
        assert record["event"] == "worker_crash"
        assert record["slot"] == 1
        assert "ts" in record

    def test_request_events_are_gated_by_verbose(self):
        captured = io.StringIO()
        ObsLogger(captured).request("http_request", 12.0, path="/v2/health")
        assert captured.getvalue() == ""
        ObsLogger(captured, verbose=True).request(
            "http_request", 12.0, path="/v2/health"
        )
        record = json.loads(captured.getvalue())
        assert record["duration_ms"] == 12.0
        assert "slow" not in record

    def test_slow_threshold_emits_and_marks_without_verbose(self):
        captured = io.StringIO()
        logger = ObsLogger(captured, slow_ms=50.0)
        logger.request("http_request", 10.0, path="/fast")
        logger.request("http_request", 80.0, path="/slow")
        lines = captured.getvalue().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["path"] == "/slow"
        assert record["slow"] is True

    def test_worker_slot_rides_in_from_the_environment(self, monkeypatch):
        monkeypatch.setenv(WORKER_SLOT_ENV, "3")
        captured = io.StringIO()
        ObsLogger(captured).event("worker_ready")
        assert json.loads(captured.getvalue())["worker"] == "3"


class TestServiceTimings:
    def test_envelope_timings_cover_the_request(self):
        service = build_service()
        result = service.execute(QuantifyRequest(dataset="table1", function="table1-f"))
        timings = result.timings
        assert valid_trace_id(timings["trace_id"])
        assert timings["total_ms"] > 0
        assert "key_ms" in timings and "compute_ms" in timings
        assert timings["cache_ms"] >= 0
        # The score store's materialization is nested inside compute.
        assert timings["score_ms"] <= timings["compute_ms"]

    def test_cache_hit_skips_compute(self):
        service = build_service()
        request = QuantifyRequest(dataset="table1", function="table1-f")
        service.execute(request)
        hit = service.execute(request)
        assert hit.cached
        assert "compute_ms" not in hit.timings

    def test_active_trace_id_is_inherited(self):
        service = build_service()
        with activate(Trace("pinned-id")):
            result = service.execute(
                QuantifyRequest(dataset="table1", function="table1-f")
            )
        assert result.timings["trace_id"] == "pinned-id"

    def test_error_envelopes_still_carry_timings(self):
        service = build_service()
        result = service.execute(QuantifyRequest(dataset="nope", function="table1-f"))
        assert result.error is not None
        assert valid_trace_id(result.timings["trace_id"])
        assert "total_ms" in result.timings

    def test_timings_stay_out_of_the_canonical_bytes(self):
        service = build_service()
        request = QuantifyRequest(dataset="table1", function="table1-f")
        first = service.execute(request)
        second = service.execute(request)
        assert first.timings != second.timings  # distinct trace ids
        assert first.canonical() == second.canonical()

    def test_request_counter_and_latency_histogram_advance(self):
        registry = get_registry()
        counter = registry.counter("fairank_requests_total")
        histogram = registry.histogram("fairank_request_seconds")
        before = counter.value(kind="quantify", status="ok", cached="false")
        latency_before = histogram.count(kind="quantify")
        build_service().execute(QuantifyRequest(dataset="table1", function="table1-f"))
        assert counter.value(kind="quantify", status="ok", cached="false") == before + 1
        assert histogram.count(kind="quantify") == latency_before + 1

    def test_batch_shares_one_trace_id(self):
        service = build_service()
        requests = [
            QuantifyRequest(dataset="table1", function="table1-f", bins=bins)
            for bins in (3, 4, 5)
        ]
        with activate(Trace("batch-parent")):
            results = service.execute_many(requests)
        for result in results:
            assert result.timings["trace_id"] == "batch-parent"


class TestServerObservability:
    @pytest.fixture(scope="class")
    def server(self):
        with FairnessHTTPServer(build_service(), port=0) as running:
            running.serve_in_background()
            yield running

    def test_metrics_endpoint_serves_prometheus_text(self, server):
        import urllib.request

        # The page is rendered *during* the scrape (its own counter lands
        # after the response), so a prior request provides the sample.
        urllib.request.urlopen(f"{server.base_url}/v2/health", timeout=30).read()
        with urllib.request.urlopen(
            f"{server.base_url}/v2/metrics", timeout=30
        ) as response:
            assert response.status == 200
            assert "text/plain" in response.headers["Content-Type"]
            page = parse_prometheus(response.read().decode("utf-8"))
        served = page.sum_by_label("fairank_http_requests_total", "endpoint")
        assert served.get("/v2/health", 0) >= 1
        assert page.value("fairank_http_uptime_seconds") >= 0

    def test_metrics_rejects_post(self, server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            f"{server.base_url}/v2/metrics", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        assert caught.value.code == 405

    def test_trace_header_is_echoed_and_lands_in_timings(self, server):
        import urllib.request

        body = json.dumps({"dataset": "table1", "function": "table1-f"}).encode()
        request = urllib.request.Request(
            f"{server.base_url}/v2/quantify",
            data=body,
            headers={"Content-Type": "application/json", TRACE_HEADER: "hdr-test-1"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers[TRACE_HEADER] == "hdr-test-1"
            payload = json.loads(response.read())
        assert payload["timings"]["trace_id"] == "hdr-test-1"

    def test_invalid_trace_header_is_replaced_not_relayed(self, server):
        import urllib.request

        request = urllib.request.Request(
            f"{server.base_url}/v2/health",
            headers={TRACE_HEADER: "bad header!!"},
            method="GET",
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            echoed = response.headers[TRACE_HEADER]
        assert echoed != "bad header!!"
        assert valid_trace_id(echoed)

    def test_slow_request_logging_marks_breaches(self, server):
        import time
        import urllib.request

        captured = io.StringIO()
        original = server.obs
        server.obs = ObsLogger(captured, slow_ms=0.0)
        try:
            urllib.request.urlopen(f"{server.base_url}/v2/health", timeout=30).read()
            # The event is emitted after the response bytes reach the client;
            # wait for it before swapping the logger back.
            deadline = time.monotonic() + 5
            while "/v2/health" not in captured.getvalue():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        finally:
            server.obs = original
        records = [json.loads(line) for line in captured.getvalue().splitlines()]
        health = [r for r in records if r.get("path") == "/v2/health"]
        assert health and health[-1]["slow"] is True
        assert valid_trace_id(health[-1]["trace_id"])
