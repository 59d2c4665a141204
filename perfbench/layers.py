"""Per-layer probes for the traced run: timed calls into each layer's public API.

``replay_service`` and ``replay_core`` replay a fixed prefix of the
workload's distinct requests in-process; ``probe_shapes`` boots a direct
server and a routed fleet over the same snapshot and times the same warm
requests through both.  Every probe records spans into the run's recorder.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence

from . import loadgen
from .inputs import Request
from .serving import Server
from .tracing import Recorder

#: Rounds of the probe requests per connection kind and deployment shape.
PROBE_ROUNDS = 8


def _median_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1000.0 if seconds else 0.0


def replay_service(catalog, requests: Sequence[Request], recorder: Recorder) -> Dict[str, float]:
    """Key, cold execute, warm execute and encode of each request on a fresh service."""
    from repro import FairnessService, request_from_json

    service = FairnessService(catalog=catalog)
    perf = time.perf_counter
    keys: List[float] = []
    misses: List[float] = []
    hits: List[float] = []
    encodes: Dict[str, List[float]] = {}
    envelope_score_ms: List[float] = []
    for number, request in enumerate(requests):
        trace_id = f"replay-{number}"
        parsed = request_from_json(request.wire)
        root_start = perf()
        root = recorder.add(f"replay.{request.kind}", trace_id, root_start, root_start)
        start = perf()
        service.request_key(parsed)
        keys.append(perf() - start)
        recorder.add("replay.request_key", trace_id, start, start + keys[-1], root)
        start = perf()
        result = service.execute(parsed)
        misses.append(perf() - start)
        recorder.add("replay.execute_miss", trace_id, start, start + misses[-1], root)
        if not result.ok:
            raise RuntimeError(f"replayed {request.kind} failed: {result.error}")
        if result.timings and "score_ms" in result.timings:
            envelope_score_ms.append(float(result.timings["score_ms"]))
        start = perf()
        result = service.execute(parsed)
        hits.append(perf() - start)
        recorder.add("replay.execute_hit", trace_id, start, start + hits[-1], root)
        start = perf()
        json.dumps(result.to_json())
        encodes.setdefault(request.kind, []).append(perf() - start)
        recorder.add("replay.encode", trace_id, start, start + encodes[request.kind][-1], root)
        recorder.spans[root]["end"] = perf()
    metrics = {
        "service.key_p50_ms": _median_ms(keys),
        "service.execute_miss_p50_ms": _median_ms(misses),
        "service.execute_hit_p50_ms": _median_ms(hits),
        "service.encode_p50_ms": _median_ms([s for kind in encodes.values() for s in kind]),
        "envelope.score_ms_p50": statistics.median(envelope_score_ms)
        if envelope_score_ms else 0.0,
    }
    for kind, seconds in encodes.items():
        metrics[f"service.encode_p50_ms.{kind}"] = _median_ms(seconds)
    return metrics


def _core_inputs(service, request: Request):
    """(dataset, function, formulation, search kwargs) of each search a request runs."""
    from repro import LinearScoringFunction, request_from_json

    if request.kind not in ("quantify", "compare", "sweep"):
        return []
    parsed = request_from_json(request.wire)
    if request.kind == "quantify":
        functions = [service.function(parsed.function)]
    elif request.kind == "compare":
        functions = [service.function(name) for name in parsed.functions]
    elif parsed.weight_maps:
        functions = [
            LinearScoringFunction(weights, name="sweep-point") for weights in parsed.weight_maps
        ]
    else:
        return []
    search = {
        "attributes": parsed.attributes,
        "max_depth": parsed.max_depth,
        "min_partition_size": parsed.min_partition_size,
    }
    dataset = service.dataset(parsed.dataset)
    return [(dataset, function, parsed.formulation(), search) for function in functions]


def replay_core(catalog, requests: Sequence[Request], recorder: Recorder) -> Dict[str, float]:
    """Score pass, greedy QUANTIFY and pairwise-EMD breakdown per search, on fresh stores."""
    from repro import FairnessService, ScoreStore, quantify, unfairness_breakdown
    from repro.service.fingerprint import fingerprint_function

    service = FairnessService(catalog=catalog)
    perf = time.perf_counter
    stores: Dict[tuple, ScoreStore] = {}
    score_passes: List[float] = []
    searches: List[float] = []
    breakdowns: List[float] = []
    splits: List[int] = []
    partitions: List[int] = []
    for number, request in enumerate(requests):
        for dataset, function, formulation, search in _core_inputs(service, request):
            trace_id = f"core-{number}"
            root_start = perf()
            root = recorder.add("replay.core", trace_id, root_start, root_start)
            key = (id(dataset), fingerprint_function(function))
            store = stores.get(key)
            if store is None:
                store = stores[key] = ScoreStore(dataset, function, trust_uids=True)
                start = perf()
                store.vector()
                score_passes.append(perf() - start)
                recorder.add("replay.score_pass", trace_id, start, perf(), root)
            start = perf()
            result = quantify(dataset, function, formulation, store=store, **search)
            searches.append(perf() - start)
            recorder.add("replay.quantify", trace_id, start, start + searches[-1], root)
            start = perf()
            unfairness_breakdown(result.partitioning, function, formulation, store=store)
            breakdowns.append(perf() - start)
            recorder.add("replay.breakdown", trace_id, start, start + breakdowns[-1], root)
            recorder.spans[root]["end"] = perf()
            splits.append(result.splits_evaluated)
            partitions.append(len(result.partitioning))
    histogram_hits = sum(store.stats.histogram_hits for store in stores.values())
    histogram_misses = sum(store.stats.histogram_misses for store in stores.values())
    lookups = histogram_hits + histogram_misses
    return {
        "core.score_pass_ms": _median_ms(score_passes),
        "core.scoring_passes": float(sum(s.stats.scoring_passes for s in stores.values())),
        "core.quantify_ms": _median_ms(searches),
        "core.splits_evaluated": statistics.mean(splits) if splits else 0.0,
        "core.histogram_hit_ratio": histogram_hits / lookups if lookups else 1.0,
        "core.breakdown_ms": _median_ms(breakdowns),
        "core.partitions_mean": statistics.mean(partitions) if partitions else 0.0,
    }


def _round_trips(port: int, requests: Sequence[Request], fresh: bool) -> Dict[str, list]:
    """PROBE_ROUNDS passes over ``requests``: latencies and envelope timings."""
    headers = {"Content-Type": "application/json"}
    latencies: List[float] = []
    envelopes: List[dict] = []
    connection = loadgen.connect(port)
    try:
        for _ in range(PROBE_ROUNDS):
            for request in requests:
                if fresh:
                    connection.close()
                    connection = loadgen.connect(port)
                started = time.perf_counter()
                status, body = loadgen.exchange(connection, request, headers)
                latencies.append(time.perf_counter() - started)
                if status != 200:
                    raise RuntimeError(f"probe {request.kind} answered {status}")
                envelopes.append(json.loads(body))
    finally:
        connection.close()
    return {"latencies": latencies, "envelopes": envelopes}


def probe_shapes(
    root: Path, snapshot: Path, workdir: Path, requests: Sequence[Request], routed: bool,
    recorder: Recorder,
) -> Dict[str, float]:
    """The same warm requests direct and through a 2-worker router.

    Gives the keep-alive vs fresh-connection latency on the workload's own
    shape, the router hop (routed minus direct fresh-connection p50), the
    envelope's ``route_ms``, the fleet boot time and retried forwards.  The
    router metrics come from this probe fleet on every workload.
    """
    shapes = {}
    for workers in (1, 2):
        with Server(root, snapshot, workers, workdir) as server:
            server.wait_ready()
            _round_trips(server.port, requests, fresh=False)  # warm every cache
            before = server.metrics()
            shapes[workers] = {
                "keepalive": _round_trips(server.port, requests, fresh=False),
                "fresh": _round_trips(server.port, requests, fresh=True),
                "boot_s": server.announced_s,
                "retried": _retried(server.metrics()) - _retried(before),
            }
            started = server.launched
            recorder.add(f"probe.boot.{workers}", "probe", started, started + server.ready_s)
    own = shapes[2 if routed else 1]
    # A router that stops reporting its hop in the envelope reads as 0 here;
    # router.hop_p50_ms does not depend on the envelope.
    route_ms = [
        float(envelope["timings"]["route_ms"])
        for envelope in shapes[2]["keepalive"]["envelopes"]
        if "route_ms" in (envelope.get("timings") or {})
    ]
    return {
        "http.keepalive_p50_ms": _median_ms(own["keepalive"]["latencies"]),
        "http.fresh_p50_ms": _median_ms(own["fresh"]["latencies"]),
        # On a reused connection the keep-alive stall rounds both shapes up
        # to the same timer tick and hides the hop; a fresh one does not stall.
        "router.hop_p50_ms": _median_ms(shapes[2]["fresh"]["latencies"])
        - _median_ms(shapes[1]["fresh"]["latencies"]),
        "router.route_ms_p50": statistics.median(route_ms) if route_ms else 0.0,
        "envelope.route_ms_samples": float(len(route_ms)),
        "router.retried_forwards": shapes[2]["retried"],
        "shard.pool.boot_s": shapes[2]["boot_s"],
    }


def _retried(samples) -> float:
    return sum(
        value for (name, _), value in samples.items()
        if name == "fairank_router_retried_forwards_total"
    )
