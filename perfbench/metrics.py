"""Metric names, units and the per-layer -> end-to-end prediction table.

``BENCHMARK.json`` declares the same names (and the end-to-end bounds);
``run.py --self-check`` fails when the two drift apart.  ``PER_LAYER``
records, before any optimisation is measured, which end-to-end metric each
layer metric should move and on which workload.  A pairing that is not
listed is predicted not to move.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Tuple[str, ...] = ("warm-direct", "warm-routed", "explore-100k")

#: (name, unit, better) of every end-to-end metric, reported with --trace 0.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("latency_p99_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("success_rate", "ratio", "higher"),
    ("setup_s", "s", "lower"),
    ("server_rss_mb", "MB", "lower"),
)

#: Kinds whose encode time is a metric of its own: those every workload
#: sends (the explore catalog has no marketplace for the other three).
ENCODE_KINDS: Tuple[str, ...] = ("quantify", "compare", "breakdown", "sweep")

#: Layers whose self time (mean per client round trip) is a metric.  The
#: router, compute and score layers are absent from some workloads' paths,
#: so their self times are printed and written to the trace file only.
SELF_TIME_LAYERS: Tuple[str, ...] = ("http", "service_key", "service_cache")

_WARM = ("warm-direct", "warm-routed")
_P50 = "latency_p50_ms"
_P90 = "latency_p90_ms"

#: name -> (unit, better, layer, [(end-to-end metric, workload), ...]).
PER_LAYER: Dict[str, Tuple[str, str, str, List[Tuple[str, str]]]] = {
    "http.transport_p50_ms": (
        "ms", "lower", "server.http",
        [(_P50, "warm-direct"), ("throughput_rps", "warm-direct")],
    ),
    "http.keepalive_p50_ms": (
        "ms", "lower", "server.http", [(_P50, workload) for workload in _WARM],
    ),
    "http.fresh_p50_ms": (
        "ms", "lower", "server.http", [(_P50, workload) for workload in _WARM],
    ),
    "http.response_bytes_mean": (
        "bytes", "lower", "server.http", [(_P50, "warm-direct"), (_P90, "explore-100k")],
    ),
    "router.hop_p50_ms": ("ms", "lower", "shard.router", [(_P50, "warm-routed")]),
    "router.route_ms_p50": ("ms", "lower", "shard.router", [(_P50, "warm-routed")]),
    "router.retried_forwards": (
        "count", "lower", "shard.router", [("success_rate", "warm-routed")],
    ),
    "shard.pool.boot_s": ("s", "lower", "shard.pool", [("setup_s", "warm-routed")]),
    "service.key_p50_ms": ("ms", "lower", "service.service", [(_P50, "warm-direct")]),
    "service.execute_hit_p50_ms": (
        "ms", "lower", "service.service", [(_P50, "warm-direct")],
    ),
    "service.execute_miss_p50_ms": (
        "ms", "lower", "service.service", [(_P50, "explore-100k"), (_P90, "explore-100k")],
    ),
    "service.encode_p50_ms": ("ms", "lower", "service.jobs", [(_P50, "warm-direct")]),
    **{
        f"service.encode_p50_ms.{kind}": (
            "ms", "lower", "service.jobs", [(_P50, "warm-direct")],
        )
        for kind in ENCODE_KINDS
    },
    "service.cache_hit_ratio": (
        "ratio", "higher", "service.cache", [(_P50, "explore-100k"), (_P90, "explore-100k")],
    ),
    "service.cache_evictions": (
        "count", "lower", "service.cache", [(_P50, "explore-100k"), (_P90, "explore-100k")],
    ),
    "service.store_hit_ratio": (
        "ratio", "higher", "service.service", [(_P90, "explore-100k")],
    ),
    "service.store_evictions": (
        "count", "lower", "service.service", [(_P90, "explore-100k")],
    ),
    "catalog.fingerprint_s": (
        "s", "lower", "service.fingerprint", [("setup_s", "explore-100k")],
    ),
    "catalog.snapshot_load_s": (
        "s", "lower", "catalog", [("setup_s", workload) for workload in WORKLOADS],
    ),
    "data.codes_ms": ("ms", "lower", "data", [(_P90, "explore-100k")]),
    "core.score_pass_ms": ("ms", "lower", "core.scorestore", [(_P90, "explore-100k")]),
    "core.scoring_passes": ("count", "lower", "core.scorestore", [(_P90, "explore-100k")]),
    "core.quantify_ms": ("ms", "lower", "core.quantify", [(_P50, "explore-100k")]),
    "core.splits_evaluated": ("count", "lower", "core.quantify", [(_P50, "explore-100k")]),
    "core.histogram_hit_ratio": (
        "ratio", "higher", "core.scorestore", [(_P50, "explore-100k")],
    ),
    "core.breakdown_ms": ("ms", "lower", "core.unfairness", [(_P50, "explore-100k")]),
    "core.partitions_mean": ("count", "lower", "core.quantify", [(_P50, "explore-100k")]),
    "loadgen.cpu_share": ("ratio", "lower", "harness", []),
    "trace.overhead_share": ("ratio", "lower", "harness", []),
    **{
        f"self.{layer}_ms": ("ms", "lower", "trace", [])
        for layer in SELF_TIME_LAYERS
    },
}


def benchmark_declaration() -> Dict[str, List[Dict[str, str]]]:
    """The ``end_to_end`` / ``per_layer`` lists as BENCHMARK.json spells them, less bounds."""
    return {
        "end_to_end": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in PER_LAYER.items()
        ],
    }
