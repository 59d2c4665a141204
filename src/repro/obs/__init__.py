"""Observability for the FaiRank serving stack (stdlib only).

Three small, dependency-free modules the whole serving stack records into:

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket latency histograms, rendered in the
  Prometheus text format for ``GET /v2/metrics`` (plus a parser the shard
  router uses to aggregate per-worker scrapes);
* :mod:`repro.obs.trace` — trace ids and phase spans, propagated through
  HTTP (``X-Fairank-Trace``), batches and the score store via
  :mod:`contextvars`, surfaced as the envelope's ``timings`` field;
* :mod:`repro.obs.log` — structured JSON-lines logging with verbose and
  ``--slow-ms`` gating.

``repro.obs`` deliberately imports nothing from the rest of ``repro``, so
any layer (including :mod:`repro.core`) can instrument itself without
creating import cycles.
"""

from repro.obs.log import ObsLogger, WORKER_SLOT_ENV, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    ParsedMetrics,
    get_registry,
    merge_parsed,
    parse_prometheus,
    render_parsed,
)
from repro.obs.trace import (
    TRACE_HEADER,
    Trace,
    activate,
    current_trace,
    current_trace_id,
    new_trace_id,
    span,
    valid_trace_id,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "MetricsRegistry",
    "ObsLogger",
    "ParsedMetrics",
    "TRACE_HEADER",
    "Trace",
    "WORKER_SLOT_ENV",
    "activate",
    "current_trace",
    "current_trace_id",
    "get_logger",
    "get_registry",
    "merge_parsed",
    "new_trace_id",
    "parse_prometheus",
    "render_parsed",
    "span",
    "valid_trace_id",
]
