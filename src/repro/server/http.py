"""The HTTP front end: wire protocol v2 over REST, stdlib only.

FaiRank is presented as an *interactive system*: auditors, end users and job
owners query it live.  :class:`FairnessHTTPServer` is that serving surface —
a :class:`http.server.ThreadingHTTPServer` (one thread per connection, no
third-party dependencies) exposing one POST endpoint per protocol-v2 request
kind plus batch execution and three read-only GETs:

================  ======  ====================================================
endpoint          method  body / response
================  ======  ====================================================
``/v2/quantify``  POST    a :class:`~repro.service.jobs.QuantifyRequest` JSON
``/v2/audit``     POST    an :class:`~repro.service.jobs.AuditRequest` JSON
``/v2/compare``   POST    a :class:`~repro.service.jobs.CompareRequest` JSON
``/v2/breakdown`` POST    a :class:`~repro.service.jobs.BreakdownRequest` JSON
``/v2/sweep``     POST    a :class:`~repro.service.jobs.SweepRequest` JSON
``/v2/end_user``  POST    an :class:`~repro.service.jobs.EndUserRequest` JSON
``/v2/job_owner`` POST    a :class:`~repro.service.jobs.JobOwnerRequest` JSON
``/v2/batch``     POST    ``{"requests": [...]}`` through ``execute_many``
``/v2/catalog``   GET     the catalogue listing (``Catalog.describe()``)
``/v2/health``    GET     liveness + cache / store-pool / uptime statistics
``/v2/metrics``   GET     the process metrics registry as Prometheus text
================  ======  ====================================================

Every POST body travels through the same :func:`~repro.service.jobs.request_from_json`
envelopes the batch files and the in-process client use (the ``kind`` field
may be omitted — the path supplies it), and every response is a
:meth:`~repro.service.jobs.ServiceResult.to_json` envelope, so HTTP, batch
and in-process traffic are byte-comparable and share one
:class:`~repro.service.service.FairnessService` — same cache, same score
stores, same catalogue.

Status mapping: ``200`` for a served request; ``400`` for a body that does
not parse into a request; ``404`` for an unknown endpoint or a ``catalog``
error envelope; ``422`` for any other execution error envelope (the
structured ``{"code", "message"}`` payload still travels in the body);
``405`` for a method an endpoint does not speak.  ``/v2/batch`` always
answers ``200`` with one envelope per slot — per-request failures are
in-slot, exactly like ``serve-batch``.

Observability (:mod:`repro.obs`): every request runs under a trace —
inherited from the ``X-Fairank-Trace`` request header or freshly generated —
whose id is echoed in the response header and in the envelope's ``timings``
field; each response increments ``<prefix>_requests_total`` and lands in
``<prefix>_request_seconds``, and a structured JSON log event is emitted
when ``verbose`` is on or the request breached ``slow_ms``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import FaiRankError, ServiceError
from repro.obs.log import ObsLogger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import TRACE_HEADER, Trace, activate, valid_trace_id
from repro.service.jobs import (
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    ServiceResult,
    request_from_json,
)
from repro.service.service import FairnessService, _error_code

__all__ = ["FairnessHTTPServer", "REQUEST_ENDPOINTS", "V2ServerBase"]

#: The request kinds served as ``POST /v2/<kind>`` (one endpoint per kind).
REQUEST_ENDPOINTS: Tuple[str, ...] = tuple(REQUEST_KINDS)

#: HTTP status for an execution error envelope, by error code.
_STATUS_BY_ERROR_CODE = {"catalog": 404}
_DEFAULT_ERROR_STATUS = 422

#: Prometheus text exposition content type (``/v2/metrics``).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Endpoint label values for the HTTP metrics; unknown paths collapse to
#: "other" so random 404 traffic cannot explode the label cardinality.
_KNOWN_PATHS = frozenset(
    {"/v2/health", "/v2/catalog", "/v2/metrics", "/v2/batch"}
    | {f"/v2/{kind}" for kind in REQUEST_ENDPOINTS}
)


def _transport_error(code: str, message: str) -> Dict[str, object]:
    """A bodyless-failure payload (same shape as an envelope's ``error``)."""
    return {"error": {"code": code, "message": message}}


class _JSONRequestHandler(BaseHTTPRequestHandler):
    """Shared plumbing for JSON-speaking v2 handlers.

    Both the single-process server below and the shard router
    (:mod:`repro.shard.router`) subclass this: keep-alive-safe body
    draining, JSON responses, request dispatch with trace activation,
    per-server request counting/metrics and structured logging live here so
    the two serving surfaces cannot drift apart.  Subclasses implement the
    three surface-specific hooks (:meth:`_serve_catalog`,
    :meth:`_serve_kind`, :meth:`_serve_batch`).
    """

    protocol_version = "HTTP/1.1"
    # Bound idle keep-alive connections: without a socket timeout a client
    # that holds its connection open would block the drain on shutdown
    # (server_close joins in-flight handler threads) indefinitely.
    timeout = 30.0

    server: "V2ServerBase"

    # -- plumbing --------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Silence the stdlib's stderr lines (structured logging replaces them)."""

    def _send_json(self, status: int, payload: Dict[str, object]) -> None:
        self._send_raw(
            status, json.dumps(payload).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _send_raw(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace = getattr(self, "_trace", None)
        if trace is not None:
            self.send_header(TRACE_HEADER, trace.trace_id)
        self.end_headers()
        self.wfile.write(body)
        self._status = status
        self.server._count_request()

    def _drain_body(self) -> bytes:
        """Read the request body off the socket.

        Connections are keep-alive (HTTP/1.1), so the body must be consumed
        on *every* response path — including 404/405 rejections — or the
        unread bytes would be parsed as the next request line on the same
        connection.  When the length is unknowable the connection is closed
        instead.
        """
        try:
            length = int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            self.close_connection = True
            raise ServiceError("invalid Content-Length header") from None
        if length == 0 and self.headers.get("Transfer-Encoding"):
            # Chunked bodies have no Content-Length; this server does not
            # decode them, so the connection cannot be reused safely.
            self.close_connection = True
            raise ServiceError(
                "chunked request bodies are not supported; send Content-Length"
            )
        return self.rfile.read(length) if length > 0 else b""

    def _read_json_body(self, raw: bytes) -> object:
        """The parsed JSON request body (raises ServiceError for bad input)."""
        if not raw:
            raise ServiceError("request body is empty; expected a JSON object")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServiceError(f"request body is not valid JSON: {error}") from None

    # -- dispatch --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        """Route one request under a fresh (or header-inherited) trace.

        A keep-alive connection reuses one handler thread for many requests,
        so the trace is activated per dispatch (contextvar token reset on the
        way out) — never stored on the thread.
        """
        started = time.perf_counter()
        self._status: Optional[int] = None
        trace = Trace(valid_trace_id(self.headers.get(TRACE_HEADER)))
        self._trace = trace
        path = urlsplit(self.path).path.rstrip("/")
        with activate(trace):
            try:
                raw = self._drain_body()  # always, even on 404/405 (keep-alive)
            except ServiceError as error:
                self._send_json(400, _transport_error(_error_code(error), str(error)))
            else:
                try:
                    if method == "GET":
                        self._handle_get(path)
                    else:
                        self._handle_post(path, raw)
                except ServiceError as error:
                    self._send_json(
                        400, _transport_error(_error_code(error), str(error))
                    )
                except Exception as error:  # pragma: no cover - defensive 500
                    self._send_json(500, _transport_error("internal", str(error)))
        self.server._observe_http(
            method=method,
            path=path,
            status=self._status if self._status is not None else 0,
            duration_s=time.perf_counter() - started,
            trace=trace,
        )

    def _handle_get(self, path: str) -> None:
        if path == "/v2/health":
            self._send_json(200, self.server.health())
            return
        if path == "/v2/metrics":
            self._send_raw(
                200, self.server.metrics_text().encode("utf-8"), METRICS_CONTENT_TYPE
            )
            return
        if path == "/v2/catalog":
            self._serve_catalog()
            return
        if path == "/v2/batch" or path.removeprefix("/v2/") in REQUEST_ENDPOINTS:
            self._send_json(
                405, _transport_error("method", f"{path} only accepts POST")
            )
            return
        self._send_json(
            404, _transport_error("not_found", f"unknown endpoint {path!r}")
        )

    def _handle_post(self, path: str, raw: bytes) -> None:
        if path in ("/v2/health", "/v2/catalog", "/v2/metrics"):
            self._send_json(
                405, _transport_error("method", f"{path} only accepts GET")
            )
            return
        if path == "/v2/batch":
            self._serve_batch(raw)
            return
        kind = path.removeprefix("/v2/")
        if path.startswith("/v2/") and kind in REQUEST_ENDPOINTS:
            self._serve_kind(kind, path, raw)
            return
        self._send_json(
            404, _transport_error("not_found", f"unknown endpoint {path!r}")
        )

    # -- surface hooks ---------------------------------------------------------

    def _serve_catalog(self) -> None:
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def _serve_kind(self, kind: str, path: str, raw: bytes) -> None:
        raise NotImplementedError  # pragma: no cover - subclasses implement

    def _serve_batch(self, raw: bytes) -> None:
        raise NotImplementedError  # pragma: no cover - subclasses implement


class _Handler(_JSONRequestHandler):
    """Routes v2 endpoints onto the server's shared FairnessService."""

    server: "FairnessHTTPServer"

    def _serve_catalog(self) -> None:
        self._send_json(200, self.server.service.catalog.describe())

    def _parse_request(self, payload: object, kind: Optional[str] = None):
        """Build a service request from a JSON body (path kind wins over body)."""
        if not isinstance(payload, dict):
            raise ServiceError("a request payload must be a JSON object")
        envelope = dict(payload)
        if kind is not None:
            declared = envelope.get("kind")
            if declared is not None and declared != kind:
                raise ServiceError(
                    f"request body declares kind {declared!r} but was POSTed "
                    f"to /v2/{kind}"
                )
            envelope["kind"] = kind
        envelope.setdefault("protocol", PROTOCOL_VERSION)
        return request_from_json(envelope)

    def _serve_kind(self, kind: str, path: str, raw: bytes) -> None:
        request = self._parse_request(self._read_json_body(raw), kind)
        result = self.server.service.execute(request)
        if result.ok:
            self._send_json(200, result.to_json())
            return
        code = str(result.error.get("code", "error"))
        status = _STATUS_BY_ERROR_CODE.get(code, _DEFAULT_ERROR_STATUS)
        self._send_json(status, result.to_json())

    def _serve_batch(self, raw: bytes) -> None:
        document = self._read_json_body(raw)
        entries = document.get("requests") if isinstance(document, dict) else document
        if not isinstance(entries, list) or not entries:
            raise ServiceError(
                "a batch body must be a non-empty list of request objects "
                "(either top-level or under a 'requests' key)"
            )
        # A slot whose entry does not even parse gets an error envelope in
        # place, mirroring execute_many's in-slot semantics for bad requests.
        parsed = []
        envelopes: Dict[int, ServiceResult] = {}
        for index, entry in enumerate(entries):
            try:
                parsed.append((index, self._parse_request(entry)))
            except FaiRankError as error:
                kind = entry.get("kind") if isinstance(entry, dict) else None
                envelopes[index] = ServiceResult(
                    kind=str(kind) if kind else "unknown",
                    key="",
                    error={"code": _error_code(error), "message": str(error)},
                )
        results = self.server.service.execute_many([request for _, request in parsed])
        for (index, _), result in zip(parsed, results):
            envelopes[index] = result
        self._send_json(
            200,
            {
                "protocol": PROTOCOL_VERSION,
                "results": [envelopes[i].to_json() for i in range(len(entries))],
            },
        )


class V2ServerBase(ThreadingHTTPServer):
    """Shared lifecycle + serving statistics for the v2 serving surfaces.

    Both :class:`FairnessHTTPServer` and the shard router
    (:class:`repro.shard.router.ShardRouter`) are this server: bind with a
    :class:`~repro.errors.ServiceError` on failure, count served requests,
    serve ``/v2/metrics``, record HTTP metrics and structured request logs,
    and expose the same drain-on-close, background-serving and context-
    manager semantics — one place to fix means both surfaces get the fix.
    """

    # Non-daemon handler threads + block_on_close means ``server_close()``
    # *drains*: it joins every in-flight handler before returning, so a
    # SIGTERM'd ``fairank serve`` (or a restarting shard worker) never cuts a
    # response short.  The handler's socket timeout bounds how long an idle
    # keep-alive connection can hold the drain up.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    # The default listen backlog (5) drops connections under a concurrent
    # burst; size it for benchmark/batch-style waves of simultaneous clients.
    request_queue_size = 128

    #: Name of the background serving thread (subclasses override).
    thread_name = "fairank-v2"

    #: Metric family prefix for this surface's HTTP metrics (the router
    #: overrides it so router ingress and worker metrics never collide when
    #: per-worker scrapes are aggregated).
    metrics_prefix = "fairank_http"

    def __init__(self, host: str, port: int, handler_class) -> None:
        try:
            super().__init__((host, port), handler_class)
        except OSError as error:
            raise ServiceError(f"cannot bind {host}:{port}: {error}") from None
        self._started = time.monotonic()
        self._requests_served = 0
        self._stats_lock = threading.Lock()
        self._serving = False
        self.verbose = False
        self.slow_ms: Optional[float] = None
        self.obs = ObsLogger()

    def configure_observability(
        self, *, verbose: bool = False, slow_ms: Optional[float] = None
    ) -> None:
        """Set request-log gating (every request vs slow requests only)."""
        self.verbose = verbose
        self.slow_ms = slow_ms
        self.obs = ObsLogger(verbose=verbose, slow_ms=slow_ms)

    # -- introspection ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        """The actual bound port (resolves ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def uptime_s(self) -> float:
        return round(time.monotonic() - self._started, 3)

    def _count_request(self) -> None:
        with self._stats_lock:
            self._requests_served += 1

    @property
    def requests_served(self) -> int:
        with self._stats_lock:
            return self._requests_served

    # -- observability ---------------------------------------------------------

    def _observe_http(
        self, *, method: str, path: str, status: int, duration_s: float, trace: Trace
    ) -> None:
        """Record one served HTTP exchange (metrics + structured log)."""
        endpoint = path if path in _KNOWN_PATHS else "other"
        registry = get_registry()
        registry.counter(
            f"{self.metrics_prefix}_requests_total",
            "HTTP requests served by endpoint, method and status",
        ).inc(endpoint=endpoint, method=method, status=str(status))
        registry.histogram(
            f"{self.metrics_prefix}_request_seconds",
            "HTTP request latency by endpoint",
        ).observe(duration_s, endpoint=endpoint)
        self.obs.request(
            "http_request",
            duration_s * 1000.0,
            trace_id=trace.trace_id,
            method=method,
            path=path,
            status=status,
        )

    def _refresh_gauges(self, registry: MetricsRegistry) -> None:
        """Update point-in-time gauges right before a scrape."""
        registry.gauge(
            f"{self.metrics_prefix}_uptime_seconds", "Server uptime"
        ).set(self.uptime_s)

    def metrics_text(self) -> str:
        """The ``/v2/metrics`` page: the process registry as Prometheus text."""
        registry = get_registry()
        self._refresh_gauges(registry)
        return registry.render()

    # -- lifecycle -------------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self._serving = True
        super().serve_forever(poll_interval)

    def serve_in_background(self, name: Optional[str] = None) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread (tests and benchmarks)."""
        # Flagged here too: __exit__ may run before the thread is scheduled,
        # and BaseServer.shutdown() deadlocks unless serve_forever runs.
        self._serving = True
        thread = threading.Thread(
            target=self.serve_forever, name=name or self.thread_name, daemon=True
        )
        thread.start()
        return thread

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._serving:
            self.shutdown()
        self.server_close()


class FairnessHTTPServer(V2ServerBase):
    """A threaded HTTP server over one shared :class:`FairnessService`.

    Parameters
    ----------
    service:
        The service every endpoint executes against (and whose catalogue
        ``/v2/catalog`` lists).  Boot one from a snapshot via
        ``FairnessService(catalog=Catalog.load(path))``.
    host / port:
        Bind address; ``port=0`` picks a free ephemeral port (see ``.port``).
    verbose:
        Emit a structured JSON log event for every request (stderr).
    slow_ms:
        Emit the structured event (marked ``"slow": true``) for any request
        at or above this many milliseconds, even without ``verbose``.
    """

    thread_name = "fairank-http"

    def __init__(
        self,
        service: FairnessService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        verbose: bool = False,
        slow_ms: Optional[float] = None,
    ) -> None:
        super().__init__(host, port, _Handler)
        self.service = service
        self.configure_observability(verbose=verbose, slow_ms=slow_ms)

    def _refresh_gauges(self, registry: MetricsRegistry) -> None:
        """Cache and store-pool statistics, exported at scrape time."""
        super()._refresh_gauges(registry)
        cache_stats = registry.gauge(
            "fairank_cache_stats", "Result cache statistics snapshot"
        )
        for name, value in self.service.cache_stats.as_dict().items():
            if isinstance(value, (int, float)):
                cache_stats.set(float(value), stat=name)
        pool_stats = registry.gauge(
            "fairank_store_pool_stats", "Score-store pool statistics snapshot"
        )
        for name, value in self.service.store_stats.as_dict().items():
            if isinstance(value, (int, float)):
                pool_stats.set(float(value), stat=name)

    def health(self) -> Dict[str, object]:
        """The ``/v2/health`` payload: liveness plus serving statistics."""
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "uptime_s": self.uptime_s,
            "requests_served": self.requests_served,
            "endpoints": list(REQUEST_ENDPOINTS)
            + ["batch", "catalog", "health", "metrics"],
            "cache": self.service.cache_stats.as_dict(),
            "store_pool": self.service.store_stats.as_dict(),
            "catalog": self.service.catalog.describe()["counts"],
        }


def _batch_results_from_json(payload: Dict[str, object]) -> List[ServiceResult]:
    """Decode a ``/v2/batch`` response body (shared with the HTTP client)."""
    results = payload.get("results")
    if not isinstance(results, list):
        raise ServiceError("batch response carries no 'results' list")
    return [ServiceResult.from_json(entry) for entry in results]
