"""HTTP client with the same seven-method surface as ``FairnessClient``.

:class:`HTTPFairnessClient` subclasses
:class:`~repro.service.client.FairnessClientBase`, so ``quantify`` /
``audit`` / ``compare`` / ``breakdown`` / ``sweep`` / ``end_user`` /
``job_owner`` have identical signatures, identical client-side validation
and identical :class:`~repro.service.jobs.ServiceResult` return values as
the in-process client — only the transport differs (a ``POST /v2/<kind>``
per call, via :mod:`urllib.request`, no third-party dependencies).  Code
written against one client runs unchanged against the other.

Beyond the per-kind methods it exposes the server's remaining endpoints:
:meth:`HTTPFairnessClient.batch` (one round-trip for many requests through
the server's :meth:`~repro.service.service.FairnessService.execute_many`),
:meth:`HTTPFairnessClient.catalog` and :meth:`HTTPFairnessClient.health`.

The client is **shard-router aware by construction**: a
:class:`~repro.shard.router.ShardRouter` (``fairank serve --workers N``)
speaks exactly the same endpoints with the same status mapping, so pointing
``base_url`` at a router instead of a single server changes nothing in
calling code — requests are transparently fingerprint-routed to the worker
whose caches are hot, batches are split and reassembled server-side, and a
worker crash is retried on a healthy sibling before the client ever sees an
error.  The only visible difference is :meth:`health`, which returns the
router's *aggregated* payload: ``status`` reflects the whole fleet
(``ok`` / ``degraded`` / ``down``), and ``workers`` carries per-worker
liveness, restart counts and cache statistics alongside the single-process
fields.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, List, Sequence, Tuple

from repro.errors import ServiceError
from repro.obs.trace import TRACE_HEADER, current_trace_id, new_trace_id
from repro.service.client import FairnessClientBase
from repro.service.jobs import ServiceRequest, ServiceResult
from repro.server.http import _batch_results_from_json

__all__ = ["HTTPFairnessClient"]


class HTTPFairnessClient(FairnessClientBase):
    """Transport-agnostic client surface, carried over HTTP.

    Parameters
    ----------
    base_url:
        The server root, e.g. ``http://127.0.0.1:8080`` (a trailing slash is
        tolerated).
    raise_errors:
        When True (default) an error envelope raises
        :class:`~repro.errors.ServiceError`; when False the envelope is
        returned for inspection.  Transport-level failures (unreachable
        server, non-envelope error bodies) always raise.
    timeout:
        Per-call socket timeout in seconds.
    """

    def __init__(
        self, base_url: str, *, raise_errors: bool = True, timeout: float = 30.0
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.raise_errors = raise_errors
        self.timeout = timeout

    # -- transport -------------------------------------------------------------

    def _round_trip(self, request: urllib.request.Request) -> Tuple[int, Dict[str, object]]:
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            # Non-2xx responses still carry a JSON envelope or error payload.
            body = error.read()
            try:
                return error.code, json.loads(body)
            except json.JSONDecodeError:
                raise ServiceError(
                    f"server at {self.base_url} answered HTTP {error.code} "
                    "with a non-JSON body"
                ) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach fairness server at {self.base_url}: {error.reason}"
            ) from None
        except (json.JSONDecodeError, TimeoutError) as error:
            raise ServiceError(
                f"invalid response from fairness server at {self.base_url}: {error}"
            ) from None

    @staticmethod
    def _trace_headers() -> Dict[str, str]:
        """The outgoing trace header: join the caller's trace or open one.

        The client is an *ingress*: inside an already-traced context (a
        server calling out, a test pinning an id) the active id propagates;
        otherwise each call gets a fresh id, so the server-side log line and
        the envelope's ``timings.trace_id`` are correlatable either way.
        """
        return {TRACE_HEADER: current_trace_id() or new_trace_id()}

    def _post(self, path: str, payload: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json", **self._trace_headers()},
            method="POST",
        )
        return self._round_trip(request)

    def _get(self, path: str) -> Dict[str, object]:
        status, payload = self._round_trip(
            urllib.request.Request(
                f"{self.base_url}{path}", headers=self._trace_headers(), method="GET"
            )
        )
        if status != 200:
            raise ServiceError(
                f"GET {path} failed with HTTP {status}: "
                f"{payload.get('error', payload)}"
            )
        return payload

    @staticmethod
    def _raise_transport_error(payload: Dict[str, object], context: str) -> None:
        """Raise for a transport-level error payload (no result envelope)."""
        error = payload.get("error")
        code = error.get("code", "error") if isinstance(error, dict) else "error"
        message = error.get("message", "") if isinstance(error, dict) else str(error)
        raise ServiceError(f"{context} was rejected [{code}]: {message}")

    def _run(self, request: ServiceRequest) -> ServiceResult:
        _, payload = self._post(f"/v2/{request.kind}", request.to_json())
        if "kind" not in payload:
            # 400/404/500 transport payloads carry only {"error": ...}; a
            # failed *execution* travels as a full envelope and is handled
            # below like any other result.
            self._raise_transport_error(payload, f"{request.kind} request")
        result = ServiceResult.from_json(payload)
        if self.raise_errors:
            result.raise_for_error()
        return result

    # -- endpoints beyond the per-kind methods ---------------------------------

    def batch(self, requests: Sequence[ServiceRequest]) -> List[ServiceResult]:
        """Execute many requests in one round-trip through ``/v2/batch``.

        Results come back in input order with per-slot error envelopes
        (``raise_errors`` does not apply: batch semantics are always
        inspect-the-envelope, matching ``execute_many``).
        """
        status, payload = self._post(
            "/v2/batch", {"requests": [request.to_json() for request in requests]}
        )
        if status != 200 or "results" not in payload:
            self._raise_transport_error(payload, "batch request")
        return _batch_results_from_json(payload)

    def catalog(self) -> Dict[str, object]:
        """The server's catalogue listing (``Catalog.describe()``)."""
        return self._get("/v2/catalog")

    def health(self) -> Dict[str, object]:
        """The server's liveness / statistics payload."""
        return self._get("/v2/health")
