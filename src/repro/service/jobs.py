"""Typed request/response objects — wire protocol v2 of the service.

A request references datasets, scoring functions and marketplaces *by the
name they are registered under* in the service's
:class:`~repro.catalog.Catalog`, so every request is a small,
JSON-serialisable value object.  ``to_json`` / ``from_json`` round-trip
losslessly (``from_json(to_json(r)) == r``), which is what lets a batch of
requests live in a file, a queue or an HTTP body.

The request dataclasses are the *only* description of a request kind.
:data:`REQUEST_KINDS` lists the kinds; the wire codec is derived from each
class's ``dataclasses.fields()`` and type annotations; fields that name a
catalog resource carry a reference marker (see :func:`wire_fields`), from
which the service cache key, the shard router's references and the CLI's
resolution check are derived.  Adding a field therefore updates the codec
and the cache key at once.

**Protocol v2** adds a versioned envelope and three things v1 lacked:

* every ``to_json`` payload carries ``"protocol": 2``; ingestion is
  graceful — a payload without the field (or with ``protocol: 1``) is a v1
  request and parses identically, while versions this server does not speak
  are rejected with a clear error;
* :class:`ServiceResult` gains a structured ``error`` payload
  (``{"code", "message"}``) so a failed request travels the same envelope as
  a successful one instead of only raising server-side;
* three paper scenarios that v1 could not express over the wire:

  ==================  =====================================================
  kind                workload
  ==================  =====================================================
  ``quantify``        one QUANTIFY search plus its unfairness breakdown
  ``audit``           the AUDITOR scenario over a marketplace (or one job)
  ``compare``         one dataset, several scoring functions, ranked
  ``breakdown``       per-attribute unfairness of first-level splits
  ``sweep``           weight sweep over a linear function (JOB-OWNER core)
  ``end_user``        one group, one job, several marketplaces (END-USER)
  ``job_owner``       full job-owner variant exploration with a verdict
  ==================  =====================================================

Ingestion checks every value against its field's declared type: a boolean
only from a JSON boolean, an integer only from a JSON integer (never a
boolean, float or string), a tuple field only from a JSON array.  A mismatch
is a :class:`~repro.errors.ServiceError`, never a coerced value.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.catalog import ResourceKind
from repro.core.formulations import Formulation
from repro.errors import ServiceError
from repro.metrics.histogram import DEFAULT_BINS

__all__ = [
    "PROTOCOL_VERSION",
    "REFERENCE_FIELDS",
    "REQUEST_KINDS",
    "QuantifyRequest",
    "AuditRequest",
    "CompareRequest",
    "BreakdownRequest",
    "SweepRequest",
    "EndUserRequest",
    "JobOwnerRequest",
    "ServiceRequest",
    "ServiceResult",
    "WireField",
    "request_from_json",
    "wire_fields",
]

#: The protocol version this build speaks (and stamps on outgoing payloads).
PROTOCOL_VERSION = 2

#: Versions this server ingests.  v1 payloads simply lack the new request
#: kinds and the ``protocol`` field; their fields are a strict subset of v2.
_SUPPORTED_PROTOCOLS = (1, 2)

#: Weight vectors travel as ``{attribute: weight}`` JSON objects but are
#: normalised to sorted ``((attribute, weight), ...)`` pairs internally so
#: frozen requests stay comparable regardless of key order.
WeightVector = Tuple[Tuple[str, float], ...]


def _optional_str_tuple(value: Optional[Sequence[str]]) -> Optional[Tuple[str, ...]]:
    if value is None:
        return None
    return tuple(str(item) for item in value)


def _is_weight(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _normalise_weight_vectors(
    value: Optional[Sequence[Union[Mapping[str, float], Sequence[Tuple[str, float]]]]],
) -> Optional[Tuple[WeightVector, ...]]:
    """Canonicalise a sequence of weight maps to sorted pair tuples."""
    if value is None:
        return None
    vectors = []
    for entry in value:
        items = entry.items() if isinstance(entry, Mapping) else entry
        try:
            pairs = [(str(name), weight) for name, weight in items]
        except (TypeError, ValueError):
            pairs = None
        if pairs is None or not all(_is_weight(weight) for _, weight in pairs):
            raise ServiceError(
                "each weight vector must map attribute names to numeric weights, "
                f"got {entry!r}"
            )
        vectors.append(tuple(sorted((name, float(weight)) for name, weight in pairs)))
    return tuple(vectors)


def _normalise_group(
    value: Union[Mapping[str, object], Sequence[Tuple[str, object]]],
) -> Tuple[Tuple[str, object], ...]:
    """Canonicalise an end-user group to sorted (attribute, value) pairs."""
    items = value.items() if isinstance(value, Mapping) else value
    try:
        pairs = [(str(name), v) for name, v in items]
    except (TypeError, ValueError):
        raise ServiceError(
            f"an end-user group must map attribute names to values, got {value!r}"
        ) from None
    return tuple(sorted(pairs, key=lambda p: p[0]))


# -- field markers -------------------------------------------------------------


def _reference(kind: ResourceKind, *, many: bool = False) -> Any:
    """A field naming catalog resource(s) of ``kind``: one name, or a tuple.

    A single reference is required on the wire; a tuple of references
    defaults to empty (the request's ``__post_init__`` says what is missing).
    """
    if many:
        return field(default=(), metadata={"reference": kind})
    return field(default="", metadata={"reference": kind, "required": True})


def _required(default: object) -> Any:
    """A field every wire payload of the kind must carry."""
    return field(default=default, metadata={"required": True})


# -- the derived codec ---------------------------------------------------------


class _WireTypeError(Exception):
    """A JSON value does not have its field's declared type."""


class _Codec(NamedTuple):
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    description: str


def _identity(value: Any) -> Any:
    return value


def _scalar_codec(expected: type) -> _Codec:
    def decode(value: Any) -> Any:
        if isinstance(value, bool) and expected is not bool:
            raise _WireTypeError
        if isinstance(value, expected):
            return value
        if expected is float and isinstance(value, int):
            return float(value)
        raise _WireTypeError

    names = {bool: "boolean", int: "integer", float: "number", str: "string"}
    return _Codec(_identity, decode, names[expected])


def _codec(hint: Any) -> _Codec:
    """Wire encoder/decoder for one declared field type."""
    args = get_args(hint)
    if get_origin(hint) is Union and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        base = _codec(inner)
        return _Codec(
            lambda value: None if value is None else base.encode(value),
            lambda value: None if value is None else base.decode(value),
            f"{base.description} or null",
        )
    if get_origin(hint) is tuple and args[1:] == (Ellipsis,):
        pair = get_args(args[0]) if get_origin(args[0]) is tuple else ()
        if len(pair) == 2 and pair[0] is str:
            # ``(name, value)`` pairs travel as a JSON object (v1 files may
            # send a list of pairs); the request's __post_init__ normaliser
            # checks and sorts them.
            value = _codec(pair[1])

            def decode_pairs(raw: Any) -> Any:
                if not isinstance(raw, (dict, list)):
                    raise _WireTypeError
                return raw

            return _Codec(
                lambda pairs: {name: value.encode(item) for name, item in pairs},
                decode_pairs,
                "object",
            )
        item = _codec(args[0])

        def decode_items(raw: Any) -> Any:
            if not isinstance(raw, list):
                raise _WireTypeError
            return tuple(item.decode(element) for element in raw)

        return _Codec(
            lambda items: [item.encode(element) for element in items],
            decode_items,
            f"array of {item.description}s",
        )
    if hint is object:
        return _Codec(_identity, _identity, "value")
    return _scalar_codec(hint)


class WireField(NamedTuple):
    """The codec's view of one request field."""

    name: str
    codec: _Codec
    required: bool
    #: The catalog kind this field names (None for plain fields).
    reference: Optional[ResourceKind]
    #: Whether the field holds a tuple of names (``functions``) or one.
    many: bool


@lru_cache(maxsize=None)
def wire_fields(request_type: type) -> Tuple[WireField, ...]:
    """Every wire field of a request class, derived from its dataclass fields."""
    hints = get_type_hints(request_type)
    return tuple(
        WireField(
            name=spec.name,
            codec=_codec(hints[spec.name]),
            required=spec.metadata.get("required", False),
            reference=spec.metadata.get("reference"),
            many=get_origin(hints[spec.name]) is tuple,
        )
        for spec in fields(request_type)
    )


@dataclass(frozen=True)
class ServiceRequest:
    """Shared base of every request kind: formulation fields plus the codec.

    String validation of the formulation is *not* duplicated here:
    ``formulation()`` is the one resolution path —
    :meth:`repro.core.formulations.Formulation.from_names` — shared with the
    CLI and the experiments harness, so every layer raises the same error
    message for a bad objective/aggregation/distance name.
    """

    kind: ClassVar[str]

    objective: str = "most_unfair"
    aggregation: str = "average"
    distance: str = "emd"
    bins: int = DEFAULT_BINS

    def formulation(self) -> Formulation:
        """Materialise the formulation (validates the string fields)."""
        return Formulation.from_names(
            objective=self.objective,
            aggregation=self.aggregation,
            distance=self.distance,
            bins=self.bins,
        )

    def to_json(self) -> Dict[str, object]:
        """The protocol-v2 wire form: envelope plus every field."""
        payload: Dict[str, object] = {"protocol": PROTOCOL_VERSION, "kind": self.kind}
        for spec in wire_fields(type(self)):
            payload[spec.name] = spec.codec.encode(getattr(self, spec.name))
        return payload

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ServiceRequest":
        """Rebuild a request from its wire form, type-checking every field."""
        values: Dict[str, object] = {}
        for spec in wire_fields(cls):
            if spec.name not in payload:
                if spec.required:
                    raise ServiceError(
                        f"{cls.kind} request payload is missing required field "
                        f"{spec.name!r}"
                    )
                continue
            raw = payload[spec.name]
            try:
                values[spec.name] = spec.codec.decode(raw)
            except _WireTypeError:
                raise ServiceError(
                    f"{cls.kind} request field {spec.name!r} must be a JSON "
                    f"{spec.codec.description}, got {raw!r}"
                ) from None
        return cls(**values)  # type: ignore[arg-type]


@dataclass(frozen=True)
class QuantifyRequest(ServiceRequest):
    """Run the QUANTIFY search for one (dataset, function) configuration."""

    kind: ClassVar[str] = "quantify"

    dataset: str = _reference(ResourceKind.DATASET)
    function: str = _reference(ResourceKind.FUNCTION)
    attributes: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1
    use_ranks_only: bool = False

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a quantify request needs a dataset name")
        if not self.function:
            raise ServiceError("a quantify request needs a scoring-function name")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))


@dataclass(frozen=True)
class AuditRequest(ServiceRequest):
    """Audit a whole marketplace (or one of its jobs): the AUDITOR scenario."""

    kind: ClassVar[str] = "audit"

    marketplace: str = _reference(ResourceKind.MARKETPLACE)
    job: Optional[str] = None
    attributes: Optional[Tuple[str, ...]] = None
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.marketplace:
            raise ServiceError("an audit request needs a marketplace name")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))


@dataclass(frozen=True)
class CompareRequest(ServiceRequest):
    """Quantify several scoring functions over one dataset and rank them."""

    kind: ClassVar[str] = "compare"

    dataset: str = _reference(ResourceKind.DATASET)
    functions: Tuple[str, ...] = _reference(ResourceKind.FUNCTION, many=True)
    attributes: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a compare request needs a dataset name")
        object.__setattr__(self, "functions", tuple(str(f) for f in self.functions))
        if len(self.functions) < 1:
            raise ServiceError("a compare request needs at least one scoring function")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))


@dataclass(frozen=True)
class BreakdownRequest(ServiceRequest):
    """Per-attribute unfairness: how unfair is each first-level split alone?

    The first step of QUANTIFY ranks protected attributes by how unfair the
    single-attribute partitioning of the whole population is; this request
    serves that ranking directly (the "which attribute drives the bias"
    question an auditor asks before running the full search).
    """

    kind: ClassVar[str] = "breakdown"

    dataset: str = _reference(ResourceKind.DATASET)
    function: str = _reference(ResourceKind.FUNCTION)
    attributes: Optional[Tuple[str, ...]] = None
    min_partition_size: int = 1
    use_ranks_only: bool = False

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a breakdown request needs a dataset name")
        if not self.function:
            raise ServiceError("a breakdown request needs a scoring-function name")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))


#: Points of an automatic sweep when a request does not say.
DEFAULT_SWEEP_STEPS = 5


@dataclass(frozen=True)
class SweepRequest(ServiceRequest):
    """Weight sweep over a linear scoring function (the JOB-OWNER core loop).

    Either an explicit list of weight vectors (``weights``) or an automatic
    ``steps``-point sweep over the base function's attributes.  An explicit
    vector fully specifies a variant's weights (normalized server-side;
    attributes it omits get weight 0 — vectors are *not* merged into the
    base function's weights).  ``steps`` is unused when ``weights`` is
    given, so it is pinned to :data:`DEFAULT_SWEEP_STEPS` there: two such
    requests differing only in ``steps`` are equal and share a cache key.
    The service evaluates every point with one materialized scoring pass per
    vector, shared between the summary statistics, the QUANTIFY search and
    the unfairness breakdown via the score-store pool.
    """

    kind: ClassVar[str] = "sweep"

    dataset: str = _reference(ResourceKind.DATASET)
    function: str = _reference(ResourceKind.FUNCTION)
    steps: int = DEFAULT_SWEEP_STEPS
    weights: Optional[Tuple[WeightVector, ...]] = None
    attributes: Optional[Tuple[str, ...]] = None
    max_depth: Optional[int] = None
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.dataset:
            raise ServiceError("a sweep request needs a dataset name")
        if not self.function:
            raise ServiceError("a sweep request needs a scoring-function name")
        object.__setattr__(self, "weights", _normalise_weight_vectors(self.weights))
        if self.weights is not None and not self.weights:
            raise ServiceError("a sweep request with explicit weights needs at least one vector")
        if self.weights is not None:
            object.__setattr__(self, "steps", DEFAULT_SWEEP_STEPS)
        if self.weights is None and self.steps < 2:
            raise ServiceError(f"an automatic sweep needs at least 2 steps, got {self.steps}")
        object.__setattr__(self, "attributes", _optional_str_tuple(self.attributes))

    @property
    def weight_maps(self) -> Optional[Tuple[Dict[str, float], ...]]:
        """The explicit weight vectors as plain dicts (None for automatic)."""
        if self.weights is None:
            return None
        return tuple(dict(vector) for vector in self.weights)


@dataclass(frozen=True)
class EndUserRequest(ServiceRequest):
    """The END-USER scenario: one group, one job, several marketplaces."""

    kind: ClassVar[str] = "end_user"

    group: Tuple[Tuple[str, object], ...] = _required(())
    marketplaces: Tuple[str, ...] = _reference(ResourceKind.MARKETPLACE, many=True)
    job: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", _normalise_group(self.group))
        if not self.group:
            raise ServiceError(
                "an end-user request needs at least one protected-attribute value"
            )
        object.__setattr__(
            self, "marketplaces", tuple(str(m) for m in self.marketplaces)
        )
        if not self.marketplaces:
            raise ServiceError("an end-user request needs at least one marketplace name")
        if not self.job:
            raise ServiceError("an end-user request needs a job title")

    @property
    def group_map(self) -> Dict[str, object]:
        """The group as a plain ``{attribute: value}`` dict."""
        return dict(self.group)


@dataclass(frozen=True)
class JobOwnerRequest(ServiceRequest):
    """The JOB-OWNER scenario: sweep one job's weights and recommend a variant."""

    kind: ClassVar[str] = "job_owner"

    marketplace: str = _reference(ResourceKind.MARKETPLACE)
    job: str = _required("")
    sweep_steps: int = DEFAULT_SWEEP_STEPS
    min_partition_size: int = 1

    def __post_init__(self) -> None:
        if not self.marketplace:
            raise ServiceError("a job-owner request needs a marketplace name")
        if not self.job:
            raise ServiceError("a job-owner request needs a job title")
        if self.sweep_steps < 2:
            raise ServiceError(
                f"a job-owner sweep needs at least 2 steps, got {self.sweep_steps}"
            )


#: The one list of request kinds (``kind`` -> class).  The HTTP endpoints,
#: the service's payload dispatch and the routing references derive from it.
REQUEST_KINDS: Dict[str, Type[ServiceRequest]] = {
    request_type.kind: request_type
    for request_type in (
        QuantifyRequest,
        AuditRequest,
        CompareRequest,
        BreakdownRequest,
        SweepRequest,
        EndUserRequest,
        JobOwnerRequest,
    )
}

#: Every wire field that names catalog resources, over all kinds:
#: ``field name -> (resource kind, holds a list of names)``.
REFERENCE_FIELDS: Dict[str, Tuple[ResourceKind, bool]] = {
    spec.name: (spec.reference, spec.many)
    for request_type in REQUEST_KINDS.values()
    for spec in wire_fields(request_type)
    if spec.reference is not None
}


def request_from_json(payload: Mapping[str, object]) -> ServiceRequest:
    """Rebuild any request from its ``to_json`` form (dispatch on ``kind``).

    Payloads without a ``protocol`` field are treated as protocol v1 (the
    pre-envelope wire format, whose fields are a strict subset of v2), so
    existing batch files keep executing unchanged.  Protocol versions this
    build does not speak are rejected up front.
    """
    try:
        raw_protocol = payload.get("protocol", 1)
    except AttributeError:
        raise ServiceError("a request payload must be a JSON object") from None
    try:
        protocol = int(raw_protocol)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ServiceError(f"invalid protocol version {raw_protocol!r}") from None
    if protocol not in _SUPPORTED_PROTOCOLS:
        raise ServiceError(
            f"unsupported protocol version {protocol}; this server speaks "
            f"{', '.join(str(v) for v in _SUPPORTED_PROTOCOLS)}"
        )
    try:
        kind = payload["kind"]
    except (KeyError, TypeError):
        raise ServiceError(
            "a request payload needs a 'kind' field "
            f"(one of {', '.join(sorted(REQUEST_KINDS))})"
        ) from None
    try:
        request_type = REQUEST_KINDS[str(kind)]
    except KeyError:
        raise ServiceError(
            f"unknown request kind {kind!r}; known kinds: "
            f"{', '.join(sorted(REQUEST_KINDS))}"
        ) from None
    return request_type.from_json(payload)


@dataclass(frozen=True)
class ServiceResult:
    """Uniform response envelope for every request kind.

    ``payload`` is a plain-JSON tree (only dicts/lists/strings/numbers/bools/
    None), so a result can be shipped over any transport.  ``canonical()``
    serialises the semantic content — kind, key, payload and (when present)
    the error — with sorted keys, so two results are byte-comparable
    regardless of whether they were computed, cached, or ran in a batch.

    Protocol v2 additions: ``protocol`` stamps the envelope version, and a
    failed request carries a structured ``error`` (``{"code", "message"}``,
    with the code derived from the library's exception hierarchy, e.g.
    ``"service"`` for a :class:`~repro.errors.ServiceError`) instead of only
    raising server-side — a batch with one bad request still returns a
    result per request.

    ``store_stats`` is serving metadata: a snapshot of the service's
    score-store pool (materialized scoring passes, histogram hits/misses,
    store reuse) taken when the response was assembled, so clients can watch
    the compute-once layer work without a separate monitoring call.

    ``timings`` is per-request observability metadata (:mod:`repro.obs`):
    the request's trace id plus a phase breakdown in milliseconds
    (``key_ms``, ``compute_ms``, ``score_ms``, ``cache_ms``, ``route_ms``
    when served through the shard router).  Like ``elapsed_s`` and
    ``store_stats`` it is *excluded* from ``canonical()`` — two envelopes
    with different timings still compare byte-identical on semantic content.
    """

    kind: str
    key: str
    payload: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    elapsed_s: float = 0.0
    store_stats: Optional[Dict[str, Any]] = None
    timings: Optional[Dict[str, Any]] = None
    protocol: int = PROTOCOL_VERSION
    error: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True when the request was served successfully."""
        return self.error is None

    def raise_for_error(self) -> "ServiceResult":
        """Raise :class:`~repro.errors.ServiceError` for an error result."""
        if self.error is not None:
            raise ServiceError(
                f"{self.kind} request failed "
                f"[{self.error.get('code', 'error')}]: {self.error.get('message', '')}"
            )
        return self

    def canonical(self) -> str:
        """Deterministic JSON of the semantic content (excludes metadata)."""
        content: Dict[str, object] = {
            "kind": self.kind, "key": self.key, "payload": self.payload,
        }
        if self.error is not None:
            content["error"] = self.error
        return json.dumps(content, sort_keys=True)

    def to_json(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "kind": self.kind,
            "key": self.key,
            "payload": self.payload,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
            "store_stats": self.store_stats,
            "timings": self.timings,
            "error": self.error,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ServiceResult":
        store_stats = payload.get("store_stats")
        timings = payload.get("timings")
        error = payload.get("error")
        return cls(
            kind=str(payload["kind"]),
            key=str(payload["key"]),
            payload=dict(payload.get("payload", {})),  # type: ignore[arg-type]
            cached=bool(payload.get("cached", False)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),  # type: ignore[arg-type]
            store_stats=(
                None if store_stats is None else dict(store_stats)  # type: ignore[arg-type]
            ),
            timings=None if timings is None else dict(timings),  # type: ignore[arg-type]
            protocol=int(payload.get("protocol", 1)),  # type: ignore[arg-type]
            error=None if error is None else dict(error),  # type: ignore[arg-type]
        )
