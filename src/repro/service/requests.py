"""The typed request/response layer of the analysis service.

Each request kind is one frozen dataclass whose fields are its schema:
every name, type and default is declared there once.  One shared
:meth:`~_Request.from_dict` reads a JSON-shaped mapping by the field
annotations (``str``, ``bool``, ``int``, ``tuple[str, ...]``, each optionally
``| None``): unknown keys, wrong types and missing required fields are
refused, an absent or ``null`` field takes its default, and the class's
``_check`` then holds only the bounds (``max_edits >= 1``, the ``steps``
range, the grid caps, a known ``method`` …).  :meth:`execute` runs a request
against an :class:`~repro.service.AnalysisService`, :meth:`payload` turns
the result into its JSON-shaped dict, and :meth:`encoded` into the exact
bytes the CLI's ``--json`` flag prints and ``POST /v1/<kind>`` answers
(:func:`json_bytes` is the one serializer).  A graph's bytes are encoded
once per session memo entry and then served as they are.

The CLI and the HTTP frontend both build requests through
:func:`parse_request`, so ``repro analyze …`` and ``POST /v1/analyze``
accept the same requests and answer the same bytes.  Refusals raise
:class:`ServiceError`, whose :attr:`~ServiceError.envelope` is the
machine-readable error shape (and whose CLI behaviour is the exit-code-2
semantics of :class:`ReproError`).  :class:`BatchRequest` parses only its
envelope; each item is validated when it executes.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import MISSING, dataclass, fields
from functools import cache
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Collection, Mapping, NoReturn

from repro.detection.subsets import METHODS, SubsetsReport
from repro.errors import ReproError
from repro.service.grid import GridResult, GridSpec
from repro.summary.graph import SummaryGraph
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK, AnalysisSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.session import AnalysisMatrix
    from repro.detection.api import RobustnessReport
    from repro.service.core import AnalysisService


def json_bytes(payload: dict[str, Any]) -> bytes:
    """The CLI's ``--json`` bytes: 2-space indent plus ``print``'s newline."""
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


class ServiceError(ReproError):
    """A request the service refuses, as a machine-readable envelope.

    Derives from :class:`ReproError`, so the CLI's established error path
    (print to stderr, exit code 2) applies unchanged; the HTTP frontend
    maps :attr:`status` to the response code and sends :attr:`envelope`
    as the body — malformed requests get this envelope, never a traceback.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: str = "invalid_request",
        status: int = 400,
        retry_after: int | None = None,
    ):
        super().__init__(message)
        self.kind = kind
        self.status = status
        #: Seconds after which a retry may succeed (shed-load responses);
        #: the HTTP frontend also sends it as a ``Retry-After`` header.
        self.retry_after = retry_after

    @classmethod
    def internal(cls, error: BaseException) -> "ServiceError":
        """The envelope for an *unexpected* exception (the defensive
        catch-alls of the HTTP frontend route through here, so a handler
        crash answers a well-formed 500 envelope, never a traceback)."""
        return cls(
            f"internal error: {type(error).__name__}: {error}",
            kind="internal_error",
            status=500,
        )

    @property
    def envelope(self) -> dict[str, Any]:
        """The JSON error body, carrying the CLI's exit-code-2 semantics."""
        error: dict[str, Any] = {
            "type": self.kind,
            "message": str(self),
            "exit_code": 2,
        }
        if self.retry_after is not None:
            error["retry_after"] = self.retry_after
        return {"error": error}


def _require_mapping(data: Any, what: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ServiceError(f"{what} must be a JSON object, got {type(data).__name__}")
    return data

def _reject_unknown_keys(
    data: Mapping[str, Any], allowed: Collection[str], kind: str
) -> None:
    unknown = data.keys() - allowed
    if unknown:
        raise ServiceError(
            f"{kind} request: unknown field(s) {sorted(unknown)!r}; "
            f"expected a subset of {sorted(allowed)!r}"
        )

def _expect(ok: bool, value: Any, key: str, kind: str, must: str) -> Any:
    if not ok:
        raise ServiceError(
            f"{kind} request: field {key!r} must {must}, got {type(value).__name__}"
        )
    return value

def _names(value: Any, key: str, kind: str) -> tuple[str, ...]:
    _expect(isinstance(value, (list, tuple)), value, key, kind, "be a list of strings")
    for item in value:
        _expect(isinstance(item, str), item, key, kind, "contain only strings")
    return tuple(value)

#: The reader of a present, non-null field value per field annotation
#: (``X | None`` reads as ``X``: ``None`` is the default there).
_READERS: dict[str, Callable[[Any, str, str], Any]] = {
    "str": lambda v, key, kind: _expect(isinstance(v, str), v, key, kind, "be a string"),
    "bool": lambda v, key, kind: _expect(isinstance(v, bool), v, key, kind, "be a boolean"),
    "int": lambda v, key, kind: _expect(
        isinstance(v, int) and not isinstance(v, bool), v, key, kind, "be an integer"
    ),
    "tuple[str, ...]": _names,
}


@cache
def _schema(cls: type) -> dict[str, tuple[Callable[[Any, str, str], Any], Any]]:
    """Field name → ``(reader, default)`` of a request class, in declaration
    order, built once per class; ``MISSING`` marks a required field."""
    return {
        field.name: (_READERS[field.type.removesuffix(" | None")], field.default)
        for field in fields(cls)
    }


def _settings(label: str | None, kind: str) -> AnalysisSettings:
    if label is None:
        return ATTR_DEP_FK
    try:
        return AnalysisSettings.from_label(label)
    except ValueError as error:
        raise ServiceError(f"{kind} request: {error}") from None


class _Request:
    """The shared parse, payload and encoding of the request kinds
    (:class:`BatchRequest` parses its own envelope)."""

    kind: ClassVar[str]

    @classmethod
    def from_dict(cls, data: Any):
        """Validate one JSON-shaped mapping into a request (see the module
        docstring for the rules)."""
        kind = cls.kind
        article = "an" if kind[0] in "aeiou" else "a"
        data = _require_mapping(data, f"{article} {kind} request")
        schema = _schema(cls)
        _reject_unknown_keys(data, schema, kind)
        values: dict[str, Any] = {}
        for key, (read, default) in schema.items():
            value = data.get(key)
            if value is not None:
                values[key] = read(value, key, kind)
            elif default is MISSING:
                raise ServiceError(f"{kind} request: missing required field {key!r}")
        request = cls(**values)
        request._check()
        return request

    def _check(self) -> None:
        """Refuse values the field types admit but the service does not."""

    def _refuse(self, detail: str) -> NoReturn:
        raise ServiceError(f"{self.kind} request: {detail}")

    def _check_method(self) -> None:
        if self.method not in METHODS:
            self._refuse(
                f"unknown method {self.method!r}; expected one of {sorted(METHODS)}"
            )

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        return self.execute(service).to_dict()

    def encoded(self, service: "AnalysisService") -> bytes:
        """The response body: :meth:`payload` as :func:`json_bytes`."""
        return json_bytes(self.payload(service))


@dataclass(frozen=True)
class AnalyzeRequest(_Request):
    """``repro analyze`` / ``POST /v1/analyze``: one robustness report
    (or the four-settings matrix with ``all_settings``).

    ``profile=True`` additionally collects the per-stage span tree
    (:mod:`repro.obs.spans`) and echoes it under a ``"profile"`` key in
    the payload; without the flag the payload is byte-identical to what
    it has always been.
    """

    workload: str
    setting: str | None = None
    subset: tuple[str, ...] | None = None
    all_settings: bool = False
    profile: bool = False

    kind = "analyze"

    def _check(self) -> None:
        if self.subset == ():
            self._refuse("field 'subset' must name at least one program")

    def execute(self, service: "AnalysisService") -> "RobustnessReport | AnalysisMatrix":
        session = service.session(self.workload)
        if self.all_settings:
            return session.analyze_matrix(self.subset)
        return session.analyze(_settings(self.setting, self.kind), self.subset)

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        if not self.profile:
            return self.execute(service).to_dict()
        from repro.obs.spans import profile_scope

        with profile_scope() as collector:
            payload = self.execute(service).to_dict()
        payload["profile"] = collector.tree()
        return payload


@dataclass(frozen=True)
class SubsetsRequest(_Request):
    """``repro subsets`` / ``POST /v1/subsets``: the maximal robust subsets."""

    workload: str
    setting: str | None = None
    method: str = "type-II"

    kind = "subsets"

    def _check(self) -> None:
        self._check_method()

    def execute(self, service: "AnalysisService") -> SubsetsReport:
        session = service.session(self.workload)
        settings = _settings(self.setting, self.kind)
        return SubsetsReport(
            workload=session.workload.name,
            settings=settings,
            method=self.method,
            maximal=session.maximal_robust_subsets(settings, self.method),
            abbreviations=dict(session.workload.abbreviations),
        )


@dataclass(frozen=True)
class GraphRequest(_Request):
    """``repro graph`` / ``POST /v1/graph``: the full summary graph."""

    workload: str
    setting: str | None = None

    kind = "graph"

    def execute(self, service: "AnalysisService") -> tuple[str, SummaryGraph]:
        session = service.session(self.workload)
        graph = session.summary_graph(_settings(self.setting, self.kind))
        return session.workload.name, graph

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        name, graph = self.execute(service)
        return {"workload": name, **graph.to_dict()}

    def encoded(self, service: "AnalysisService") -> bytes:
        """The response body, encoded once per memoized graph.

        The bytes live as long as the session's immutable graph object
        (the memo holds it weakly), so an edit that drops the graph from
        the session's memo drops them too, and forks, which share the graph
        objects, share the bytes (edits and forks keep the workload name
        the bytes carry).  Racing first requests may both encode; they
        store equal bytes.
        """
        name, graph = self.execute(service)
        body = _GRAPH_BYTES.get(graph)
        if body is None:
            body = _GRAPH_BYTES[graph] = json_bytes({"workload": name, **graph.to_dict()})
        return body


#: Encoded graph response bodies per live :class:`SummaryGraph`.
_GRAPH_BYTES: "weakref.WeakKeyDictionary[SummaryGraph, bytes]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class AdviseRequest(_Request):
    """``repro advise`` / ``POST /v1/advise``: minimal repair edit sets
    for a non-robust workload (a :class:`repro.repair.RepairReport`)."""

    workload: str
    setting: str | None = None
    method: str = "type-II"
    max_edits: int = 3

    kind = "advise"

    def _check(self) -> None:
        if self.max_edits < 1:
            self._refuse(f"field 'max_edits' must be >= 1, got {self.max_edits}")
        self._check_method()

    def execute(self, service: "AnalysisService"):
        session = service.session(self.workload)
        return session.advise(
            _settings(self.setting, self.kind),
            method=self.method,
            max_edits=self.max_edits,
        )


#: Hard cap on a grid request's ``repetitions`` (each reruns every cell);
#: :class:`~repro.service.grid.GridSpec` itself is uncapped.
MAX_GRID_REPETITIONS = 100


@dataclass(frozen=True)
class GridRequest(_Request):
    """``POST /v1/grid``: a declarative workload × settings sweep.

    The JSON face of :class:`~repro.service.grid.GridSpec` — workloads are
    source strings, settings are Figure 6/7 labels (all four when omitted).
    ``workloads`` must name at least one source.  Requests are capped at
    :data:`MAX_GRID_REPETITIONS` repetitions and :data:`MAX_BATCH_ITEMS`
    workloads.
    """

    workloads: tuple[str, ...] = ()
    settings: tuple[str, ...] | None = None
    task: str = "analyze"
    method: str = "type-II"
    repetitions: int = 1
    warm: bool = True
    include_verdicts: bool = False

    kind = "grid"

    def _check(self) -> None:
        if not self.workloads:
            self._refuse(
                "missing required field 'workloads' "
                "(a non-empty list of workload sources)"
            )
        if (
            len(self.workloads) > MAX_BATCH_ITEMS
            or self.repetitions > MAX_GRID_REPETITIONS
        ):
            self._refuse(
                f"at most {MAX_BATCH_ITEMS} workloads and "
                f"{MAX_GRID_REPETITIONS} repetitions, got {len(self.workloads)} "
                f"and {self.repetitions}"
            )
        self._check_method()

    def spec(self) -> GridSpec:
        settings = (
            ALL_SETTINGS
            if self.settings is None
            else tuple(_settings(label, self.kind) for label in self.settings)
        )
        try:
            return GridSpec(
                workloads=self.workloads,
                settings=settings,
                task=self.task,
                method=self.method,
                repetitions=self.repetitions,
                warm=self.warm,
                include_verdicts=self.include_verdicts,
            )
        except ReproError as error:
            raise ServiceError(f"{self.kind} request: {error}") from None

    def execute(self, service: "AnalysisService") -> GridResult:
        return service.grid(self.spec())


#: Hard cap on steps per watch request: a watch run holds its forked
#: session for the whole edit sequence, so an unbounded ``steps`` would
#: let one request occupy the service indefinitely.
MAX_WATCH_STEPS = 10_000


@dataclass(frozen=True)
class WatchRequest(_Request):
    """``repro watch`` / ``POST /v1/watch``: monitor a workload under
    seeded churn (a :class:`repro.churn.ChurnTrace`).

    The run operates on a *fork* of the pooled session — the warm edge
    blocks are shared copy-on-write via ``seed_from``, but the pooled
    original is never mutated, so concurrent requests against the same
    workload keep seeing the un-churned fingerprint.
    """

    workload: str
    setting: str | None = None
    steps: int = 50
    seed: int = 0
    oracle_every: int = 0

    kind = "watch"

    def _check(self) -> None:
        if not 1 <= self.steps <= MAX_WATCH_STEPS:
            self._refuse(
                f"field 'steps' must be within 1..{MAX_WATCH_STEPS}, "
                f"got {self.steps}"
            )
        if self.oracle_every < 0:
            self._refuse(
                f"field 'oracle_every' must be >= 0, got {self.oracle_every}"
            )

    def execute(self, service: "AnalysisService"):
        from repro.churn.monitor import Monitor

        fork = service.session(self.workload).fork()
        monitor = Monitor(
            session=fork,
            setting=_settings(self.setting, self.kind),
            seed=self.seed,
            source_hint=self.workload,
        )
        trace = monitor.run(self.steps, oracle_every=self.oracle_every)
        service.record_watch(trace)
        return trace


#: Hard cap on items per batch request: a single oversized batch would
#: otherwise monopolize the pool for an unbounded stretch (and serve as a
#: trivial request-amplification vector).
MAX_BATCH_ITEMS = 64


@dataclass(frozen=True)
class BatchRequest(_Request):
    """``POST /v1/batch``: several requests in one round trip.

    Items execute in order against the same warm pool; a failing item
    yields its :class:`ServiceError` envelope in place of a result and the
    remaining items still run.  Batches are capped at
    :data:`MAX_BATCH_ITEMS` items.
    """

    requests: tuple[tuple[str | None, Mapping[str, Any]], ...]

    kind = "batch"

    @classmethod
    def from_dict(cls, data: Any) -> "BatchRequest":
        data = _require_mapping(data, f"a {cls.kind} request")
        _reject_unknown_keys(data, ("requests",), cls.kind)
        items = data.get("requests")
        if not isinstance(items, (list, tuple)) or not items:
            raise ServiceError(
                f"{cls.kind} request: 'requests' must be a non-empty list"
            )
        if len(items) > MAX_BATCH_ITEMS:
            raise ServiceError(
                f"{cls.kind} request: {len(items)} items exceed the batch "
                f"limit of {MAX_BATCH_ITEMS}; split the batch"
            )
        # Only the batch envelope is validated here; each item is validated
        # when it executes, so one malformed item yields one error envelope
        # in the results instead of rejecting its siblings.
        parsed: list[tuple[str, Mapping[str, Any]]] = []
        for index, item in enumerate(items):
            item = _require_mapping(item, f"batch item {index}")
            parsed.append(
                (
                    item.get("kind"),
                    {key: value for key, value in item.items() if key != "kind"},
                )
            )
        return cls(requests=tuple(parsed))

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        results: list[dict[str, Any]] = []
        for kind, body in self.requests:
            try:
                if kind == self.kind:
                    raise ServiceError("batch requests cannot be nested")
                results.append(service.handle(kind, body))
            except ServiceError as error:
                results.append(error.envelope)
        return {"results": results}


#: Request class per dispatch kind (HTTP route tail and CLI command name).
REQUEST_KINDS: dict[str, Any] = {
    AnalyzeRequest.kind: AnalyzeRequest,
    SubsetsRequest.kind: SubsetsRequest,
    GraphRequest.kind: GraphRequest,
    AdviseRequest.kind: AdviseRequest,
    WatchRequest.kind: WatchRequest,
    GridRequest.kind: GridRequest,
    BatchRequest.kind: BatchRequest,
}


def parse_request(kind: str, data: Any):
    """Validate one request mapping into its typed request object."""
    # A batch item's kind may be any JSON value: only strings can name one.
    request_cls = REQUEST_KINDS.get(kind) if isinstance(kind, str) else None
    if request_cls is None:
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of {sorted(REQUEST_KINDS)}",
            kind="not_found",
            status=404,
        )
    return request_cls.from_dict(data)
