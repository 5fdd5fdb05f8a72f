"""The typed request/response layer of the analysis service.

Each request class validates one JSON-shaped mapping (:meth:`from_dict`),
executes against an :class:`~repro.service.AnalysisService`
(:meth:`execute`, returning the library's result objects) and serializes
the result to the exact payload the CLI's ``--json`` flag prints
(:meth:`payload`).  The CLI and the HTTP frontend both dispatch through
:func:`parse_request` / :meth:`AnalysisService.handle`, which is what makes
``repro analyze … --json`` and ``POST /v1/analyze`` byte-identical — there
is one serialization path, not two.

Validation is strict: unknown keys, wrong types, unknown settings labels or
methods raise :class:`ServiceError`, whose :attr:`~ServiceError.envelope`
is the machine-readable error shape (and whose CLI behaviour is the
established exit-code-2 semantics — it derives from :class:`ReproError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.detection.subsets import METHODS, SubsetsReport, maximal_subsets
from repro.errors import ReproError
from repro.service.grid import GridResult, GridSpec
from repro.summary.graph import SummaryGraph
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK, AnalysisSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.session import AnalysisMatrix
    from repro.detection.api import RobustnessReport
    from repro.service.core import AnalysisService


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

def _reject_unknown_keys(data: Mapping[str, Any], allowed: tuple[str, ...], kind: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ServiceError(
            f"{kind} request: unknown field(s) {sorted(unknown)!r}; "
            f"expected a subset of {sorted(allowed)!r}"
        )

def _string(data: Mapping[str, Any], key: str, kind: str, *, required: bool = False) -> str | None:
    value = data.get(key)
    if value is None:
        if required:
            raise ServiceError(f"{kind} request: missing required field {key!r}")
        return None
    if not isinstance(value, str):
        raise ServiceError(
            f"{kind} request: field {key!r} must be a string, "
            f"got {type(value).__name__}"
        )
    return value

def _bool(data: Mapping[str, Any], key: str, kind: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ServiceError(
            f"{kind} request: field {key!r} must be a boolean, "
            f"got {type(value).__name__}"
        )
    return value

def _int(data: Mapping[str, Any], key: str, kind: str, default: int) -> int:
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(
            f"{kind} request: field {key!r} must be an integer, "
            f"got {type(value).__name__}"
        )
    return value

def _settings(label: str | None, kind: str) -> AnalysisSettings:
    if label is None:
        return ATTR_DEP_FK
    try:
        return AnalysisSettings.from_label(label)
    except ValueError as error:
        raise ServiceError(f"{kind} request: {error}") from None

def _method(data: Mapping[str, Any], kind: str) -> str:
    method = _string(data, "method", kind) or "type-II"
    if method not in METHODS:
        raise ServiceError(
            f"{kind} request: unknown method {method!r}; "
            f"expected one of {sorted(METHODS)}"
        )
    return method

def _name_list(data: Mapping[str, Any], key: str, kind: str) -> tuple[str, ...] | None:
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise ServiceError(
            f"{kind} request: field {key!r} must be a list of strings, "
            f"got {type(value).__name__}"
        )
    for item in value:
        if not isinstance(item, str):
            raise ServiceError(
                f"{kind} request: field {key!r} must contain only strings, "
                f"got {type(item).__name__}"
            )
    return tuple(value)


@dataclass(frozen=True)
class AnalyzeRequest:
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

    @classmethod
    def from_dict(cls, data: Any) -> "AnalyzeRequest":
        data = _require_mapping(data, f"an {cls.kind} request")
        _reject_unknown_keys(
            data,
            ("workload", "setting", "subset", "all_settings", "profile"),
            cls.kind,
        )
        subset = _name_list(data, "subset", cls.kind)
        if subset == ():
            raise ServiceError(
                f"{cls.kind} request: field 'subset' must name at least one program"
            )
        return cls(
            workload=_string(data, "workload", cls.kind, required=True),
            setting=_string(data, "setting", cls.kind),
            subset=subset,
            all_settings=_bool(data, "all_settings", cls.kind, False),
            profile=_bool(data, "profile", cls.kind, False),
        )

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
class SubsetsRequest:
    """``repro subsets`` / ``POST /v1/subsets``: the maximal robust subsets."""

    workload: str
    setting: str | None = None
    method: str = "type-II"

    kind = "subsets"

    @classmethod
    def from_dict(cls, data: Any) -> "SubsetsRequest":
        data = _require_mapping(data, f"a {cls.kind} request")
        _reject_unknown_keys(data, ("workload", "setting", "method"), cls.kind)
        return cls(
            workload=_string(data, "workload", cls.kind, required=True),
            setting=_string(data, "setting", cls.kind),
            method=_method(data, cls.kind),
        )

    def execute(self, service: "AnalysisService") -> SubsetsReport:
        session = service.session(self.workload)
        settings = _settings(self.setting, self.kind)
        return SubsetsReport(
            workload=session.workload.name,
            settings=settings,
            method=self.method,
            maximal=maximal_subsets(session.robust_subsets(settings, self.method)),
            abbreviations=dict(session.workload.abbreviations),
        )

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        return self.execute(service).to_dict()


@dataclass(frozen=True)
class GraphRequest:
    """``repro graph`` / ``POST /v1/graph``: the full summary graph."""

    workload: str
    setting: str | None = None

    kind = "graph"

    @classmethod
    def from_dict(cls, data: Any) -> "GraphRequest":
        data = _require_mapping(data, f"a {cls.kind} request")
        _reject_unknown_keys(data, ("workload", "setting"), cls.kind)
        return cls(
            workload=_string(data, "workload", cls.kind, required=True),
            setting=_string(data, "setting", cls.kind),
        )

    def execute(self, service: "AnalysisService") -> tuple[str, SummaryGraph]:
        session = service.session(self.workload)
        graph = session.summary_graph(_settings(self.setting, self.kind))
        return session.workload.name, graph

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        name, graph = self.execute(service)
        return {"workload": name, **graph.to_dict()}


@dataclass(frozen=True)
class AdviseRequest:
    """``repro advise`` / ``POST /v1/advise``: minimal repair edit sets
    for a non-robust workload (a :class:`repro.repair.RepairReport`)."""

    workload: str
    setting: str | None = None
    method: str = "type-II"
    max_edits: int = 3

    kind = "advise"

    @classmethod
    def from_dict(cls, data: Any) -> "AdviseRequest":
        data = _require_mapping(data, f"an {cls.kind} request")
        _reject_unknown_keys(
            data, ("workload", "setting", "method", "max_edits"), cls.kind
        )
        max_edits = _int(data, "max_edits", cls.kind, 3)
        if max_edits < 1:
            raise ServiceError(
                f"{cls.kind} request: field 'max_edits' must be >= 1, got {max_edits}"
            )
        return cls(
            workload=_string(data, "workload", cls.kind, required=True),
            setting=_string(data, "setting", cls.kind),
            method=_method(data, cls.kind),
            max_edits=max_edits,
        )

    def execute(self, service: "AnalysisService"):
        session = service.session(self.workload)
        return session.advise(
            _settings(self.setting, self.kind),
            method=self.method,
            max_edits=self.max_edits,
        )

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        return self.execute(service).to_dict()


#: Hard cap on a grid request's ``repetitions`` (each reruns every cell);
#: :class:`~repro.service.grid.GridSpec` itself is uncapped.
MAX_GRID_REPETITIONS = 100


@dataclass(frozen=True)
class GridRequest:
    """``POST /v1/grid``: a declarative workload × settings sweep.

    The JSON face of :class:`~repro.service.grid.GridSpec` — workloads are
    source strings, settings are Figure 6/7 labels (all four when omitted).
    Requests are capped at :data:`MAX_GRID_REPETITIONS` repetitions and
    :data:`MAX_BATCH_ITEMS` workloads.
    """

    workloads: tuple[str, ...]
    settings: tuple[str, ...] | None = None
    task: str = "analyze"
    method: str = "type-II"
    repetitions: int = 1
    warm: bool = True
    include_verdicts: bool = False

    kind = "grid"

    @classmethod
    def from_dict(cls, data: Any) -> "GridRequest":
        data = _require_mapping(data, f"a {cls.kind} request")
        _reject_unknown_keys(
            data,
            ("workloads", "settings", "task", "method", "repetitions", "warm",
             "include_verdicts"),
            cls.kind,
        )
        workloads = _name_list(data, "workloads", cls.kind)
        if not workloads:
            raise ServiceError(
                f"{cls.kind} request: missing required field 'workloads' "
                "(a non-empty list of workload sources)"
            )
        repetitions = _int(data, "repetitions", cls.kind, 1)
        if len(workloads) > MAX_BATCH_ITEMS or repetitions > MAX_GRID_REPETITIONS:
            raise ServiceError(
                f"{cls.kind} request: at most {MAX_BATCH_ITEMS} workloads and "
                f"{MAX_GRID_REPETITIONS} repetitions, got {len(workloads)} and "
                f"{repetitions}"
            )
        return cls(
            workloads=workloads,
            settings=_name_list(data, "settings", cls.kind),
            task=_string(data, "task", cls.kind) or "analyze",
            method=_method(data, cls.kind),
            repetitions=repetitions,
            warm=_bool(data, "warm", cls.kind, True),
            include_verdicts=_bool(data, "include_verdicts", cls.kind, False),
        )

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

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        return self.execute(service).to_dict()


#: Hard cap on steps per watch request: a watch run holds its forked
#: session for the whole edit sequence, so an unbounded ``steps`` would
#: let one request occupy the service indefinitely.
MAX_WATCH_STEPS = 10_000


@dataclass(frozen=True)
class WatchRequest:
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

    @classmethod
    def from_dict(cls, data: Any) -> "WatchRequest":
        data = _require_mapping(data, f"a {cls.kind} request")
        _reject_unknown_keys(
            data, ("workload", "setting", "steps", "seed", "oracle_every"), cls.kind
        )
        steps = _int(data, "steps", cls.kind, 50)
        if not 1 <= steps <= MAX_WATCH_STEPS:
            raise ServiceError(
                f"{cls.kind} request: field 'steps' must be within "
                f"1..{MAX_WATCH_STEPS}, got {steps}"
            )
        oracle_every = _int(data, "oracle_every", cls.kind, 0)
        if oracle_every < 0:
            raise ServiceError(
                f"{cls.kind} request: field 'oracle_every' must be >= 0, "
                f"got {oracle_every}"
            )
        return cls(
            workload=_string(data, "workload", cls.kind, required=True),
            setting=_string(data, "setting", cls.kind),
            steps=steps,
            seed=_int(data, "seed", cls.kind, 0),
            oracle_every=oracle_every,
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

    def payload(self, service: "AnalysisService") -> dict[str, Any]:
        return self.execute(service).to_dict()


#: Hard cap on items per batch request: a single oversized batch would
#: otherwise monopolize the pool for an unbounded stretch (and serve as a
#: trivial request-amplification vector).
MAX_BATCH_ITEMS = 64


@dataclass(frozen=True)
class BatchRequest:
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
    request_cls = REQUEST_KINDS.get(kind)
    if request_cls is None:
        raise ServiceError(
            f"unknown request kind {kind!r}; expected one of {sorted(REQUEST_KINDS)}",
            kind="not_found",
            status=404,
        )
    return request_cls.from_dict(data)
