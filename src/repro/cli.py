"""Command-line interface: ``python -m repro <command>`` or ``repro <command>``.

Commands:

* ``analyze <workload> [--setting LABEL] [--subset P1,P2] [--all-settings]
  [--json]`` — robustness report for a built-in workload (``smallbank``,
  ``tpcc``, ``auction``, ``auction(N)``), a workload file, or a subset of
  its programs; ``--all-settings`` reports all four Section 7.2 settings;
* ``subsets <workload> [--setting LABEL] [--method type-II|type-I]
  [--json]`` — maximal robust subsets;
* ``graph <workload> [--setting LABEL] [--format dot|text] [--witness]
  [--json]`` — summary graph rendering (``--witness`` highlights the
  dangerous cycle and its anchored statements in the DOT output);
* ``advise <workload> [--setting LABEL] [--max-edits N] [--method ...]
  [--json]`` — the repair advisor: minimal edit sets (statement
  promotions, foreign-key annotations, program splits) that make a
  non-robust workload robust, each candidate verified incrementally
  against the session's cached edge blocks.  Exit code 0 when the
  workload is already robust or a repair was found, 1 when no repair
  exists within ``--max-edits``;
* ``watch <workload> [--steps N] [--seed S] [--oracle-every K] [--json]``
  — monitor the workload under seeded churn: a deterministic
  :class:`~repro.churn.MutationEngine` edit stream applied incrementally
  to a warm session, re-verdicting every step; ``--oracle-every K``
  cross-checks each K-th step against a cold from-scratch analyzer.  Exit
  code 0 when every oracle checkpoint matched, 1 on any mismatch;
* ``cache save <workload> <path> [--setting LABEL] [--all-settings]`` /
  ``cache load <path> [--workload W]`` — persist a session's unfoldings and
  pairwise edge blocks to disk and restore them in a fresh process (no edge
  block is recomputed after a load);
* ``serve [--host H] [--port P] [--capacity N] [--cache-dir DIR]`` — the
  long-running HTTP service: an LRU pool of warm analyzer sessions behind
  ``POST /v1/analyze``, ``/v1/subsets``, ``/v1/graph``, ``/v1/advise``,
  ``/v1/watch``, ``/v1/grid``, ``/v1/batch``, ``GET /v1/stats`` and the
  ``GET /v1/healthz`` readiness probe; shuts down cleanly on Ctrl-C *or*
  SIGTERM; ``--cache-dir`` warms the pool from ``cache save`` artifacts
  at startup, spills LRU-evicted sessions back to the same directory
  (rehydrated on the next miss — see the ``spills``/``rehydrations``
  counters of ``/v1/stats``), and spills the whole warm pool on shutdown;
* ``experiments
  <table2|figure6|figure7|figure8|false-negatives|repairs|all>`` —
  regenerate the paper's evaluation artifacts (one shared warm-session
  service drives all grids, so e.g. Figure 7 reuses Figure 6's blocks).

All commands accept any workload source :meth:`Workload.resolve` does.
``--json`` emits machine-readable reports
(``RobustnessReport.to_dict`` shapes) for embedding in CI pipelines.
``analyze``/``subsets``/``graph``/``advise``/``watch`` build their request
with :func:`~repro.service.requests.parse_request`, the reader behind
``POST /v1/<command>``: their flags carry no defaults of their own, so the
request dataclasses supply every default and bound, the CLI refuses
exactly what HTTP refuses, and CLI ``--json`` output and ``/v1/*``
responses are byte-identical.  Errors (unknown workloads, missing files,
malformed workload text, requests the service refuses) print to stderr
and exit with status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Sequence

from repro.analysis.session import Analyzer
from repro.detection.subsets import METHODS
from repro.errors import ReproError
from repro.faults import FaultPlan, install_plan
from repro.experiments.false_negatives import run_false_negatives
from repro.obs import log as obs_log
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import run_figure8
from repro.experiments.repairs import run_repairs
from repro.experiments.table2 import run_table2
from repro.service.core import AnalysisService
from repro.service.http import make_server, run_server
from repro.service.workers import reuseport_supported, serve_workers
from repro.service.requests import (
    MAX_WATCH_STEPS,
    REQUEST_KINDS,
    AdviseRequest,
    AnalyzeRequest,
    WatchRequest,
    json_bytes,
    parse_request,
)
from repro.summary.settings import ALL_SETTINGS, ATTR_DEP_FK, AnalysisSettings
from repro.viz import to_dot, to_text


def _settings_from(label: str | None) -> AnalysisSettings:
    if label is None:
        return ATTR_DEP_FK
    return AnalysisSettings.from_label(label)


def _request(args: argparse.Namespace):
    """The command's service request, validated exactly as ``POST
    /v1/<command>`` validates its body.  Request flags carry no argparse
    defaults: a flag left out arrives as ``None``, which the request
    class replaces with its own field default."""
    names = {field.name for field in fields(REQUEST_KINDS[args.command])}
    return parse_request(
        args.command,
        {name: value for name, value in vars(args).items() if name in names},
    )


def _add_setting_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--setting",
        choices=[settings.label for settings in ALL_SETTINGS],
        help=f"analysis setting (default: {ATTR_DEP_FK.label!r})",
    )


def _write_json(body: bytes) -> None:
    """Print one encoded JSON body (it ends in its own newline)."""
    sys.stdout.write(body.decode("utf-8"))


def _add_json_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    service = AnalysisService()
    request = _request(args)
    if args.json:
        # The bytes POST /v1/analyze answers.
        _write_json(request.encoded(service))
        return 0
    payload = request.payload(service) if request.profile else None
    result = service.analyze(request)  # after a payload: reuses the cached report
    if not request.all_settings:
        print(f"workload: {result.workload}")
    print(result.describe())
    if payload is not None:
        print("profile:")
        _print_spans(payload.get("profile", []), indent=1)
    return 0


def _print_spans(nodes: list, indent: int) -> None:
    """Render a span tree as indented `stage  duration` lines."""
    for node in nodes:
        print(
            f"{'  ' * indent}{node['stage']:<18} {node['duration_ms']:>9.3f} ms"
        )
        _print_spans(node.get("children", []), indent + 1)


def _print_result(args: argparse.Namespace, result) -> None:
    """A request's result as its JSON payload (``--json``; the bytes
    ``POST /v1/<command>`` answers) or as its human-readable report."""
    if args.json:
        _write_json(json_bytes(result.to_dict()))
    else:
        print(result.describe())


def _cmd_subsets(args: argparse.Namespace) -> int:
    _print_result(args, _request(args).execute(AnalysisService()))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    service = AnalysisService()
    request = _request(args)
    if args.json:
        _write_json(request.encoded(service))
        return 0
    name, graph = service.graph(request)
    witness = None
    if args.witness:
        report = service.analyze(
            AnalyzeRequest(workload=request.workload, setting=request.setting)
        )
        witness = report.witness or report.type1_witness
    if args.format == "dot":
        print(to_dot(graph, name=name, witness=witness))
    else:
        print(to_text(graph))
        if witness is not None:
            print(witness.describe())
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    report = _request(args).execute(AnalysisService())
    _print_result(args, report)
    return 0 if report.repaired else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    trace = _request(args).execute(AnalysisService())
    _print_result(args, trace)
    return 0 if trace.converged else 1


def _cmd_cache_save(args: argparse.Namespace) -> int:
    session = Analyzer(args.workload)
    settings_list = ALL_SETTINGS if args.all_settings else [_settings_from(args.setting)]
    for settings in settings_list:
        session.ensure_blocks(settings)
    session.save_cache(args.path)
    info = session.cache_info()
    print(
        f"saved session cache for {session.workload.name!r} to {args.path}: "
        f"{info['unfolded_programs']} unfolded programs, "
        f"{info['edge_blocks']} edge blocks "
        f"({', '.join(settings.label for settings in settings_list)})"
    )
    return 0


def _cmd_cache_load(args: argparse.Namespace) -> int:
    source = args.workload
    if source is None:
        data = json.loads(Path(args.path).read_text())
        source = data.get("source")
        if source is None:
            print(
                f"repro: error: {args.path} does not record a workload source; "
                "pass --workload",
                file=sys.stderr,
            )
            return 2
    session = Analyzer(source)
    session.load_cache(args.path)
    report = session.analyze(_settings_from(args.setting))
    info = session.cache_info()
    if args.json:
        _write_json(json_bytes({**report.to_dict(), "cache_info": info}))
        return 0
    print(f"workload: {report.workload}  (cache: {args.path})")
    print(report.describe())
    print(
        f"cache: {info['blocks_loaded']} edge blocks loaded, "
        f"{info['block_computations']} computed"
    )
    return 0


_SERVE_ROUTES = (
    "POST /v1/analyze /v1/subsets /v1/graph /v1/advise /v1/watch "
    "/v1/grid /v1/batch, GET /v1/stats /v1/healthz; "
    "Ctrl-C or SIGTERM to stop"
)


def _cmd_serve(args: argparse.Namespace) -> int:
    # Before the fork: --workers children inherit the configured logger,
    # so every worker emits JSON records at the same level.
    obs_log.configure(args.log_level)
    if args.workers < 1:
        raise ReproError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1 and not reuseport_supported():
        raise ReproError(
            "--workers needs SO_REUSEPORT, which this platform lacks; "
            "run a single-process serve instead"
        )
    if args.fault_plan:
        # Explicit flag beats the REPRO_FAULTS environment variable.  With
        # --workers the plan installs *before* the fork, so every worker
        # inherits an independent injector with the same seeded plan.
        install_plan(FaultPlan.from_source(args.fault_plan))

    def build_service() -> AnalysisService:
        # --cache-dir is both tiers: warm the pool from existing artifacts
        # at startup, and spill LRU-evicted sessions back to the same
        # directory.  Runs once per worker process under --workers.
        service = AnalysisService(
            capacity=args.capacity,
            cache_dir=args.cache_dir,
            deadline_seconds=args.deadline,
            max_inflight=args.max_inflight,
        )
        if args.cache_dir and Path(args.cache_dir).is_dir():
            warmed = service.warm_from_cache_dir(args.cache_dir)
            print(
                f"warmed {len(warmed)} session(s) from {args.cache_dir}"
                + (f": {', '.join(warmed)}" if warmed else "")
            )
        return service

    def shutdown(service: AnalysisService) -> None:
        # Clean shutdown (Ctrl-C or SIGTERM): spill the warm pool so the
        # next `repro serve --cache-dir` starts where this one stopped.
        if args.cache_dir:
            saved = service.save_to_cache_dir(args.cache_dir)
            print(f"spilled {len(saved)} warm session(s) to {args.cache_dir}")

    if args.workers > 1:
        def announce(host: str, port: int, ready: int) -> None:
            print(
                f"repro service listening on http://{host}:{port} "
                f"({ready}/{args.workers} worker(s); {_SERVE_ROUTES})",
                flush=True,
            )

        return serve_workers(
            args.workers,
            args.host,
            args.port,
            build_service,
            announce=announce,
            on_shutdown=shutdown,
        )

    service = build_service()
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"repro service listening on http://{host}:{port} ({_SERVE_ROUTES})",
        flush=True,
    )
    run_server(server, handle_sigterm=True)
    shutdown(service)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    # One warm-session service behind every grid: `experiments all` shares
    # unfoldings and pairwise edge blocks across tables and figures (Figure 7
    # reuses every block Figure 6 computed).
    service = AnalysisService()
    runners = {
        "table2": lambda: run_table2(service=service).to_text(),
        "figure6": lambda: run_figure6(service).to_text(),
        "figure7": lambda: run_figure7(service).to_text(),
        "figure8": lambda: run_figure8(
            scales=args.scales or (1, 2, 4, 8, 12, 16, 24, 32),
            repetitions=args.repetitions,
            service=service,
        ).to_text(),
        "false-negatives": lambda: run_false_negatives(service=service).to_text(),
        "repairs": lambda: run_repairs(
            service=service, max_edits=args.max_edits
        ).to_text(),
    }
    names = list(runners) if args.which == "all" else [args.which]
    for index, name in enumerate(names):
        if index:
            print()
        print(runners[name]())
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Robustness against MVRC for transaction programs "
        "(reproduction of Vandevoort et al., EDBT 2023)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="robustness report for a workload")
    analyze.add_argument(
        "workload", help="smallbank | tpcc | auction | auction(N) | path to a workload file"
    )
    analyze.add_argument(
        "--subset",
        type=lambda text: [name.strip() for name in text.split(",")],
        help="comma-separated program names",
    )
    analyze.add_argument(
        "--all-settings",
        action="store_true",
        help="analyze under all four Section 7.2 settings",
    )
    analyze.add_argument(
        "--profile",
        action="store_true",
        help="collect per-stage spans (resolve/unfold/pack/sweep/assemble/"
        "detect) and echo the span tree with the report",
    )
    _add_setting_argument(analyze)
    _add_json_argument(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    subsets = subparsers.add_parser("subsets", help="maximal robust subsets")
    subsets.add_argument("workload")
    subsets.add_argument("--method", choices=METHODS)
    _add_setting_argument(subsets)
    _add_json_argument(subsets)
    subsets.set_defaults(func=_cmd_subsets)

    graph = subparsers.add_parser("graph", help="render the summary graph")
    graph.add_argument("workload")
    graph.add_argument("--format", choices=["dot", "text"], default="text")
    graph.add_argument(
        "--witness",
        action="store_true",
        help="highlight the dangerous cycle (if any) and its anchored statements",
    )
    _add_setting_argument(graph)
    _add_json_argument(graph)
    graph.set_defaults(func=_cmd_graph)

    advise = subparsers.add_parser(
        "advise", help="search for minimal edits making a workload robust"
    )
    advise.add_argument("workload")
    advise.add_argument(
        "--max-edits",
        type=int,
        metavar="N",
        help="largest edit-set size to explore "
        f"(default: {AdviseRequest.max_edits})",
    )
    advise.add_argument("--method", choices=METHODS)
    _add_setting_argument(advise)
    _add_json_argument(advise)
    advise.set_defaults(func=_cmd_advise)

    watch = subparsers.add_parser(
        "watch", help="monitor a workload under seeded churn"
    )
    watch.add_argument("workload")
    watch.add_argument(
        "--steps",
        type=int,
        metavar="N",
        help="number of seeded edit steps to monitor "
        f"(default: {WatchRequest.steps}; at most {MAX_WATCH_STEPS})",
    )
    watch.add_argument(
        "--seed",
        type=int,
        metavar="S",
        help="mutation-engine seed; the same (workload, seed) replays the "
        f"identical edit sequence (default: {WatchRequest.seed})",
    )
    watch.add_argument(
        "--oracle-every",
        type=int,
        metavar="K",
        help="cross-check every K-th step against a cold from-scratch "
        f"analyzer (default: {WatchRequest.oracle_every} = never); exit "
        "code 1 on any mismatch",
    )
    _add_setting_argument(watch)
    _add_json_argument(watch)
    watch.set_defaults(func=_cmd_watch)

    cache = subparsers.add_parser(
        "cache", help="persist and restore session caches (edge blocks)"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_save = cache_sub.add_parser(
        "save", help="build a session's edge blocks and save them to a file"
    )
    cache_save.add_argument("workload")
    cache_save.add_argument("path", help="destination cache file")
    cache_save.add_argument(
        "--all-settings",
        action="store_true",
        help="cache blocks for all four Section 7.2 settings",
    )
    _add_setting_argument(cache_save)
    cache_save.set_defaults(func=_cmd_cache_save)
    cache_load = cache_sub.add_parser(
        "load", help="restore a saved cache and analyze without recomputation"
    )
    cache_load.add_argument("path", help="cache file written by 'cache save'")
    cache_load.add_argument(
        "--workload",
        help="workload source (default: the source recorded in the cache)",
    )
    _add_setting_argument(cache_load)
    _add_json_argument(cache_load)
    cache_load.set_defaults(func=_cmd_cache_load)

    serve = subparsers.add_parser(
        "serve", help="run the long-running HTTP analysis service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8000, help="bind port (0 picks a free one)"
    )
    serve.add_argument(
        "--capacity",
        type=int,
        default=8,
        metavar="N",
        help="max warm analyzer sessions kept in the LRU pool",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="warm the session pool from 'repro cache save' artifacts at startup",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="per-request deadline; expiries answer 504 deadline_exceeded",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        metavar="N",
        help="bound concurrent requests; excess load answers 503 + Retry-After",
    )
    serve.add_argument(
        "--fault-plan",
        metavar="JSON|PATH",
        help="install a deterministic fault-injection plan (inline JSON or "
        "a plan file; overrides REPRO_FAULTS) — chaos testing only",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fork N SO_REUSEPORT worker processes sharing the bind address "
        "(each with its own session pool and fault injector; SIGTERM "
        "drains all of them)",
    )
    serve.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        metavar="LEVEL",
        help="structured JSON log level (debug|info|warning|error; "
        "default from REPRO_LOG, else info) — one JSON object per line "
        "on stderr, including per-request access logs",
    )
    serve.set_defaults(func=_cmd_serve)

    experiments = subparsers.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "which",
        choices=[
            "table2", "figure6", "figure7", "figure8", "false-negatives",
            "repairs", "all",
        ],
    )
    experiments.add_argument(
        "--scales", type=int, nargs="+", help="Auction(n) scaling factors for figure8"
    )
    experiments.add_argument("--repetitions", type=int, default=10)
    experiments.add_argument(
        "--max-edits",
        type=int,
        default=3,
        metavar="N",
        help="edit budget for the repairs experiment (default: 3)",
    )
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, ValueError, OSError) as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
