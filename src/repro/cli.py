"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` -- enumerate the reproducible artifacts;
* ``figure <id>`` -- regenerate one artifact and print it;
* ``generate --out corpus.csv`` -- write the calibrated corpus to CSV;
* ``validate <corpus.csv>`` -- lint a corpus for integrity problems;
* ``report --out EXPERIMENTS.md`` -- write the paper-vs-measured report;
* ``sweep <server#>`` -- run a Table II memory x frequency sweep;
* ``run-all --output-dir DIR`` -- render every artifact to files;
  ``--on-error isolate`` quarantines failures instead of aborting,
  ``--retry N``/``--timeout S`` bound each build, and
  ``--inject PLAN.json`` runs the build under a deterministic
  fault-injection plan (see :mod:`repro.core.faults`);
* ``ensemble --seeds N --jobs J`` -- measure the paper's claims rows
  over N seeded corpora (on J worker processes) and print mean/CI
  summaries;
* ``fleet-replay --servers N --steps S`` -- replay a diurnal day over
  a tiled N-server fleet; the engine (columnar, or sharded
  out-of-core for million-server fleets) follows the fleet size;
* ``query <spec.json|{...}>`` -- execute any :mod:`repro.api` request
  given as JSON (inline or ``@file``) and print the result envelope;
* ``serve --port P`` -- run the async query daemon
  (:mod:`repro.serve`) in the foreground; ``--max-inflight``/
  ``--max-queue`` bound admission (beyond them it sheds with 503),
  ``--drain-s`` budgets the SIGTERM graceful drain, and
  ``--breaker-failures``/``--breaker-cooldown-s`` tune the per-spec
  circuit breaker;
* ``checks [paths]`` -- run the domain-aware static analysis
  (determinism, registry, concurrency, parity and dispatch rules);
* ``cache stats|clear`` -- inspect or empty the artifact cache.

Every command is a thin shell over the unified query API: it builds a
frozen :class:`repro.api.QueryRequest`, hands it to
:func:`repro.api.execute`, and prints the result -- as the classic
text rendering by default, or as the full JSON envelope (payload +
provenance) under the global ``--format json``.

The global ``--cache`` option (with optional ``--cache-dir DIR``)
enables the content-addressed artifact cache (default store:
``.repro_cache/``), so e.g. ``python -m repro --cache run-all``
builds once and a repeat invocation is served from disk.

Exit status: 0 on success; 1 when a command reports failures (a
corpus with validation errors, an artifact ``run-all --on-error
isolate`` quarantined, checker findings); 2 on a usage error; and 141
(128 + SIGPIPE, what a shell reports for a tool that signal ended)
when the reader of stdout closed the pipe early, as ``repro list |
head -3`` may, in which case nothing is printed to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.api import (
    ArtifactQuery,
    CacheQuery,
    EnsembleQuery,
    GenerateQuery,
    ListArtifactsQuery,
    QueryContext,
    QueryResult,
    ReplayQuery,
    ReportQuery,
    RunAllQuery,
    SweepQuery,
    ValidateQuery,
    execute,
    request_from_dict,
)
from repro.checks.cli import add_checks_parser, cmd_checks
from repro.core.cache import DEFAULT_CACHE_DIR, ArtifactCache


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Energy Proportional Servers: Where Are We "
            "in 2016?' (ICDCS 2017)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=2016, help="corpus generation seed"
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "enable the content-addressed artifact cache "
            f"(default store: {DEFAULT_CACHE_DIR}/)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache store directory (implies --cache)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="format",
        help=(
            "output rendering: classic terminal text (default) or the "
            "full QueryResult JSON envelope"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="enumerate the reproducible artifacts")

    figure = commands.add_parser("figure", help="regenerate one artifact")
    figure.add_argument("figure_id", help="artifact id, e.g. fig3 or eq2")

    generate = commands.add_parser("generate", help="write the corpus to CSV")
    generate.add_argument("--out", default="corpus.csv", help="output path")

    validate = commands.add_parser(
        "validate", help="lint a corpus CSV for integrity problems"
    )
    validate.add_argument("path", help="corpus CSV to check")

    report = commands.add_parser(
        "report", help="write the paper-vs-measured report"
    )
    report.add_argument("--out", default="EXPERIMENTS.md", help="output path")

    sweep = commands.add_parser(
        "sweep", help="run a Table II memory x frequency sweep"
    )
    sweep.add_argument(
        "server", type=int, choices=(1, 2, 3, 4), help="testbed server number"
    )

    run_all = commands.add_parser(
        "run-all", help="render every artifact to files"
    )
    run_all.add_argument(
        "--output-dir", default="artifacts", help="directory for the renders"
    )
    run_all.add_argument(
        "--report",
        action="store_true",
        help="print per-artifact wall times and cache hits",
    )
    run_all.add_argument(
        "--on-error",
        choices=("raise", "isolate"),
        default="raise",
        help=(
            "failure semantics: 'raise' aborts on the first builder error, "
            "'isolate' quarantines the failing artifact (plus dependents) "
            "and finishes the rest (default: raise)"
        ),
    )
    run_all.add_argument(
        "--retry",
        type=int,
        default=None,
        metavar="N",
        help="total attempts per artifact (deterministic backoff; default 1)",
    )
    run_all.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-artifact wall-clock budget in seconds (default: none)",
    )
    run_all.add_argument(
        "--inject",
        default=None,
        metavar="PLAN.json",
        help="deterministic fault-injection plan to run the build under",
    )

    ensemble = commands.add_parser(
        "ensemble",
        help="across-seed stability of the paper's claims rows",
    )
    ensemble.add_argument(
        "--seeds",
        type=int,
        default=5,
        metavar="N",
        help="ensemble size: N consecutive seeds starting at --seed (default 5)",
    )
    ensemble.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="J",
        help="worker processes for the seeds (default 1 = serial)",
    )
    ensemble.add_argument(
        "--per-seed",
        action="store_true",
        help="also print each claim's per-seed values",
    )

    fleet_replay = commands.add_parser(
        "fleet-replay",
        help="replay a diurnal day over a tiled fleet at scale",
    )
    fleet_replay.add_argument(
        "--servers",
        type=int,
        default=1000,
        metavar="N",
        help="fleet size; the 2016 corpus cohort is tiled to N (default 1000)",
    )
    fleet_replay.add_argument(
        "--steps",
        type=int,
        default=96,
        metavar="S",
        help="trace steps per day (default 96)",
    )
    fleet_replay.add_argument(
        "--policy",
        choices=("ep-aware", "pack-to-full"),
        default="ep-aware",
        help="placement policy to replay (default ep-aware)",
    )
    fleet_replay.add_argument(
        "--power-off-unused",
        action="store_true",
        help="power unused servers off instead of idling them",
    )

    query = commands.add_parser(
        "query",
        help="execute one repro.api request given as JSON",
    )
    query.add_argument(
        "spec",
        help=(
            "the request as a JSON object (e.g. "
            "'{\"family\": \"stats\", \"metric\": \"ep\"}') "
            "or @path/to/spec.json"
        ),
    )

    serve = commands.add_parser(
        "serve", help="run the async query daemon in the foreground"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8631, help="TCP port (default 8631)"
    )
    serve.add_argument(
        "--workers", default="auto", metavar="N",
        help="engine worker processes: an integer, or 'auto' for "
             "cores-1 (default); 0 serves in-thread (bit-identity "
             "fallback: no forked state, single-core compute)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64, metavar="N",
        help="concurrent query executions before queueing (default 64)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=256, metavar="N",
        help="queued queries before shedding with 503 (default 256)",
    )
    serve.add_argument(
        "--drain-s", type=float, default=10.0, metavar="S",
        help="graceful-drain budget on SIGTERM/SIGINT (default 10)",
    )
    serve.add_argument(
        "--breaker-failures", type=int, default=5, metavar="N",
        help="consecutive permanent failures that trip a spec's "
             "circuit breaker (default 5)",
    )
    serve.add_argument(
        "--breaker-cooldown-s", type=float, default=30.0, metavar="S",
        help="how long a tripped spec fails fast before one probe "
             "is allowed (default 30)",
    )

    add_checks_parser(commands)

    cache = commands.add_parser(
        "cache", help="inspect or empty the artifact cache"
    )
    cache.add_argument(
        "action", choices=("stats", "clear"), help="what to do with the store"
    )
    return parser


def _emit(result: QueryResult, fmt: str, out) -> int:
    """Print one result in the requested rendering; returns exit code."""
    if fmt == "json":
        print(result.to_json(), file=out)
    elif result.text:
        print(result.text, file=out)
    return result.exit_code


def _cmd_list(args, context: QueryContext, out) -> int:
    result = execute(ListArtifactsQuery(seed=args.seed), context)
    return _emit(result, args.format, out)


def _cmd_figure(args, context: QueryContext, out) -> int:
    try:
        result = execute(
            ArtifactQuery(seed=args.seed, artifact_id=args.figure_id), context
        )
    except KeyError:
        print(
            f"unknown artifact {args.figure_id!r}; run 'repro list'",
            file=sys.stderr,
        )
        return 2
    return _emit(result, args.format, out)


def _cmd_generate(args, context: QueryContext, out) -> int:
    result = execute(GenerateQuery(seed=args.seed, out=args.out), context)
    return _emit(result, args.format, out)


def _cmd_validate(args, context: QueryContext, out) -> int:
    result = execute(ValidateQuery(path=args.path), context)
    return _emit(result, args.format, out)


def _cmd_report(args, context: QueryContext, out) -> int:
    result = execute(ReportQuery(seed=args.seed, out=args.out), context)
    return _emit(result, args.format, out)


def _cmd_sweep(args, context: QueryContext, out) -> int:
    result = execute(SweepQuery(server=args.server), context)
    return _emit(result, args.format, out)


def _cmd_run_all(args, context: QueryContext, out) -> int:
    result = execute(
        RunAllQuery(
            seed=args.seed,
            output_dir=args.output_dir,
            show_report=args.report,
            on_error=args.on_error,
            retry=args.retry,
            timeout_s=args.timeout,
            inject=args.inject,
            use_cache=args.cache,
            cache_dir=args.cache_dir,
        ),
        context,
    )
    return _emit(result, args.format, out)


def _cmd_ensemble(args, context: QueryContext, out) -> int:
    result = execute(
        EnsembleQuery(
            seed=args.seed,
            seeds=args.seeds,
            jobs=args.jobs,
            per_seed=args.per_seed,
        ),
        context,
    )
    return _emit(result, args.format, out)


def _cmd_fleet_replay(args, context: QueryContext, out) -> int:
    result = execute(
        ReplayQuery(
            seed=args.seed,
            servers=args.servers,
            steps=args.steps,
            policy=args.policy,
            power_off_unused=args.power_off_unused,
        ),
        context,
    )
    return _emit(result, args.format, out)


def _cmd_cache(args, context: QueryContext, out) -> int:
    result = execute(
        CacheQuery(action=args.action, cache_dir=args.cache_dir), context
    )
    return _emit(result, args.format, out)


def _cmd_query(args, context: QueryContext, out) -> int:
    spec = args.spec
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as handle:
            spec = handle.read()
    try:
        payload = json.loads(spec)
        if not isinstance(payload, dict):
            raise ValueError("request spec must be a JSON object")
        request = request_from_dict(payload)
        result = execute(request, context)
    except (ValueError, KeyError) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return 2
    fmt = payload.get("format", args.format)
    return _emit(result, fmt, out)


def _resolve_workers(value: str) -> int:
    """Parse ``--workers``: 'auto' means cores-1, never negative."""
    if value == "auto":
        return max(0, (os.cpu_count() or 1) - 1)
    workers = int(value)
    if workers < 0:
        raise ValueError(f"--workers must be >= 0 or 'auto', got {workers}")
    return workers


def _cmd_serve(args, context: QueryContext, out) -> int:
    from repro.serve.daemon import run_daemon
    from repro.serve.resilience import ServeLimits

    try:
        workers = _resolve_workers(args.workers)
        limits = ServeLimits(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            drain_s=args.drain_s,
            breaker_failures=args.breaker_failures,
            breaker_cooldown_s=args.breaker_cooldown_s,
        )
    except ValueError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    return run_daemon(
        host=args.host,
        port=args.port,
        seed=args.seed,
        cache_dir=args.cache_dir if (args.cache or args.cache_dir) else None,
        out=out,
        limits=limits,
        workers=workers,
    )


_COMMANDS = {
    "list": _cmd_list,
    "figure": _cmd_figure,
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "run-all": _cmd_run_all,
    "ensemble": _cmd_ensemble,
    "fleet-replay": _cmd_fleet_replay,
    "query": _cmd_query,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
}


#: Exit status when stdout's reader closed the pipe (128 + SIGPIPE).
EXIT_BROKEN_PIPE = 141


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = sys.stdout if out is None else out
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args, out)
        out.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        if out is sys.stdout:
            # The interpreter flushes stdout again at exit; point it at
            # devnull so that flush cannot raise a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _dispatch(args, out) -> int:
    if args.command == "checks":
        return cmd_checks(args, out)
    cache = None
    if args.cache or args.cache_dir is not None:
        cache = ArtifactCache(args.cache_dir or DEFAULT_CACHE_DIR)
    context = QueryContext(cache=cache)
    command = _COMMANDS.get(args.command)
    if command is None:
        raise AssertionError(f"unhandled command {args.command!r}")
    return command(args, context, out)
