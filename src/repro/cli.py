"""Command-line interface for the FaiRank reproduction.

Six subcommands cover the common entry points without writing any Python:

* ``fairank table1`` — print the paper's Table 1 example and its scores;
* ``fairank quantify`` — run the QUANTIFY search on a CSV file (or the
  built-in example), under any formulation / transparency setting;
* ``fairank audit`` — run the AUDITOR scenario on a simulated platform crawl;
* ``fairank experiments`` — regenerate one or all of the E1–E12 experiment
  tables recorded in EXPERIMENTS.md;
* ``fairank serve-batch`` — execute a JSON file of protocol-v1 or -v2
  service requests (all request kinds) through ``execute_many`` (serial,
  each distinct request computed once) and report per-request latency,
  errors, and cache statistics;
* ``fairank catalog`` — list the resources (name, kind, fingerprint prefix,
  rows/arity) of the registry ``serve-batch`` requests resolve against,
  optionally check which resources a batch file references, and optionally
  write the registry to a catalog snapshot file (``--save``);
* ``fairank serve`` — boot the HTTP front end (wire protocol v2 over REST)
  on the built-in registry or on a catalog snapshot (``--catalog``); with
  ``--workers N`` (N > 1) a fingerprint-routing shard router is booted over
  N snapshot-identical worker processes (``repro.shard``), and SIGINT /
  SIGTERM always shut the listener down cleanly, draining in-flight
  requests first.

The CLI is a thin veneer over the public API; everything it does can be done
programmatically (see README.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.core.formulations import Formulation
from repro.core.quantify import quantify
from repro.core.unfairness import unfairness_breakdown
from repro.data.loaders import TABLE1_WEIGHTS, load_csv, load_example_table1
from repro.errors import FaiRankError
from repro.marketplace.crawler import MarketplaceCrawler, available_platforms
from repro.roles.auditor import Auditor
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import RankDerivedScorer
from repro.service.jobs import REQUEST_KINDS
from repro.session.render import render_tree

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="fairank",
        description="Explore fairness of ranking in online job marketplaces "
                    "(FaiRank reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # -- table1 ----------------------------------------------------------------
    subparsers.add_parser("table1", help="print the paper's Table 1 example dataset and scores")

    # -- quantify --------------------------------------------------------------
    quantify_parser = subparsers.add_parser(
        "quantify", help="run the QUANTIFY search on a dataset"
    )
    quantify_parser.add_argument("--csv",
                                 help="CSV file with a header row (default: built-in Table 1)")
    quantify_parser.add_argument("--protected", nargs="+",
                                 help="protected attribute columns (required with --csv)")
    quantify_parser.add_argument("--observed", nargs="+",
                                 help="observed (skill) attribute columns (required with --csv)")
    quantify_parser.add_argument("--weight", action="append", default=[],
                                 metavar="ATTR=W",
                                 help="scoring weight, e.g. --weight Rating=0.7 (repeatable; "
                                      "default: equal weights over all observed attributes)")
    # Objective/aggregation/distance names are deliberately *not* argparse
    # choices: Formulation.from_names is the one validation path (shared with
    # the wire protocol and the experiments), so every layer reports a bad
    # name with the same error message.
    quantify_parser.add_argument("--objective", default="most_unfair",
                                 help="most_unfair or least_unfair")
    quantify_parser.add_argument("--aggregation", default="average",
                                 help="average, maximum, minimum or variance")
    quantify_parser.add_argument("--distance", default="emd")
    quantify_parser.add_argument("--bins", type=int, default=5)
    quantify_parser.add_argument("--attributes", nargs="+",
                                 help="protected attributes the search may split on (default: all)")
    quantify_parser.add_argument("--min-partition-size", type=int, default=1)
    quantify_parser.add_argument("--max-depth", type=int, default=None)
    quantify_parser.add_argument("--ranks-only", action="store_true",
                                 help="analyse the induced ranking instead of the scores "
                                      "(function-opaque setting)")
    quantify_parser.add_argument("--no-tree", action="store_true",
                                 help="print only the summary, not the partitioning tree")

    # -- audit -----------------------------------------------------------------
    audit_parser = subparsers.add_parser(
        "audit", help="AUDITOR scenario on a simulated marketplace crawl"
    )
    audit_parser.add_argument("--platform", default="taskrabbit-sim",
                              choices=list(available_platforms()))
    audit_parser.add_argument("--workers", type=int, default=300)
    audit_parser.add_argument("--seed", type=int, default=11)
    audit_parser.add_argument("--min-partition-size", type=int, default=5)
    audit_parser.add_argument("--attributes", nargs="+", default=None)

    # -- experiments -------------------------------------------------------------
    experiments_parser = subparsers.add_parser(
        "experiments", help="regenerate the E1-E12 experiment tables"
    )
    experiments_parser.add_argument("ids", nargs="*",
                                    help="experiment ids to run (default: all), e.g. E1 E4")

    # -- serve-batch -------------------------------------------------------------
    serve_parser = subparsers.add_parser(
        "serve-batch",
        help="execute a JSON file of service requests (serially, with dedup)",
    )
    serve_parser.add_argument(
        "requests",
        help="JSON file: a list of request objects, or {'requests': [...]} "
             f"(each object needs a 'kind': one of {', '.join(REQUEST_KINDS)}; "
             "protocol v1 files still execute)")
    serve_parser.add_argument("--repeat", type=int, default=1,
                              help="run the batch N times (later runs exercise the warm cache)")
    _add_registry_arguments(serve_parser)

    # -- catalog ----------------------------------------------------------------
    catalog_parser = subparsers.add_parser(
        "catalog",
        help="list the resources serve-batch requests resolve against",
    )
    catalog_parser.add_argument(
        "--requests", default=None,
        help="optional JSON batch file: additionally report whether each "
             "request's resources resolve in this registry")
    catalog_parser.add_argument(
        "--save", default=None, metavar="PATH",
        help="write this registry to a catalog snapshot JSON file "
             "(bootable via 'fairank serve --catalog PATH')")
    catalog_parser.add_argument(
        "--columnar", action="store_true",
        help="with --save: persist every dataset as raw column files under "
             "PATH.columns/<fingerprint>/ instead of embedded JSON rows; "
             "'fairank serve --catalog PATH' then memory-maps the arrays "
             "(recommended beyond ~100k rows)")
    _add_registry_arguments(catalog_parser)

    # -- lint -------------------------------------------------------------------
    lint_parser = subparsers.add_parser(
        "lint",
        help="run the repo-aware static analysis rule pack (see docs/ANALYSIS.md)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to analyse "
             "(default: src scripts benchmarks examples)")
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text", dest="output_format",
        help="findings output: one 'file:line:col RULEID message' line each "
             "(text) or a machine-readable report (json)")
    lint_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file masking tolerated legacy findings "
             "(default: .fairlint-baseline.json when it exists)")
    lint_parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to exactly mask the current findings "
             "(the ratchet: run after fixing legacy violations)")
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rule catalogue and exit")

    # -- serve ------------------------------------------------------------------
    http_parser = subparsers.add_parser(
        "serve",
        help="serve wire protocol v2 over HTTP (one POST endpoint per request kind)",
    )
    http_parser.add_argument("--host", default="127.0.0.1",
                             help="bind address (default: 127.0.0.1)")
    http_parser.add_argument("--port", type=int, default=8080,
                             help="bind port; 0 picks a free ephemeral port")
    http_parser.add_argument(
        "--catalog", default=None, metavar="PATH", dest="catalog_path",
        help="boot the deployment registry from a catalog snapshot file "
             "(default: the same built-in registry as serve-batch)")
    http_parser.add_argument(
        "--workers", type=int, default=1,
        help="number of worker processes; >1 boots a fingerprint-routing "
             "shard router over N snapshot-booted workers (default: 1, "
             "single-process serving)")
    http_parser.add_argument("--verbose", action="store_true",
                             help="emit a structured JSON log event per request "
                                  "to stderr")
    http_parser.add_argument("--slow-ms", type=float, default=None,
                             help="log any request at or above this many "
                                  "milliseconds even without --verbose")
    http_parser.add_argument(
        "--warm-dir", default=None, metavar="PATH", dest="warm_dir",
        help="warm-start bundle directory: reload hot state "
             "(materialized score stores, cached results) saved by the "
             "previous graceful shutdown, and save it again on this one; "
             "stale or foreign bundles are skipped and computed cold")
    _add_registry_arguments(http_parser)

    return parser


def _add_registry_arguments(parser: argparse.ArgumentParser) -> None:
    """Options describing the built-in registry serve-batch/catalog expose."""
    parser.add_argument("--market-size", type=int, default=200,
                        help="size of the built-in crowdsourcing-sim marketplace")
    parser.add_argument("--synthetic", type=int, action="append", default=[],
                        metavar="SIZE",
                        help="also register a synthetic-SIZE dataset (repeatable)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for the built-in synthetic workloads")


def _parse_weights(raw_weights: Sequence[str]) -> dict:
    weights = {}
    for entry in raw_weights:
        if "=" not in entry:
            raise FaiRankError(f"invalid --weight {entry!r}; expected ATTR=WEIGHT")
        attribute, _, value = entry.partition("=")
        try:
            weights[attribute.strip()] = float(value)
        except ValueError:
            raise FaiRankError(f"invalid weight value in {entry!r}") from None
    return weights


def _load_dataset(args: argparse.Namespace):
    if args.csv:
        if not args.protected or not args.observed:
            raise FaiRankError("--csv requires --protected and --observed column lists")
        return load_csv(args.csv, protected_names=args.protected, observed_names=args.observed)
    return load_example_table1()


def _build_function(args: argparse.Namespace, dataset) -> LinearScoringFunction:
    weights = _parse_weights(args.weight)
    if not weights:
        if args.csv:
            weights = {name: 1.0 for name in dataset.schema.observed_names}
        else:
            weights = dict(TABLE1_WEIGHTS)
    function = LinearScoringFunction(weights, name="cli-scoring-function")
    function.validate_against(dataset.schema)
    return function


def _cmd_table1(_: argparse.Namespace) -> int:
    dataset = load_example_table1()
    function = LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
    scores = function.score_map(dataset)
    header = ("uid", "Gender", "Country", "Language", "Ethnicity",
              "Language Test", "Rating", "f(w)")
    print(" | ".join(header))
    for individual in dataset:
        print(" | ".join(str(x) for x in (
            individual.uid, individual["Gender"], individual["Country"],
            individual["Language"], individual["Ethnicity"],
            individual["Language Test"], individual["Rating"],
            round(scores[individual.uid], 3),
        )))
    return 0


def _cmd_quantify(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    function = _build_function(args, dataset)
    formulation = Formulation.from_names(
        objective=args.objective,
        aggregation=args.aggregation,
        distance=args.distance,
        bins=args.bins,
    )
    effective_function = function
    if args.ranks_only:
        effective_function = RankDerivedScorer(function.rank(dataset), name="cli-from-ranks")
    result = quantify(
        dataset,
        effective_function,
        formulation=formulation,
        attributes=args.attributes,
        max_depth=args.max_depth,
        min_partition_size=args.min_partition_size,
    )
    breakdown = unfairness_breakdown(result.partitioning, effective_function, formulation)
    print(f"dataset: {dataset.name} ({len(dataset)} individuals)")
    print(f"scoring function: {function.describe()}"
          + (" [analysed via ranks only]" if args.ranks_only else ""))
    print(f"formulation: {formulation.describe()}")
    print(f"unfairness: {result.unfairness:.4f} over {len(result.partitioning)} groups")
    print(f"most favored:  {breakdown.most_favored}")
    print(f"least favored: {breakdown.least_favored}")
    if not args.no_tree:
        print()
        print(render_tree(result.tree, effective_function, formulation))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    marketplace = MarketplaceCrawler(seed=args.seed).crawl(args.platform, workers=args.workers)
    auditor = Auditor(attributes=args.attributes, min_partition_size=args.min_partition_size)
    report = auditor.audit_marketplace(marketplace)
    print(marketplace.describe())
    print()
    print(report.render())
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.harness import run_all, run_experiment

    if args.ids:
        outcomes = [run_experiment(experiment_id) for experiment_id in args.ids]
    else:
        outcomes = run_all()
    for outcome in outcomes:
        print(outcome.render())
        print()
    return 0


def _serve_batch_service(args: argparse.Namespace):
    """The default catalogue ``serve-batch`` and ``catalog`` requests resolve against."""
    from repro.core.formulations import LEAST_UNFAIR_AVG_EMD, MOST_UNFAIR_AVG_EMD
    from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
    from repro.service import FairnessService

    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_function(
        LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    )
    service.register_marketplace(
        crowdsourcing_marketplace(size=args.market_size, seed=args.seed)
    )
    for size in dict.fromkeys(args.synthetic):
        service.register_dataset(
            synthetic_population(size=size, seed=args.seed), name=f"synthetic-{size}"
        )
    service.register_formulation(MOST_UNFAIR_AVG_EMD)
    service.register_formulation(LEAST_UNFAIR_AVG_EMD)
    return service


def _load_requests_file(path: str):
    """Parse a batch file into request objects (shared by serve-batch/catalog)."""
    from repro.service import request_from_json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise FaiRankError(f"cannot read requests file: {error}") from None
    except json.JSONDecodeError as error:
        raise FaiRankError(f"requests file is not valid JSON: {error}") from None
    entries = document.get("requests") if isinstance(document, dict) else document
    if not isinstance(entries, list) or not entries:
        raise FaiRankError(
            "requests file must contain a non-empty list of request objects "
            "(either top-level or under a 'requests' key)"
        )
    return [request_from_json(entry) for entry in entries]


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    requests = _load_requests_file(args.requests)
    if args.repeat < 1:
        raise FaiRankError(f"--repeat must be >= 1, got {args.repeat}")

    service = _serve_batch_service(args)
    errors = 0
    for round_number in range(1, args.repeat + 1):
        results = service.execute_many(requests)
        if args.repeat > 1:
            print(f"-- round {round_number} --")
        print(f"{'#':>3}  {'kind':<9} {'key':<12} {'served':<6} {'latency':>10}")
        for index, result in enumerate(results, start=1):
            served = "hit" if result.cached else ("error" if result.error else "miss")
            print(
                f"{index:>3}  {result.kind:<9} {result.key[:12]:<12} "
                f"{served:<6} {result.elapsed_s * 1000:>8.2f}ms"
            )
        # Errors are never cached, so every round fails the same requests;
        # the summary reports per-request counts, not a per-round total.
        errors = 0
        for index, result in enumerate(results, start=1):
            if result.error is not None:
                errors += 1
                print(f"  ! #{index} [{result.error['code']}] {result.error['message']}")
    print(f"executed {len(requests)} request(s) per round, {args.repeat} round(s), serial")
    if errors:
        print(f"errors: {errors} request(s) returned an error envelope")
    print(f"cache: {service.cache_stats.describe()}")
    print(f"score store: {service.store_stats.describe()}")
    # Partial failure is visible to scripts: 0 only when every request served.
    return 1 if errors else 0


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.roles.report import format_table

    service = _serve_batch_service(args)
    listing = service.catalog.describe()
    headers = ["name", "kind", "fingerprint", "details"]
    rows = []
    for entry in listing["resources"]:
        details = ", ".join(
            f"{key}={value}"
            for key, value in entry.items()
            if key not in ("name", "kind", "fingerprint", "frozen")
        )
        if entry["frozen"]:
            details = f"{details}, frozen" if details else "frozen"
        rows.append([entry["name"], entry["kind"], entry["fingerprint"][:12], details])
    print(format_table(headers, rows))
    counts = ", ".join(f"{count} {kind}(s)" for kind, count in listing["counts"].items())
    print(f"\n{counts}")

    if args.requests:
        requests = _load_requests_file(args.requests)
        print(f"\nbatch file {args.requests}: {len(requests)} request(s)")
        from repro.catalog import ResourceKind
        from repro.shard.routing import request_references

        unresolved = 0
        for index, request in enumerate(requests, start=1):
            # The router's extractor: the resolution check and fingerprint
            # routing agree on which fields name catalogue resources.
            for kind, reference in request_references(request.to_json()):
                try:
                    service.catalog.get(ResourceKind(kind), reference)
                except FaiRankError as error:
                    unresolved += 1
                    print(f"  ! #{index} ({request.kind}) does not resolve: {error}")
        if unresolved:
            print(f"{unresolved} reference(s) are missing from this registry")
        else:
            print("every request resolves against this registry")

    if args.save:
        service.catalog.save(
            args.save, columnar_datasets=True if args.columnar else None
        )
        print(f"\ncatalog snapshot written to {args.save}")
        if args.columnar:
            print(f"column sidecars written to {args.save}.columns/")
    return 0


def _serve_service(args: argparse.Namespace):
    """The service a ``fairank serve`` process answers from."""
    if args.catalog_path:
        from repro.catalog import Catalog
        from repro.service import FairnessService

        return FairnessService(catalog=Catalog.load(args.catalog_path))
    return _serve_batch_service(args)


def _install_shutdown_handlers(server) -> "threading.Event":
    """Make SIGINT/SIGTERM stop ``serve_forever`` instead of killing the process.

    The handler only *requests* the stop (``shutdown()`` must run off the
    serving thread, and must not run before ``serve_forever`` does); the
    caller then closes the listening socket with ``server_close()``, which
    drains in-flight requests before returning.  Outside the main thread
    (in-process tests) signal installation is skipped silently.
    """
    import signal
    import threading

    stop_requested = threading.Event()

    def _handle(signum, frame) -> None:
        if stop_requested.is_set():
            return
        stop_requested.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, _handle)
        # Signal handlers can only be installed on the main thread; serving
        # from a helper thread (tests) simply runs without them.
        # fairlint: disable=FL007 -- intentional no-handler fallback
        except ValueError:  # pragma: no cover - only hit off the main thread
            pass
    return stop_requested


def _announce_serving(args: argparse.Namespace, counts, base_url: str,
                      workers: int = 1) -> None:
    rendered = ", ".join(f"{count} {kind}(s)" for kind, count in counts.items())
    source = args.catalog_path or "built-in registry"
    print(f"catalog ({source}): {rendered}")
    if workers > 1:
        print(f"shard router: {workers} worker process(es), "
              "fingerprint-routed")
    # The port line is machine-readable on purpose: with --port 0 it is the
    # only way a supervising script learns the bound port.
    print(f"serving fairness protocol v2 on {base_url} (Ctrl-C to stop)",
          flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise FaiRankError(f"--workers must be >= 1, got {args.workers}")
    if args.workers > 1:
        return _cmd_serve_sharded(args)

    from repro.server import FairnessHTTPServer

    service = _serve_service(args)
    if args.warm_dir:
        from pathlib import Path

        # Load after the catalogue is populated: warm components are
        # verified against the live resources by content fingerprint.
        service.warm_dir = Path(args.warm_dir)
        service.load_warm_state()
    server = FairnessHTTPServer(
        service,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
        slow_ms=args.slow_ms,
    )
    # Handlers first, announcement second: a supervisor may signal the
    # instant it has parsed the port line off stdout.
    stop_requested = _install_shutdown_handlers(server)
    _announce_serving(args, service.catalog.describe()["counts"], server.base_url)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        stop_requested.set()
    finally:
        # server_close() drains: it joins in-flight handler threads, so a
        # SIGTERM'd server finishes the responses it already accepted.
        server.server_close()
    # After the drain, so the bundle includes the final requests' state.
    service.save_warm_state()
    print("shutting down")
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    """``fairank serve --workers N``: a fingerprint-routed worker fleet."""
    import tempfile
    from pathlib import Path

    from repro.shard import ShardRouter, WorkerPool
    from repro.snapshot import snapshot_fingerprints

    temporary_snapshot = None
    if args.catalog_path:
        snapshot_path = Path(args.catalog_path)
    else:
        # The built-in registry must be identical in every worker, so it is
        # materialised once as a snapshot the workers boot from.
        service = _serve_batch_service(args)
        handle = tempfile.NamedTemporaryFile(
            prefix="fairank-catalog-", suffix=".json", delete=False
        )
        handle.close()
        temporary_snapshot = Path(handle.name)
        service.catalog.save(temporary_snapshot)
        snapshot_path = temporary_snapshot

    try:
        # Validates the snapshot up front (missing file, truncated JSON, bad
        # version) and gives the router its shared-nothing routing index.
        fingerprints = snapshot_fingerprints(snapshot_path)
        counts: dict = {}
        for kind, _name in fingerprints:
            counts[kind] = counts.get(kind, 0) + 1

        # Per-worker flags ride along on every worker's command line.
        worker_arguments: list = []
        if args.verbose:
            worker_arguments += ["--verbose"]
        if args.slow_ms is not None:
            worker_arguments += ["--slow-ms", str(args.slow_ms)]
        pool = WorkerPool(
            snapshot_path, args.workers, host=args.host,
            worker_arguments=worker_arguments,
            warm_dir=Path(args.warm_dir) if args.warm_dir else None,
        )
        pool.start()
        try:
            router = ShardRouter(
                pool,
                host=args.host,
                port=args.port,
                fingerprints=fingerprints,
                verbose=args.verbose,
                slow_ms=args.slow_ms,
            )
            stop_requested = _install_shutdown_handlers(router)
            _announce_serving(args, counts, router.base_url, workers=args.workers)
            try:
                router.serve_forever()
            except KeyboardInterrupt:
                stop_requested.set()
            finally:
                router.server_close()
            print("shutting down")
        finally:
            pool.stop()
    finally:
        if temporary_snapshot is not None:
            temporary_snapshot.unlink(missing_ok=True)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static analysis rule pack; exit 1 on any gate failure."""
    from pathlib import Path

    from repro.analysis import (
        DEFAULT_BASELINE_NAME,
        DEFAULT_TARGETS,
        Baseline,
        all_rules,
        run_analysis,
        update_baseline,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id} {rule.name} [{rule.severity}]")
            print(f"    {rule.description}")
        return 0

    root = Path.cwd()
    targets = [Path(path) for path in args.paths] if args.paths else [
        root / target for target in DEFAULT_TARGETS if (root / target).exists()
    ]
    missing = [str(target) for target in targets if not target.exists()]
    if missing:
        raise FaiRankError(f"lint paths do not exist: {', '.join(missing)}")

    baseline_path = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE_NAME
    baseline = None
    if baseline_path.is_file():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as error:
            raise FaiRankError(f"cannot load baseline: {error}") from None
    elif args.baseline and not args.update_baseline:
        raise FaiRankError(f"baseline file {baseline_path} does not exist")

    report = run_analysis(targets, root=root, baseline=baseline)
    if args.update_baseline:
        updated = update_baseline(report, baseline_path)
        print(
            f"wrote {baseline_path} masking {updated.total} finding(s) "
            f"in {len(updated.entries)} file(s)"
        )
        return 0
    print(report.render(args.output_format))
    return 1 if report.failed else 0


_COMMANDS = {
    "table1": _cmd_table1,
    "quantify": _cmd_quantify,
    "audit": _cmd_audit,
    "experiments": _cmd_experiments,
    "serve-batch": _cmd_serve_batch,
    "catalog": _cmd_catalog,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FaiRankError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
