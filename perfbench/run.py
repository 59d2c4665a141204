"""FaiRank serving benchmark: closed-loop HTTP load against ``fairank serve``.

Run from the repository root::

    python3 perfbench/run.py --workload warm-direct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --self-check                      # names vs BENCHMARK.json
    python3 perfbench/run.py --steadiness 10 --workload all    # spread report

Each run generates its inputs from ``--seed`` (a catalog snapshot and a
request stream), boots the server from that snapshot, measures for
``--seconds`` seconds and checks every response it is required to check
against ``FairnessService.execute`` on the same snapshot in-process.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run instead.  Every metric is
printed by name with its unit; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every checked response was correct.

Workloads (all closed loops: an analyst waits for each answer):

* ``warm-direct`` - single-process server, 2 keep-alive connections cycling
  the 8-request mix of all seven kinds, warmed during set-up so every timed
  request is a cache hit: the time is transport, key, cache hit, copy and
  encode.
* ``warm-routed`` - the same traffic through ``--workers 2`` (router plus
  two workers); only the router hop differs from ``warm-direct``.
* ``explore-100k`` - one analyst (1 connection) exploring a row-built
  100k-row population with distinct quantify / breakdown / compare /
  single-point sweep requests and about 1 revisit in 4: the time is the
  cold compute path, and set-up carries the snapshot load and fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"

# The benchmark's own modules import ``repro`` only inside functions, so a
# checkout without sources still reaches main()'s check and fails cleanly.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs, layers, loadgen  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SELF_TIME_LAYERS,
    benchmark_declaration,
)
from perfbench.serving import Server  # noqa: E402
from perfbench.tracing import Recorder  # noqa: E402

#: explore-100k: share of distinct requests whose responses are compared
#: with the in-process reference, and the most references computed per run.
EXPLORE_SAMPLE_RATE = 0.2
EXPLORE_SAMPLE_CAP = 24
#: explore-100k: distinct requests replayed in-process by the traced run.
EXPLORE_REPLAY = 16
#: Breakdown requests of the explore stream timed by the shape probes.
EXPLORE_PROBES = 3
#: Integration steps of the Beta CDF behind every reported percentile.
PERCENTILE_GRID = 200_000


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    connections: int
    warm: bool
    #: Server boots per run; ``setup_s`` is their median.  Loading and
    #: fingerprinting the 100k population took 1.8 to 2.9s across twelve
    #: boots of one snapshot, so explore-100k boots most.
    setup_repeats: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("warm-direct", workers=1, connections=2, warm=True, setup_repeats=5),
        Workload("warm-routed", workers=2, connections=2, warm=True, setup_repeats=5),
        Workload("explore-100k", workers=1, connections=1, warm=False, setup_repeats=7),
    )
}


@dataclass
class Inputs:
    """Everything generated from the seed, plus the in-process reference."""

    snapshot: Path
    requests: list
    orders: List[Sequence[int]]
    starts: List[int]
    reference: object  # FairnessService over Catalog.load(snapshot)
    fingerprint_s: float
    snapshot_load_s: float
    codes_s: float
    sample: set = field(default_factory=set)
    expected: Dict[int, str] = field(default_factory=dict)

    def streams(self):
        return [
            loadgen.Stream(order=order, position=start)
            for order, start in zip(self.orders, self.starts)
        ]


def _connections(workload: Workload) -> int:
    return max(1, min(workload.connections, os.cpu_count() or 1))


def prepare(workload: Workload, seed: int) -> Inputs:
    from repro import Catalog, FairnessService, request_from_json

    snapshot = WORKDIR / f"{workload.name}-seed{seed}-{os.getpid()}.json"
    connections = _connections(workload)
    if workload.warm:
        fingerprint_s = inputs.build_warm_snapshot(seed, snapshot)
        requests = inputs.warm_cycle()
        orders = [range(len(requests))] * connections
        starts = inputs.warm_offsets(seed, connections)
        largest = inputs.WARM_DATASET
    else:
        categorical, ordinal, fingerprint_s = inputs.build_explore_snapshot(seed, snapshot)
        requests, order = inputs.explore_stream(seed, categorical, ordinal)
        orders, starts = [order], [0]
        largest = inputs.EXPLORE_DATASET
    started = time.perf_counter()
    catalog = Catalog.load(snapshot)
    snapshot_load_s = time.perf_counter() - started
    reference = FairnessService(catalog=catalog)
    dataset = reference.dataset(largest)
    started = time.perf_counter()
    for attribute in dataset.schema.protected_names:
        dataset.codes(attribute)
    codes_s = time.perf_counter() - started
    prepared = Inputs(
        snapshot=snapshot, requests=requests, orders=orders, starts=starts,
        reference=reference, fingerprint_s=fingerprint_s,
        snapshot_load_s=snapshot_load_s, codes_s=codes_s,
    )
    if workload.warm:
        # Every warm response is checked; the reference is computed here,
        # before any server is timed.
        prepared.expected = {
            index: reference.execute(request_from_json(request.wire)).canonical()
            for index, request in enumerate(requests)
        }
    else:
        rng = random.Random(f"sample-{seed}")
        prepared.sample = {
            index for index in range(len(requests)) if rng.random() < EXPLORE_SAMPLE_RATE
        }
    return prepared


class Checker:
    """Checks buffered responses between load slices, off the clock."""

    def __init__(self, inputs: Inputs, recorder=None) -> None:
        self.inputs = inputs
        self.recorder = recorder
        self.latencies: List[float] = []
        self.transport_ms: List[float] = []
        self.body_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.mismatched = 0
        self.uncached = 0
        self.reasons: Dict[str, int] = {}
        self.pending: Dict[int, List[str]] = {}

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def consume(self, samples) -> None:
        from repro import ServiceResult

        for index, sent, done, status, body, trace_id in samples:
            self.attempted += 1
            self.body_bytes += len(body)
            if status != 200:
                self._fail(f"status {status}")
                continue
            try:
                envelope = json.loads(body)
                result = ServiceResult.from_json(envelope)
            except (ValueError, KeyError, TypeError):
                self._fail("unparseable envelope")
                continue
            if result.error is not None:
                self._fail(f"error envelope {result.error.get('code')}")
                continue
            expected = self.inputs.expected.get(index)
            if expected is not None:
                if result.canonical() != expected:
                    self.mismatched += 1
                    self._fail("canonical mismatch")
                    continue
                self.uncached += not result.cached
            elif index in self.inputs.sample:
                self.pending.setdefault(index, []).append(result.canonical())
            self.latencies.append(done - sent)
            timings = result.timings or {}
            self.transport_ms.append((done - sent) * 1000.0 - float(timings.get("total_ms", 0.0)))
            if self.recorder is not None and trace_id is not None:
                if timings.get("trace_id") != trace_id:
                    self._fail("trace id not echoed")
                self.recorder.round_trip(trace_id, sent, done, timings)

    def finish(self) -> None:
        """Compare the sampled explore responses with in-process references.

        At most ``EXPLORE_SAMPLE_CAP`` requests are checked, spread evenly
        over the order in which the run first sent them, so responses
        computed after the result cache and store pool began evicting are
        checked as well as the opening ones.
        """
        from repro import request_from_json

        sampled = sorted(self.pending)  # distinct indices follow first-sent order
        if len(sampled) > EXPLORE_SAMPLE_CAP:
            last = len(sampled) - 1
            sampled = [
                sampled[round(step * last / (EXPLORE_SAMPLE_CAP - 1))]
                for step in range(EXPLORE_SAMPLE_CAP)
            ]
        for index in sampled:
            request = self.inputs.requests[index]
            expected = self.inputs.reference.execute(request_from_json(request.wire)).canonical()
            for canonical in self.pending[index]:
                if canonical != expected:
                    self.mismatched += 1
                    self._fail("canonical mismatch")
        self.pending.clear()


def _warm_up(port: int, requests) -> None:
    """One pass over the warm cycle so every timed request is a cache hit."""
    connection = loadgen.connect(port)
    try:
        for request in requests:
            status, body = loadgen.exchange(
                connection, request, {"Content-Type": "application/json"}
            )
            if status != 200:
                raise RuntimeError(f"warm-up {request.kind} answered {status}: {body[:200]!r}")
    finally:
        connection.close()


def boot(workload: Workload, inputs: Inputs):
    """Launch, wait until accepting, warm up; returns (server, setup seconds)."""
    server = Server(ROOT, inputs.snapshot, workload.workers, WORKDIR)
    try:
        server.wait_ready()
        if workload.warm:
            _warm_up(server.port, inputs.requests)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.launched


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of the order statistics.

    Latencies that end on the kernel's timer ticks pile up on a few values,
    and a nearest-rank tail percentile of a few hundred samples then jumps
    between them from run to run; weighting the neighbouring order
    statistics cut that spread at p99 from 0.19 to 0.15 on six explore-100k
    seeds (with an earlier request mix).  The Beta CDF is integrated
    numerically, so only numpy is needed.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    size = len(ordered)
    alpha, beta = fraction * (size + 1), (1 - fraction) * (size + 1)
    grid = np.linspace(0.0, 1.0, PERCENTILE_GRID + 1)
    middle = (grid[:-1] + grid[1:]) / 2
    log_density = (alpha - 1) * np.log(middle) + (beta - 1) * np.log1p(-middle)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_density - log_density.max()))))
    weights = np.diff(np.interp(np.arange(size + 1) / size, grid, cdf / cdf[-1]))
    return float(weights @ ordered)


def _load(workload: Workload, inputs: Inputs, server, seconds: float, recorder=None):
    checker = Checker(inputs, recorder)
    streams = inputs.streams()
    try:
        stats = loadgen.closed_loop(
            server.port, inputs.requests, streams, seconds, checker.consume,
            trace_prefix="bench" if recorder is not None else None,
        )
    finally:
        loadgen.close(streams)
    return checker, stats


def _latency_metrics(checker: Checker, stats) -> Dict[str, float]:
    latencies = checker.latencies or [0.0]  # every request failed; the run is not correct
    return {
        "latency_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "latency_p90_ms": _percentile(latencies, 0.90) * 1000.0,
        "latency_p99_ms": _percentile(latencies, 0.99) * 1000.0,
        "throughput_rps": len(checker.latencies) / stats.wall_s,
    }


def end_to_end(workload: Workload, seconds: float, inputs: Inputs):
    setups = []
    server = None
    for attempt in range(workload.setup_repeats):
        server, setup_s = boot(workload, inputs)
        setups.append(setup_s)
        if attempt < workload.setup_repeats - 1:
            server.stop()
    try:
        checker, stats = _load(workload, inputs, server, seconds)
        rss_mb = server.peak_rss_mb()
    finally:
        server.stop()
    checker.finish()
    metrics = _latency_metrics(checker, stats)
    metrics.update({
        "success_rate": 1.0 - checker.failed / max(1, checker.attempted),
        "setup_s": statistics.median(setups),
        "server_rss_mb": rss_mb,
    })
    notes = {
        "latency samples": len(checker.latencies),
        "error_rate": checker.failed / max(1, checker.attempted),
        "setup runs (s)": ", ".join(f"{value:.3f}" for value in setups),
        "load slices": stats.slices,
        "uncached warm responses": checker.uncached,
        "loadgen cpu share": stats.cpu_s / stats.wall_s,
    }
    return checker, metrics, notes


def _gauge(samples, name: str, stat: str) -> float:
    return samples.get((name, (("stat", stat),)), 0.0)


def _hit_ratio(hits: float, misses: float) -> float:
    """Share of lookups that did not miss (1.0 when nothing was looked up)."""
    return 1.0 - misses / (hits + misses) if hits + misses else 1.0


def per_layer(workload: Workload, seed: int, seconds: float, inputs: Inputs):
    """The traced run: untraced and traced load, shape probes, in-process replay.

    The untraced and the traced loop each take half of ``seconds``.
    """
    recorder = Recorder()
    server, _ = boot(workload, inputs)
    try:
        plain, plain_stats = _load(workload, inputs, server, seconds / 2)
    finally:
        server.stop()
    server, _ = boot(workload, inputs)
    try:
        before = server.metrics()
        traced, _ = _load(workload, inputs, server, seconds / 2, recorder)
        after = server.metrics()
    finally:
        server.stop()
    plain.finish()
    traced.finish()

    def delta(name: str, stat: str) -> float:
        return _gauge(after, name, stat) - _gauge(before, name, stat)

    if workload.warm:
        probes = replayed = inputs.requests
    else:
        first_seen = list(dict.fromkeys(inputs.orders[0]))
        replayed = [inputs.requests[index] for index in first_seen[:EXPLORE_REPLAY]]
        probes = [
            inputs.requests[index] for index in first_seen
            if inputs.requests[index].kind == "breakdown"
        ][:EXPLORE_PROBES]
    shapes = layers.probe_shapes(
        ROOT, inputs.snapshot, WORKDIR, probes, workload.workers > 1, recorder
    )
    service = layers.replay_service(inputs.reference.catalog, replayed, recorder)
    core = layers.replay_core(inputs.reference.catalog, replayed, recorder)

    plain_p50 = _percentile(plain.latencies, 0.5)
    round_trips = max(1, len(traced.latencies))
    self_ms = {
        layer: seconds * 1000.0 / round_trips
        for layer, seconds in recorder.self_times().items()
    }
    metrics: Dict[str, float] = {
        "http.transport_p50_ms": _percentile(traced.transport_ms, 0.5),
        "http.response_bytes_mean": traced.body_bytes / max(1, traced.attempted),
        **{key: value for key, value in shapes.items() if not key.startswith("envelope.")},
        **{key: value for key, value in service.items() if not key.startswith("envelope.")},
        "service.cache_hit_ratio": _hit_ratio(
            delta("fairank_cache_stats", "hits"), delta("fairank_cache_stats", "misses")
        ),
        "service.cache_evictions": delta("fairank_cache_stats", "evictions"),
        "service.store_hit_ratio": _hit_ratio(
            delta("fairank_store_pool_stats", "hits"),
            delta("fairank_store_pool_stats", "misses"),
        ),
        "service.store_evictions": delta("fairank_store_pool_stats", "evictions"),
        "catalog.fingerprint_s": inputs.fingerprint_s,
        "catalog.snapshot_load_s": inputs.snapshot_load_s,
        "data.codes_ms": inputs.codes_s * 1000.0,
        **core,
        "loadgen.cpu_share": plain_stats.cpu_s / plain_stats.wall_s,
        "trace.overhead_share": _percentile(traced.latencies, 0.5) / plain_p50,
        **{
            f"self.{layer}_ms": self_ms.get(layer, 0.0) for layer in SELF_TIME_LAYERS
        },
    }
    WORKDIR.mkdir(exist_ok=True)
    trace_path = WORKDIR / f"trace-{workload.name}-seed{seed}.json"
    recorder.write(trace_path, {"workload": workload.name, "seed": seed, "metrics": metrics})
    failed = plain.failed + traced.failed
    attempted = plain.attempted + traced.attempted
    notes = {
        "untraced latency_p50_ms": plain_p50 * 1000.0,
        "traced latency_p50_ms": _percentile(traced.latencies, 0.5) * 1000.0,
        "envelope score_ms p50 (cross-check of core.score_pass_ms)":
            service["envelope.score_ms_p50"],
        "probe envelopes carrying route_ms": int(shapes["envelope.route_ms_samples"]),
        "self time per round trip (ms)": ", ".join(
            f"{layer} {value:.4f}" for layer, value in sorted(self_ms.items())
        ),
        "spans recorded": len(recorder.spans),
        "trace file": str(trace_path.relative_to(ROOT)),
    }
    return failed, attempted, plain.mismatched + traced.mismatched, metrics, notes


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    WORKDIR.mkdir(exist_ok=True)
    inputs = prepare(workload, seed)
    try:
        if trace:
            failed, attempted, mismatched, metrics, notes = per_layer(
                workload, seed, seconds, inputs
            )
            units = {name: spec[0] for name, spec in PER_LAYER.items()}
        else:
            checker, metrics, notes = end_to_end(workload, seconds, inputs)
            failed, attempted, mismatched = checker.failed, checker.attempted, checker.mismatched
            notes["failure reasons"] = checker.reasons or "none"
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        inputs.snapshot.unlink(missing_ok=True)
    print(f"workload {workload.name}  seed {seed}  seconds {seconds:g}  "
          f"trace {int(trace)}  connections {_connections(workload)}")
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>14.4f} {unit}")
    for name, value in notes.items():
        print(f"  # {name}: {value}")
    print(f"  # attempted {attempted}, failed {failed}, canonical mismatches {mismatched}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _subrun(workload: str, seed: int, seconds: float, trace: int) -> Tuple[int, dict, str]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    result = {}
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {}
    return completed.returncode, result, completed.stdout + completed.stderr


def self_check(seconds: float) -> int:
    """Run every workload briefly, both modes; check names and units against BENCHMARK.json."""
    declared = _declared()
    problems = []
    for key, spec in benchmark_declaration().items():
        names = [
            {field: entry.get(field) for field in ("name", "unit", "better")}
            for entry in declared.get(key, [])
        ]
        if names != spec:
            problems.append(f"BENCHMARK.json {key} differs from perfbench/metrics.py")
    if [w["name"] for w in declared.get("workloads", [])] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from perfbench/run.py")
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = _subrun(workload, 1, seconds, trace)
            expected = {entry["name"]: entry["unit"] for entry in declared[key]}
            emitted = {
                name: value.get("unit")
                for name, value in result.get("metrics", {}).items()
            }
            status = "ok"
            if code != 0 or not result.get("correct"):
                status = f"run failed (exit {code})"
                problems.append(f"{workload} trace {trace}: {status}\n{output[-2000:]}")
            elif emitted != expected:
                status = "names/units differ"
                problems.append(
                    f"{workload} trace {trace}: emitted {sorted(emitted.items())} "
                    f"but BENCHMARK.json declares {sorted(expected.items())}"
                )
            print(f"self-check {workload} trace {trace}: {status} "
                  f"({result.get('attempted', 0)} requests)")
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def steadiness(workloads: Sequence[str], runs: int, first_seed: int, seconds: float,
               report: Path) -> int:
    """Run each workload ``runs`` times (seeds first_seed...) and record the spread."""
    declared = {entry["name"]: entry for entry in _declared()["end_to_end"]}
    summary: Dict[str, dict] = {}
    if report.exists():
        summary = json.loads(report.read_text(encoding="utf-8")).get("workloads", {})
    code = 0
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        for seed in range(first_seed, first_seed + runs):
            started = time.monotonic()
            exit_code, result, output = _subrun(workload, seed, seconds, 0)
            if exit_code != 0 or not result.get("correct"):
                print(output, file=sys.stderr)
                code = 1
                continue
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
            ) + f"  ({time.monotonic() - started:.0f}s)", flush=True)
        rows = {}
        for name, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = declared[name]["bound"]
            rows[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "runs": len(series), "values": series,
            }
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            print(f"  {name:<16} median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"spread {spread:.4f}  bound {bound}{flag}")
        summary[workload] = {"seeds": [first_seed, first_seed + runs - 1],
                             "seconds": seconds, "metrics": rows}
    report.write_text(json.dumps({"workloads": summary}, indent=2) + "\n", encoding="utf-8")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run each workload briefly and check the emitted metric "
                             "names against BENCHMARK.json")
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS",
                        help="run each chosen workload RUNS times with seeds "
                             "--seed, --seed+1, ... and write the spread report")
    parser.add_argument("--report", default=str(ROOT / "perfbench" / "steadiness.json"),
                        help="where --steadiness writes its report")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops the servers it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no FaiRank sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else float(_declared()["run_seconds"])
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]

    if args.self_check:
        return self_check(args.seconds if args.seconds is not None else 2.0)
    if args.steadiness:
        return steadiness(chosen, args.steadiness, args.seed, seconds, Path(args.report))
    if len(chosen) == 1:
        return run_one(WORKLOADS[chosen[0]], args.seed, seconds, bool(args.trace))
    code = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        exit_code, result, output = _subrun(workload, args.seed, seconds, args.trace)
        print("\n".join(output.strip().splitlines()[:-1]), flush=True)
        code = code or exit_code
        merged["correct"] = merged["correct"] and bool(result.get("correct"))
        merged["attempted"] += result.get("attempted", 0)
        merged["failed"] += result.get("failed", 0)
        for name, entry in result.get("metrics", {}).items():
            merged["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
