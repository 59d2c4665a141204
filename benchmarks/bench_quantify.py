"""QUANTIFY hot path — the score-store scoring path, checked against an oracle.

The score store (:mod:`repro.core.scorestore`) materializes the full
per-(dataset, function) score vector once and derives every partition's
scores, histograms and candidate splits from row indices.  This benchmark
pins the perf trajectory of that layer:

* **store timing + exactness** — on a 10k-row synthetic population,
  QUANTIFY's wall-clock (``store_ms``) is recorded, and its tree,
  unfairness and breakdown must equal the independent reference
  implementation in ``tests/oracle.py`` (labels and sizes exactly, values
  to 1e-12);
* **compute-once** — on the bundled marketplace workload every individual is
  scored exactly once per scoring function;
* **data plane at 100k rows** — validate + cold QUANTIFY over the column
  store (``columnar_ms``) and cold QUANTIFY of a freshly generated
  population (``cold_quantify_s``) are recorded as trajectory; the result
  must equal that of a twin reloaded from ``ColumnStore.save``/``load``
  (memory-mapped);
* **million-row leg** — QUANTIFY a 1M-row population in a fresh
  interpreter; build and quantify wall-clock and peak RSS (``ru_maxrss``)
  are trajectory, and the result must reproduce the committed partition,
  split and unfairness figures.

Every dataset has one backing (a column store), so these legs time that
backing and gate only on exactness: there is no second backing to race.

Results are written to ``BENCH_quantify.json`` at the repository root; CI
uploads the file as a workflow artifact so the trajectory is tracked per
commit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Tuple

from repro.core.formulations import MOST_UNFAIR_AVG_EMD
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness_breakdown
from repro.data.columns import ColumnStore
from repro.data.dataset import Dataset
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.scoring.linear import LinearScoringFunction

from benchmarks.results import REPO_ROOT, write_results
from tests.oracle import Oracle, labels

#: The 10k-row scalability workload (E11's generator, fixed seed).
POPULATION_SIZE = 10_000
SEED = 7
MIN_PARTITION_SIZE = 25
ROUNDS = 5

#: The data-plane leg (validate + cold QUANTIFY at 100k rows).
COLUMNAR_POPULATION = 100_000
COLUMNAR_MIN_PARTITION = 250
COLUMNAR_ROUNDS = 3

#: The million-row leg (one subprocess, peak RSS via ru_maxrss) and the
#: result it must reproduce.
MILLION = 1_000_000
MILLION_EXPECTED = {
    "partitions": 90,
    "splits_evaluated": 517,
    "unfairness": 0.20972661260779354,
}

_RESULTS_PATH = REPO_ROOT / "BENCH_quantify.json"


def _workload():
    dataset = synthetic_population(size=POPULATION_SIZE, seed=SEED)
    function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    return dataset, function


def _timed(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


def _write_results(payload: Dict[str, object]) -> None:
    write_results(_RESULTS_PATH, payload, population=POPULATION_SIZE)


class _CountingFunction(LinearScoringFunction):
    """A linear scorer that counts its scoring passes and rows scored."""

    def __init__(self, base: LinearScoringFunction) -> None:
        self.__dict__.update(base.__dict__)
        self.calls = 0
        self.rows = 0

    def score_dataset(self, dataset):
        self.calls += 1
        self.rows += len(dataset)
        return LinearScoringFunction.score_dataset(self, dataset)


def test_store_speedup_and_exactness(benchmark):
    """Times QUANTIFY through the store; its results must equal the oracle's."""
    dataset, function = _workload()

    def store_run():
        # A fresh store per run: the timing covers one cold search.
        store = ScoreStore(dataset, function)
        return quantify(dataset, function, min_partition_size=MIN_PARTITION_SIZE, store=store)

    store_result = benchmark.pedantic(store_run, rounds=1, iterations=1)

    # Exactness against the independent reference: same tree, same values.
    oracle = Oracle.from_dataset(
        dataset, function.score_dataset(dataset), MOST_UNFAIR_AVG_EMD, MIN_PARTITION_SIZE
    )
    leaves, expected = oracle.quantify(list(dataset.schema.protected_names))
    assert not oracle.ambiguous
    names = labels(leaves)
    assert store_result.partitioning.labels == names
    assert list(store_result.partitioning.sizes) == [len(group) for _, group in leaves]
    assert abs(store_result.unfairness - expected) <= 1e-12
    breakdown = unfairness_breakdown(store_result.partitioning, function)
    assert abs(breakdown.value - expected) <= 1e-12
    histograms = [oracle.histogram(group) for _, group in leaves]
    for i in range(len(leaves)):
        for j in range(i + 1, len(leaves)):
            reference = oracle.emd(histograms[i], histograms[j])
            assert abs(breakdown.pairwise[(names[i], names[j])] - reference) <= 1e-12
    for name, (_, group) in zip(names, leaves):
        mean = sum(oracle.scores[row] for row in group) / len(group)
        assert abs(breakdown.mean_scores[name] - mean) <= 1e-12

    store_elapsed = min(_timed(store_run) for _ in range(ROUNDS))
    print()
    print(f"QUANTIFY {POPULATION_SIZE} rows: store {store_elapsed * 1000:.1f}ms")
    _write_results(
        {
            "quantify_10k": {
                "population": POPULATION_SIZE,
                "min_partition_size": MIN_PARTITION_SIZE,
                "store_ms": round(store_elapsed * 1000, 2),
                "partitions": len(store_result.partitioning),
                "splits_evaluated": store_result.splits_evaluated,
                "unfairness": store_result.unfairness,
            }
        }
    )


def test_data_plane_100k():
    """Validate + cold QUANTIFY over a 100k-row column store, checked exact.

    Every round wraps the store in a fresh ``Dataset`` so per-object memos
    (integer codings, fingerprints) cannot leak between rounds.  The result
    must equal that of a twin reloaded, memory-mapped, from
    ``ColumnStore.save``/``load``.  ``cold_quantify_s`` times QUANTIFY on a
    freshly generated population (generation excluded).
    """
    function = LinearScoringFunction(
        {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
    )
    population = synthetic_population(size=COLUMNAR_POPULATION, seed=SEED)
    schema = population.schema
    store = population.store

    def columnar_pass(backing=store):
        dataset = Dataset.from_store(schema, backing, name="bench-columnar", validate=True)
        return quantify(dataset, function, min_partition_size=COLUMNAR_MIN_PARTITION)

    result = columnar_pass()
    with tempfile.TemporaryDirectory() as directory:
        store.save(directory)
        twin = columnar_pass(ColumnStore.load(directory, mmap=True))
    assert twin.summary() == result.summary()
    assert twin.unfairness == result.unfairness
    assert twin.splits_evaluated == result.splits_evaluated
    assert twin.partitioning.labels == result.partitioning.labels
    assert twin.partitioning.sizes == result.partitioning.sizes

    columnar_elapsed = min(_timed(columnar_pass) for _ in range(COLUMNAR_ROUNDS))
    cold = []
    for _ in range(COLUMNAR_ROUNDS):
        fresh = synthetic_population(size=COLUMNAR_POPULATION, seed=SEED)
        cold.append(
            _timed(lambda: quantify(
                fresh, function, min_partition_size=COLUMNAR_MIN_PARTITION
            ))
        )
    cold_elapsed = min(cold)
    throughput = COLUMNAR_POPULATION / max(columnar_elapsed, 1e-9)

    print()
    print(
        f"data plane {COLUMNAR_POPULATION} rows: validate + quantify "
        f"{columnar_elapsed * 1000:.0f}ms ({throughput:,.0f} rows/s); cold quantify "
        f"of a fresh population {cold_elapsed:.3f}s"
    )
    _write_results(
        {
            "columnar_100k": {
                "population": COLUMNAR_POPULATION,
                "min_partition_size": COLUMNAR_MIN_PARTITION,
                "columnar_ms": round(columnar_elapsed * 1000, 2),
                "columnar_rows_per_s": round(throughput),
                "cold_quantify_s": round(cold_elapsed, 3),
                "identical_to_memmap_twin": True,
            }
        }
    )


#: Runs in a fresh interpreter so ``ru_maxrss`` (the process high-water
#: mark) reflects exactly one population.  Prints one JSON line.
_MILLION_LEG_SCRIPT = """
import json, resource, sys, time
from repro.core.formulations import MOST_UNFAIR_AVG_EMD
from repro.core.quantify import quantify
from repro.experiments.workloads import synthetic_population
from repro.scoring.linear import LinearScoringFunction

size = int(sys.argv[1])
started = time.perf_counter()
dataset = synthetic_population(size=size)
build_s = time.perf_counter() - started
function = LinearScoringFunction(
    {"Language Test": 0.5, "Rating": 0.5}, name="balanced"
)
started = time.perf_counter()
result = quantify(dataset, function, min_partition_size=size // 400)
quantify_s = time.perf_counter() - started
print(json.dumps({
    "build_s": round(build_s, 3),
    "quantify_s": round(quantify_s, 3),
    "rows_per_s": round(size / quantify_s),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "unfairness": result.unfairness,
    "partitions": len(result.partitioning),
    "splits_evaluated": result.splits_evaluated,
}))
"""


def test_million_row_leg():
    """QUANTIFY a million-row population; the result must be the committed one.

    The leg runs in its own interpreter so the kernel's peak-RSS high-water
    mark isolates one population.  Timings and peak RSS are trajectory.
    """
    completed = subprocess.run(
        [sys.executable, "-c", _MILLION_LEG_SCRIPT, str(MILLION)],
        capture_output=True,
        text=True,
        check=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    leg = json.loads(completed.stdout.strip().splitlines()[-1])
    print()
    print(
        f"1M rows: build {leg['build_s']}s  quantify {leg['quantify_s']}s "
        f"({leg['rows_per_s']:,} rows/s)  peak RSS {leg['peak_rss_mb']}MB"
    )
    _write_results({"quantify_1m": {"population": MILLION, "columnar": leg}})
    for key, expected in MILLION_EXPECTED.items():
        assert leg[key] == expected, f"1M leg {key}: {leg[key]!r} != {expected!r}"


def test_marketplace_scores_each_individual_once():
    """On the bundled marketplace, each individual is scored once per function."""
    marketplace = crowdsourcing_marketplace(size=400, seed=SEED)
    passes: List[Dict[str, object]] = []
    for job in marketplace:
        candidates = job.candidates(marketplace.workers)
        counting = _CountingFunction(job.function)
        result = quantify(candidates, counting, min_partition_size=5)
        assert (
            counting.calls == 1
        ), f"{job.title}: expected exactly one scoring pass, saw {counting.calls}"
        assert counting.rows == len(candidates)
        passes.append(
            {
                "job": job.title,
                "candidates": len(candidates),
                "scoring_passes": counting.calls,
                "partitions": len(result.partitioning),
            }
        )
    print()
    for entry in passes:
        print(
            f"{entry['job']:<22} {entry['candidates']:>5} candidates  "
            f"{entry['scoring_passes']} scoring pass  {entry['partitions']} groups"
        )
    _write_results({"marketplace_single_pass": passes})


def test_store_histogram_reuse_accounting():
    """The store's histogram memo carries most of the search's requests."""
    dataset, function = _workload()
    store = ScoreStore(dataset, function)
    quantify(dataset, function, min_partition_size=MIN_PARTITION_SIZE, store=store)
    stats = store.stats
    print()
    print(f"store after one search: {stats.describe()}")
    assert stats.scoring_passes == 1
    # Re-running the identical search is served almost entirely from memos.
    quantify(dataset, function, min_partition_size=MIN_PARTITION_SIZE, store=store)
    warm = store.stats
    assert warm.scoring_passes == 1
    assert warm.histogram_hits > stats.histogram_hits
    _write_results(
        {
            "store_accounting": {
                "cold": stats.as_dict(),
                "warm_rerun": warm.as_dict(),
            }
        }
    )
