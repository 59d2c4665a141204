"""Ablation benches for the reproduction's own design choices.

Not a paper artefact: these quantify how the reproduction's own knobs
(histogram resolution, minimum partition size, split-selection criterion)
affect what FaiRank measures, on the standard biased synthetic workload.
"""

from repro.experiments.ablations import (
    ablate_bins,
    ablate_min_partition_size,
    ablate_split_criterion,
)
from repro.experiments.workloads import biased_population
from repro.scoring.linear import LinearScoringFunction


def _workload():
    dataset, _ = biased_population(size=300, seed=7, penalty=-0.3)
    function = LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
    return dataset, function


def test_ablation_bins(benchmark):
    dataset, function = _workload()
    table = benchmark.pedantic(ablate_bins, args=(dataset, function), rounds=1, iterations=1)
    print()
    print(table.render())
    normalised = table.column("unfairness (normalised)")
    assert all(0.0 <= value <= 1.0 for value in normalised)


def test_ablation_min_partition_size(benchmark):
    dataset, function = _workload()
    table = benchmark.pedantic(
        ablate_min_partition_size, args=(dataset, function), rounds=1, iterations=1
    )
    print()
    print(table.render())
    values = table.column("unfairness")
    assert values[0] >= values[-1] - 1e-9


def test_ablation_split_criterion(benchmark):
    dataset, function = _workload()
    table = benchmark.pedantic(
        ablate_split_criterion, args=(dataset, function), rounds=1, iterations=1
    )
    print()
    print(table.render())
    records = {record["criterion"]: record for record in table.to_records()}
    algorithm1 = records["Algorithm 1 (local most-unfair attribute)"]["unfairness"]
    random_key = next(key for key in records if key.startswith("random"))
    assert algorithm1 >= records[random_key]["unfairness"] - 1e-9
