"""Differential tests: core's scoring paths against the independent oracle.

Hypothesis draws random schemas (protected attributes with declared or
undeclared value orders), populations, weights and formulations; the
production ``quantify``, ``unfairness_breakdown`` and ``exhaustive_search``
must agree with :mod:`oracle` to 1e-12 on every value and exactly on
partition labels and sizes.  Examples whose decisions the oracle flags as
ambiguous (a margin below float resolution) are discarded.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracle import Oracle, labels
from repro.core.exhaustive import exhaustive_search
from repro.core.formulations import Formulation
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness_breakdown
from repro.data.dataset import Dataset
from repro.data.schema import Schema, observed, protected
from repro.scoring.linear import LinearScoringFunction

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
TOLERANCE = 1e-12


@st.composite
def instances(draw):
    """A random population, linear scorer and formulation, plus the oracle."""
    attributes = [f"P{index}" for index in range(draw(st.integers(1, 3)))]
    values = {
        name: draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True))
        for name in attributes
    }
    declared = {name: draw(st.booleans()) for name in attributes}
    schema = Schema(
        tuple(
            protected(name, domain=tuple(values[name]) if declared[name] else None)
            for name in attributes
        )
        + (observed("Skill"), observed("Rating"))
    )
    # Grid values put scores exactly on bin edges and make ties likely.
    unit = st.one_of(
        st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
    )
    rows = [
        {
            **{name: draw(st.sampled_from(values[name])) for name in attributes},
            "Skill": draw(unit),
            "Rating": draw(unit),
        }
        for _ in range(draw(st.integers(2, 14)))
    ]
    dataset = Dataset.from_records(schema, rows, name="oracle-pop")
    weight = st.one_of(st.floats(min_value=0.05, max_value=1.0), st.just(0.5))
    function = LinearScoringFunction({"Skill": draw(weight), "Rating": draw(weight)})
    formulation = Formulation.from_names(
        objective=draw(st.sampled_from(["most_unfair", "least_unfair"])),
        aggregation=draw(st.sampled_from(["average", "maximum"])),
        distance=draw(st.sampled_from(["emd", "normalized_emd"])),
        bins=draw(st.integers(2, 8)),
    )
    min_size = draw(st.integers(1, 3))
    oracle = Oracle(
        [{name: row[name] for name in attributes} for row in rows],
        [float(score) for score in function.score_dataset(dataset)],
        {name: values[name] if declared[name] else None for name in attributes},
        objective=formulation.objective.value,
        aggregation=formulation.aggregation.value,
        distance=formulation.distance.name,
        bins=formulation.bins,
        min_size=min_size,
    )
    # The adapter the other suites use must describe the same instance.
    assert Oracle.from_dataset(dataset, oracle.scores, formulation, min_size).domains == (
        oracle.domains
    )
    return dataset, function, formulation, min_size, attributes, oracle


def _assert_leaves(partitioning, leaves):
    assert partitioning.labels == labels(leaves)
    assert list(partitioning.sizes) == [len(group) for _, group in leaves]


class TestAgainstOracle:
    @given(instances())
    @SETTINGS
    def test_quantify_and_breakdown(self, instance):
        dataset, function, formulation, min_size, attributes, oracle = instance
        leaves, expected = oracle.quantify(attributes)
        assume(not oracle.ambiguous)
        result = quantify(dataset, function, formulation, min_partition_size=min_size)
        _assert_leaves(result.partitioning, leaves)
        assert abs(result.unfairness - expected) <= TOLERANCE

        breakdown = unfairness_breakdown(result.partitioning, function, formulation)
        assert abs(breakdown.value - expected) <= TOLERANCE
        names = labels(leaves)
        histograms = [oracle.histogram(group) for _, group in leaves]
        expected_pairs = {
            (names[i], names[j]): oracle.emd(histograms[i], histograms[j])
            for i in range(len(leaves))
            for j in range(i + 1, len(leaves))
        }
        assert list(breakdown.pairwise) == list(expected_pairs)
        for pair, value in expected_pairs.items():
            assert abs(breakdown.pairwise[pair] - value) <= TOLERANCE
        for name, (_, group) in zip(names, leaves):
            mean = sum(oracle.scores[row] for row in group) / len(group)
            assert abs(breakdown.mean_scores[name] - mean) <= TOLERANCE

    @given(instances())
    @SETTINGS
    def test_shared_store_over_a_content_identical_root(self, instance):
        dataset, function, formulation, min_size, attributes, oracle = instance
        leaves, expected = oracle.quantify(attributes)
        assume(not oracle.ambiguous)
        twin = Dataset.from_store(dataset.schema, dataset.to_store(), name="twin")
        store = ScoreStore(dataset, function)
        result = quantify(twin, function, formulation, min_partition_size=min_size, store=store)
        _assert_leaves(result.partitioning, leaves)
        assert abs(result.unfairness - expected) <= TOLERANCE
        assert store.stats.scoring_passes == 1

    @given(instances())
    @SETTINGS
    def test_exhaustive_search(self, instance):
        dataset, function, formulation, _, attributes, oracle = instance
        present = [len(dataset.distinct_values(name)) for name in attributes]
        assume(len(attributes) <= 2 or max(present) <= 2)
        leaves, expected, explored = oracle.exhaustive(attributes)
        assume(not oracle.ambiguous)
        result = exhaustive_search(dataset, function, formulation)
        _assert_leaves(result.partitioning, leaves)
        assert abs(result.unfairness - expected) <= TOLERANCE
        assert result.explored == explored
