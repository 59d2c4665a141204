"""Tests for the score materialization layer (repro.core.scorestore)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from oracle import Oracle, labels
from repro.core.formulations import MOST_UNFAIR_AVG_EMD, Formulation, resolve_binning
from repro.core.partition import Partitioning, root_partition, split_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness, unfairness_breakdown
from repro.data.dataset import Dataset
from repro.errors import FormulationError, PartitioningError
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.metrics.histogram import Binning, build_histogram
from repro.scoring.linear import LinearScoringFunction
from repro.service import BreakdownRequest, FairnessService, QuantifyRequest, SweepRequest


@pytest.fixture(scope="module")
def population() -> Dataset:
    return synthetic_population(size=600, seed=11)


@pytest.fixture(scope="module")
def function() -> LinearScoringFunction:
    return LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="store-f")


def assert_matches_oracle(result, dataset, function, formulation, min_size):
    """The search result equals the independent oracle's Algorithm 1 run."""
    oracle = Oracle.from_dataset(
        dataset, function.score_dataset(dataset), formulation, min_size
    )
    leaves, expected = oracle.quantify(list(dataset.schema.protected_names))
    assert not oracle.ambiguous
    assert result.partitioning.labels == labels(leaves)
    assert list(result.partitioning.sizes) == [len(group) for _, group in leaves]
    assert abs(result.unfairness - expected) <= 1e-12


class CountingFunction(LinearScoringFunction):
    """Counts score_dataset invocations and total rows scored."""

    def __init__(self, base: LinearScoringFunction) -> None:
        self.__dict__.update(base.__dict__)
        self.calls = 0
        self.rows = 0

    def score_dataset(self, dataset):
        self.calls += 1
        self.rows += len(dataset)
        return LinearScoringFunction.score_dataset(self, dataset)


class TestSlicing:
    def test_sliced_scores_equal_direct_scoring_bit_for_bit(self, population, function):
        store = ScoreStore(population, function)
        result = quantify(population, function, min_partition_size=5, store=store)
        for partition in result.partitioning:
            direct = function.score_dataset(partition.members)
            sliced = store.scores(partition)
            assert sliced.dtype == direct.dtype
            assert np.array_equal(sliced, direct)
            # Bit-for-bit: byte-level equality, not just numeric closeness.
            assert direct.tobytes() == np.asarray(sliced).tobytes()

    def test_root_partition_scores_are_the_full_vector(self, population, function):
        store = ScoreStore(population, function)
        root = root_partition(population)
        assert store.scores(root) is store.vector()

    def test_vector_is_computed_exactly_once(self, population, function):
        counting = CountingFunction(function)
        store = ScoreStore(population, counting)
        result = quantify(population, counting, min_partition_size=5, store=store)
        unfairness_breakdown(result.partitioning, counting, store=store)
        assert counting.calls == 1
        assert counting.rows == len(population)
        assert store.stats.scoring_passes == 1

    def test_foreign_partition_is_refused(self, population, function):
        store = ScoreStore(population, function)
        other = synthetic_population(size=40, seed=99)
        with pytest.raises(PartitioningError):
            store.scores(root_partition(other))
        # Core never hands it one: a partition's own scores use a store
        # over its own root.
        assert np.array_equal(
            root_partition(other).scores(function, store=store),
            function.score_dataset(other),
        )

    def test_statistics_match_partition_statistics(self, population, function):
        store = ScoreStore(population, function)
        partition = root_partition(population)
        assert store.statistics(partition) == partition.statistics(function)

    def test_store_for_another_function_is_never_served(self, population, function):
        other = LinearScoringFunction({"Language Test": 0.9, "Rating": 0.1}, name="other")
        store = ScoreStore(population, function)
        quantify(population, function, min_partition_size=5, store=store)
        # Passing a store built for a different function must fall back to
        # that function's own scores, not silently serve the store's.
        mismatched = quantify(population, other, min_partition_size=5, store=store)
        reference = quantify(population, other, min_partition_size=5)
        assert mismatched.summary() == reference.summary()
        partition = root_partition(population)
        assert np.array_equal(
            partition.scores(other, store=store), other.score_dataset(population)
        )
        # A rebuilt, content-identical function (equal fingerprint) is served.
        twin = LinearScoringFunction(
            {"Language Test": 0.6, "Rating": 0.4}, name="renamed-twin"
        )
        assert store.serves(population, twin)
        assert not store.serves(population, other)

    def test_shared_store_never_reuses_entries_across_datasets(self, population, function):
        # Partitions of different datasets can share a constraints key (every
        # root has key ()); a shared store must not serve one dataset's
        # memoised scores for the other.
        store = ScoreStore(population, function)
        full = quantify(population, function, min_partition_size=5, store=store)
        subset = population.filter(lambda ind: ind["Gender"] == "Female", name="women")
        shared = quantify(subset, function, min_partition_size=5, store=store)
        private = quantify(subset, function, min_partition_size=5)
        assert shared.summary() == private.summary()
        assert shared.unfairness == private.unfairness
        # And the original dataset's results are unaffected by the interleaving.
        again = quantify(population, function, min_partition_size=5, store=store)
        assert again.summary() == full.summary()


class TestSplit:
    def test_split_matches_group_by(self, population):
        parent = root_partition(population)
        for attribute in population.schema.protected_names:
            children = split_partition(parent, attribute)
            groups = population.group_by([attribute])
            assert [c.constraint_value(attribute) for c in children] == list(
                population.distinct_values(attribute)
            )
            for child in children:
                members = groups[(child.constraint_value(attribute),)]
                assert child.uids == members.uids
                assert child.members.uids == members.uids

    def test_candidate_split_histograms_match_materialized(self, population, function):
        store = ScoreStore(population, function)
        parent = root_partition(population)
        binning = Binning.unit()
        for attribute in population.schema.protected_names:
            values, sizes, histograms = store.candidate_split(parent, attribute, binning)
            children = split_partition(parent, attribute)
            assert list(values) == [c.constraint_value(attribute) for c in children]
            assert list(sizes) == [c.size for c in children]
            for histogram, child in zip(histograms, children):
                direct = build_histogram(function.score_dataset(child.members), binning=binning)
                assert histogram.counts == direct.counts
                assert histogram.binning == direct.binning


class TestHistogramMemo:
    def test_hit_miss_accounting(self, population, function):
        store = ScoreStore(population, function)
        partition = root_partition(population)
        binning = Binning.unit()
        assert store.stats.histogram_requests == 0
        first = store.histogram(partition, binning)
        stats = store.stats
        assert (stats.histogram_hits, stats.histogram_misses) == (0, 1)
        second = store.histogram(partition, binning)
        stats = store.stats
        assert (stats.histogram_hits, stats.histogram_misses) == (1, 1)
        assert second is first  # the memo returns the same object
        store.histogram(partition, Binning.unit(bins=10))  # different binning: miss
        stats = store.stats
        assert (stats.histogram_hits, stats.histogram_misses) == (1, 2)
        assert stats.histogram_hit_rate == pytest.approx(1 / 3)

    def test_histograms_match_build_histogram(self, population, function):
        store = ScoreStore(population, function)
        partitioning = Partitioning.by_attributes(population, ["Gender"])
        for binning in (Binning.unit(), Binning.unit(bins=10), Binning(0.2, 0.9, 7)):
            for partition in partitioning:
                fast = store.histogram(partition, binning)
                slow = build_histogram(
                    function.score_dataset(partition.members), binning=binning
                )
                assert fast.counts == slow.counts

    def test_eviction_bound_respected(self, population, function):
        store = ScoreStore(population, function, max_partitions=4)
        partitioning = Partitioning.by_attributes(population, ["Gender", "Language"])
        assert len(partitioning) > 4
        for partition in partitioning:
            store.histogram(partition, Binning.unit())
        assert len(store) <= 4
        assert store.stats.evictions >= len(partitioning) - 4

    def test_rejects_non_positive_bound(self, population, function):
        with pytest.raises(ValueError):
            ScoreStore(population, function, max_partitions=0)

    def test_nan_scores_match_build_histogram(self, population):
        # np.histogram silently drops NaN; the store's bincount path must too.
        class NaNScorer(LinearScoringFunction):
            # Row-pure: whether an individual scores NaN depends only on the
            # individual, so direct and sliced scoring agree.
            def score_dataset(self, dataset):
                scores = np.array(LinearScoringFunction.score_dataset(self, dataset))
                for row, individual in enumerate(dataset):
                    if int(individual.uid.lstrip("w")) % 7 == 0:
                        scores[row] = float("nan")
                return scores

        scorer = NaNScorer({"Language Test": 0.5, "Rating": 0.5}, name="nan-f")
        store = ScoreStore(population, scorer)
        parent = root_partition(population)
        for binning in (Binning.unit(), Binning.unit(bins=9)):
            direct = build_histogram(scorer.score_dataset(population), binning=binning)
            assert store.histogram(parent, binning).counts == direct.counts
            for attribute in population.schema.protected_names:
                values, sizes, histograms = store.candidate_split(parent, attribute, binning)
                children = split_partition(parent, attribute)
                # Sizes count members (NaN-scored included)...
                assert list(sizes) == [c.size for c in children]
                # ...while histogram counts drop NaN, like build_histogram.
                for histogram, child in zip(histograms, children):
                    direct = build_histogram(
                        scorer.score_dataset(child.members), binning=binning
                    )
                    assert histogram.counts == direct.counts


class TestQuantifyRegression:
    def test_same_tree_same_splits_fewer_scorings(self, population, function):
        counting = CountingFunction(function)
        result = quantify(population, counting, min_partition_size=5)
        # The oracle's search outcome...
        assert_matches_oracle(result, population, function, MOST_UNFAIR_AVG_EMD, 5)
        # ...from one scoring pass over the population.
        assert counting.calls == 1
        assert counting.rows == len(population)

    def test_breakdown_identical_with_store(self, population, function):
        result = quantify(population, function, min_partition_size=5)
        store = ScoreStore(population, function)
        plain = unfairness_breakdown(result.partitioning, function)
        stored = unfairness_breakdown(result.partitioning, function, store=store)
        assert stored.value == plain.value
        assert stored.pairwise == plain.pairwise
        assert stored.mean_scores == plain.mean_scores

    def test_unfairness_identical_with_store(self, population, function):
        partitioning = Partitioning.by_attributes(population, ["Gender", "Language"])
        store = ScoreStore(population, function)
        assert unfairness(partitioning, function, store=store) == unfairness(
            partitioning, function
        )

    def test_works_across_formulations(self, population, function):
        store = ScoreStore(population, function)
        for formulation in (
            Formulation(),
            Formulation.from_names(aggregation="maximum"),
            Formulation.from_names(objective="least_unfair"),
            Formulation.from_names(bins=10),
        ):
            with_store = quantify(
                population, function, formulation, min_partition_size=5, store=store
            )
            assert_matches_oracle(with_store, population, function, formulation, 5)
        assert store.stats.scoring_passes == 1


class TestBinningResolution:
    def test_explicit_matching_binning_is_accepted(self):
        formulation = Formulation()
        assert resolve_binning(formulation, Binning.unit()) == Binning.unit()

    def test_mismatched_binning_raises(self, population, function):
        formulation = Formulation()  # unit binning, 5 bins
        with pytest.raises(FormulationError):
            resolve_binning(formulation, Binning.unit(bins=7))
        partitioning = Partitioning.single(population)
        with pytest.raises(FormulationError):
            unfairness(partitioning, function, formulation, binning=Binning(0.0, 2.0, 5))
        with pytest.raises(FormulationError):
            unfairness_breakdown(
                partitioning,
                function,
                formulation,
                binning=Binning.unit(bins=3),
            )

    def test_quantify_and_breakdown_share_one_default(self, population, function):
        formulation = Formulation.from_names(bins=9)
        result = quantify(population, function, formulation, min_partition_size=5)
        breakdown = unfairness_breakdown(result.partitioning, function, formulation)
        assert breakdown.value == result.unfairness


class TestThreadSafety:
    def test_concurrent_histogram_requests_are_consistent(self, population, function):
        store = ScoreStore(population, function)
        partitioning = Partitioning.by_attributes(population, ["Gender", "Language"])
        errors = []

        def worker():
            try:
                for _ in range(20):
                    for partition in partitioning:
                        histogram = store.histogram(partition, Binning.unit())
                        direct = build_histogram(
                            function.score_dataset(partition.members),
                            binning=Binning.unit(),
                        )
                        if histogram.counts != direct.counts:  # pragma: no cover
                            errors.append((partition.label, histogram.counts))
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats.scoring_passes == 1

    def test_batch_executor_shares_one_store(self):
        service = FairnessService()
        service.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        service.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        requests = [
            QuantifyRequest(
                dataset="pop",
                function="balanced",
                aggregation=aggregation,
                min_partition_size=5,
            )
            for aggregation in ("average", "maximum", "minimum", "variance")
        ] * 2
        serial = [service.execute(request) for request in requests]
        fresh = FairnessService()
        fresh.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        fresh.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        batched = fresh.execute_many(requests)
        assert [r.canonical() for r in batched] == [r.canonical() for r in serial]
        # All four formulations share one (dataset, function) scoring pass.
        assert fresh.store_stats.scoring_passes == 1
        assert fresh.store_stats.stores == 1


class TestServicePool:
    def _service(self, **kwargs) -> FairnessService:
        service = FairnessService(**kwargs)
        service.register_dataset(synthetic_population(size=300, seed=7), name="pop")
        service.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )
        return service

    def test_store_reuse_across_requests(self):
        service = self._service()
        service.execute(
            QuantifyRequest(dataset="pop", function="balanced", min_partition_size=5)
        )
        service.execute(
            QuantifyRequest(
                dataset="pop",
                function="balanced",
                aggregation="maximum",
                min_partition_size=5,
            )
        )
        stats = service.store_stats
        assert stats.stores == 1
        assert stats.hits >= 1
        assert stats.scoring_passes == 1

    def test_content_identical_dataset_shares_store(self):
        service = self._service()
        dataset = service.dataset("pop")
        rebuilt = Dataset(dataset.schema, list(dataset), name="copy")
        function = service.function("balanced")
        first = service.score_store(dataset, function)
        second = service.score_store(rebuilt, function)
        assert second is first
        # The store serves the rebuilt copy as its own root: no re-scoring.
        result = quantify(rebuilt, function, min_partition_size=5, store=second)
        assert_matches_oracle(result, rebuilt, function, MOST_UNFAIR_AVG_EMD, 5)
        assert second.stats.scoring_passes == 1

    def test_pool_is_bounded(self):
        service = self._service(max_stores=2)
        dataset = service.dataset("pop")
        for index in range(4):
            function = LinearScoringFunction(
                {"Language Test": 0.1 + index * 0.2, "Rating": 0.5}, name=f"f{index}"
            )
            service.score_store(dataset, function)
        assert service.store_stats.stores == 2
        assert service.store_stats.evictions == 2

    def test_rejects_non_positive_max_stores(self):
        from repro.errors import ServiceError

        with pytest.raises(ServiceError):
            FairnessService(max_stores=0)

    def test_store_stats_surfaced_in_service_result(self):
        service = self._service()
        result = service.execute(
            QuantifyRequest(dataset="pop", function="balanced", min_partition_size=5)
        )
        assert result.store_stats is not None
        assert result.store_stats["scoring_passes"] == 1
        assert "hit_rate" in result.store_stats
        # Serving metadata round-trips but stays out of the canonical bytes.
        round_tripped = type(result).from_json(result.to_json())
        assert round_tripped.store_stats == result.store_stats
        assert "store_stats" not in result.canonical()

    def test_audit_fanout_shares_scoring_passes(self):
        service = FairnessService()
        marketplace = crowdsourcing_marketplace(size=150, seed=7)
        service.register_marketplace(marketplace)
        report = service.audit_marketplace(marketplace.name, min_partition_size=5)
        assert len(report.audits) == len(marketplace)
        stats = service.store_stats
        # One store (and one scoring pass) per distinct (candidates, function)
        # pair — never more than one pass per audited job.
        assert stats.scoring_passes <= len(marketplace)


class _RowlessDataset(Dataset):
    """A dataset whose rows must not be walked: iteration and uids raise."""

    def __iter__(self):
        raise AssertionError("rows iterated")

    @property
    def individuals(self):
        raise AssertionError("rows materialised")

    @property
    def uids(self):
        raise AssertionError("uids read")


class TestAliasedRoots:
    def test_alias_is_served_from_the_warm_store_without_rows(self):
        population = synthetic_population(size=300, seed=7)
        alias = Dataset(population.schema, list(population), name="alias")
        service = FairnessService()
        service.register_dataset(population, name="A")
        service.register_dataset(alias, name="B")
        service.register_function(
            LinearScoringFunction({"Language Test": 0.5, "Rating": 0.5}, name="balanced")
        )

        def requests(name):
            return [
                QuantifyRequest(dataset=name, function="balanced", min_partition_size=5),
                BreakdownRequest(dataset=name, function="balanced", min_partition_size=5),
                SweepRequest(dataset=name, function="balanced", steps=2, min_partition_size=5),
            ]

        warm = [service.execute(request) for request in requests("A")]
        passes = service.store_stats.scoring_passes
        alias.__class__ = _RowlessDataset
        served = [service.execute(request) for request in requests("B")]
        for first, second in zip(warm, served):
            assert second.ok, second.error
            assert second.payload == {**first.payload, "dataset": "B"}
        assert service.store_stats.scoring_passes == passes
