"""Tests for the score materialization layer (repro.core.scorestore)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.formulations import Formulation, resolve_binning
from repro.core.partition import Partitioning, root_partition, split_partition
from repro.core.quantify import quantify
from repro.core.scorestore import ScoreStore
from repro.core.unfairness import unfairness, unfairness_breakdown
from repro.data.dataset import Dataset
from repro.errors import FormulationError
from repro.experiments.workloads import crowdsourcing_marketplace, synthetic_population
from repro.metrics.histogram import Binning, build_histogram
from repro.scoring.linear import LinearScoringFunction
from repro.service import FairnessService, QuantifyRequest


@pytest.fixture(scope="module")
def population() -> Dataset:
    return synthetic_population(size=600, seed=11)


@pytest.fixture(scope="module")
def function() -> LinearScoringFunction:
    return LinearScoringFunction({"Language Test": 0.6, "Rating": 0.4}, name="store-f")


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
        assert store.stats.fallback_scorings == 0

    def test_unmappable_partition_falls_back_to_direct_scoring(self, population, function):
        store = ScoreStore(population, function)
        other = synthetic_population(size=40, seed=99)
        foreign = root_partition(other)
        scores = store.scores(foreign)
        assert np.array_equal(scores, function.score_dataset(other))
        assert store.stats.fallback_scorings == 1

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
        assert store.serves(twin)
        assert not store.serves(other)

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
    def test_store_split_matches_group_by_split(self, population, function):
        store = ScoreStore(population, function)
        parent = root_partition(population)
        for attribute in population.schema.protected_names:
            plain = split_partition(parent, attribute)
            stored = split_partition(parent, attribute, store=store)
            assert [c.label for c in stored] == [c.label for c in plain]
            assert [c.size for c in stored] == [c.size for c in plain]
            for fast, slow in zip(stored, plain):
                assert fast.members.uids == slow.members.uids
                assert fast.members.name == slow.members.name

    def test_candidate_split_histograms_match_materialized(self, population, function):
        store = ScoreStore(population, function)
        parent = root_partition(population)
        binning = Binning.unit()
        for attribute in population.schema.protected_names:
            attr = population.schema.require_protected(attribute)
            candidate = store.candidate_split(parent, attr, binning)
            assert candidate is not None
            values, sizes, histograms = candidate
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
                attr = population.schema.require_protected(attribute)
                candidate = store.candidate_split(parent, attr, binning)
                assert candidate is not None
                values, sizes, histograms = candidate
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
        counting_seed = CountingFunction(function)
        counting_store = CountingFunction(function)
        seed_result = quantify(
            population,
            counting_seed,
            min_partition_size=5,
            materialize=False,
        )
        store_result = quantify(population, counting_store, min_partition_size=5)
        # Identical search outcome...
        assert store_result.summary() == seed_result.summary()
        assert store_result.splits_evaluated == seed_result.splits_evaluated
        assert store_result.unfairness == seed_result.unfairness
        assert store_result.partitioning.labels == seed_result.partitioning.labels
        assert store_result.tree.summary() == seed_result.tree.summary()
        # ...with strictly less scoring work: one pass over the population.
        assert counting_store.calls == 1
        assert counting_store.rows == len(population)
        assert counting_seed.rows > counting_store.rows

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
            without = quantify(
                population, function, formulation, min_partition_size=5, materialize=False
            )
            assert with_store.summary() == without.summary()
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
        # uid-mapped slicing over the rebuilt copy still avoids re-scoring.
        result = quantify(rebuilt, function, min_partition_size=5, store=second)
        reference = quantify(rebuilt, function, min_partition_size=5, materialize=False)
        assert result.summary() == reference.summary()
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
        assert stats.fallback_scorings == 0
