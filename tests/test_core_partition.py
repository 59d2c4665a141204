"""Tests for repro.core.partition."""

import pytest

from repro.core.partition import Partition, Partitioning, root_partition, split_partition
from repro.errors import PartitioningError
from repro.metrics.histogram import Binning


class TestPartition:
    def test_root_partition_covers_everyone(self, table1_dataset):
        root = root_partition(table1_dataset)
        assert root.size == 10
        assert root.label == "ALL"
        assert root.constraints == ()

    def test_label_and_key(self, table1_dataset):
        partition = Partition(
            constraints=(("Gender", "Male"), ("Language", "English")),
            root=table1_dataset,
            indices=[
                index
                for index, individual in enumerate(table1_dataset)
                if individual["Gender"] == "Male" and individual["Language"] == "English"
            ],
        )
        assert partition.label == "Gender=Male, Language=English"
        # Key is sorted by attribute name, independent of constraint order.
        flipped = Partition(
            constraints=(("Language", "English"), ("Gender", "Male")),
            root=table1_dataset,
            indices=partition.indices,
        )
        assert partition.key == flipped.key

    def test_duplicate_constraint_attribute_rejected(self, table1_dataset):
        with pytest.raises(PartitioningError):
            Partition(
                constraints=(("Gender", "Male"), ("Gender", "Female")),
                root=table1_dataset,
                indices=range(len(table1_dataset)),
            )

    def test_constraint_value(self, table1_dataset):
        root = root_partition(table1_dataset)
        child = split_partition(root, "Gender")[0]
        assert child.constraint_value("Gender") in ("Female", "Male")
        with pytest.raises(PartitioningError):
            child.constraint_value("Language")

    def test_scores_histogram_and_statistics(self, table1_dataset, table1_function):
        root = root_partition(table1_dataset)
        scores = root.scores(table1_function)
        assert scores.shape == (10,)
        histogram = root.histogram(table1_function, binning=Binning.unit(5))
        assert histogram.total == 10
        stats = root.statistics(table1_function)
        assert stats["size"] == 10
        assert stats["min"] <= stats["mean"] <= stats["max"]


class TestSplitPartition:
    def test_split_by_gender(self, table1_dataset):
        children = split_partition(root_partition(table1_dataset), "Gender")
        assert [child.constraint_value("Gender") for child in children] == ["Female", "Male"]
        assert sum(child.size for child in children) == 10
        assert children[0].size == 4 and children[1].size == 6

    def test_split_preserves_parent_constraints(self, table1_dataset):
        root = root_partition(table1_dataset)
        children = split_partition(root, "Gender")
        male = [c for c in children if c.constraint_value("Gender") == "Male"][0]
        by_language = split_partition(male, "Language")
        for child in by_language:
            assert child.constraint_value("Gender") == "Male"
        labels = {child.label for child in by_language}
        assert "Gender=Male, Language=English" in labels

    def test_split_never_produces_empty_children(self, table1_dataset):
        children = split_partition(root_partition(table1_dataset), "Ethnicity")
        assert all(child.size > 0 for child in children)

    def test_split_on_observed_attribute_rejected(self, table1_dataset):
        with pytest.raises(Exception):
            split_partition(root_partition(table1_dataset), "Rating")

    def test_split_on_already_constrained_attribute_rejected(self, table1_dataset):
        child = split_partition(root_partition(table1_dataset), "Gender")[0]
        with pytest.raises(PartitioningError):
            split_partition(child, "Gender")


class TestPartitioning:
    def test_by_attributes_cross_product(self, table1_dataset):
        partitioning = Partitioning.by_attributes(table1_dataset, ["Gender", "Country"])
        assert sum(partitioning.sizes) == 10
        # Only observed combinations become partitions (no empty ones).
        assert all(size > 0 for size in partitioning.sizes)
        assert len(partitioning) <= 2 * 3

    def test_single_partitioning(self, table1_dataset):
        single = Partitioning.single(table1_dataset)
        assert len(single) == 1
        assert single[0].label == "ALL"

    def test_validation_rejects_overlap(self, table1_dataset):
        everyone = root_partition(table1_dataset)
        with pytest.raises(PartitioningError):
            Partitioning(table1_dataset, (everyone, everyone))

    def test_validation_rejects_missing_individuals(self, table1_dataset):
        females = Partition(
            constraints=(("Gender", "Female"),),
            root=table1_dataset,
            indices=table1_dataset.positions(
                i.uid for i in table1_dataset if i["Gender"] == "Female"
            ),
        )
        with pytest.raises(PartitioningError):
            Partitioning(table1_dataset, (females,))

    def test_validation_rejects_empty_partition(self, table1_dataset):
        empty = Partition(constraints=(("Gender", "X"),), root=table1_dataset, indices=[])
        with pytest.raises(PartitioningError):
            Partitioning(table1_dataset, (empty, root_partition(table1_dataset)))

    def test_find_and_partition_of(self, table1_dataset):
        partitioning = Partitioning.by_attributes(table1_dataset, ["Gender"])
        female = partitioning.find("Gender=Female")
        assert female.size == 4
        assert partitioning.partition_of("w1").label == "Gender=Female"
        with pytest.raises(PartitioningError):
            partitioning.find("Gender=Other")
        with pytest.raises(PartitioningError):
            partitioning.partition_of("ghost")

    def test_histograms_share_binning(self, table1_dataset, table1_function):
        partitioning = Partitioning.by_attributes(table1_dataset, ["Gender"])
        histograms = partitioning.histograms(table1_function, binning=Binning.unit(5))
        assert len(histograms) == 2
        assert histograms[0].binning == histograms[1].binning
        assert sum(h.total for h in histograms) == 10

    def test_group_sizes_and_labels(self, table1_dataset):
        partitioning = Partitioning.by_attributes(table1_dataset, ["Gender"])
        assert partitioning.group_sizes() == {"Gender=Female": 4, "Gender=Male": 6}
        assert set(partitioning.labels) == {"Gender=Female", "Gender=Male"}

    def test_key_is_order_independent(self, table1_dataset):
        partitioning = Partitioning.by_attributes(table1_dataset, ["Gender"])
        reversed_partitioning = Partitioning(
            table1_dataset, tuple(reversed(partitioning.partitions))
        )
        assert partitioning.key() == reversed_partitioning.key()

    def test_by_attributes_requires_protected(self, table1_dataset):
        with pytest.raises(Exception):
            Partitioning.by_attributes(table1_dataset, ["Rating"])

    def test_by_attributes_empty_list_gives_single(self, table1_dataset):
        assert len(Partitioning.by_attributes(table1_dataset, [])) == 1
