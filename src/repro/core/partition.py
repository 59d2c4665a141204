"""Partitions and partitionings of individuals over protected attributes.

A *partition* is a group of individuals selected by a conjunction of
protected-attribute constraints (e.g. ``Gender=Male AND Language=English``);
a *partitioning* is a full, disjoint set of such partitions covering the whole
population (Definition 1 of the paper).  Partitionings are what FaiRank
scores: the unfairness of a scoring function for a partitioning is an
aggregation of pairwise distances between the partitions' score histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.scorestore import ScoreStore, store_for
from repro.data.dataset import Dataset, order_values
from repro.errors import PartitioningError
from repro.metrics.histogram import Binning, Histogram
from repro.scoring.base import ScoringFunction

__all__ = ["Partition", "Partitioning", "split_partition", "root_partition"]


def _index_array(indices: Iterable[int], rows: int) -> np.ndarray:
    """``indices`` as a sorted, duplicate-free, read-only ``intp`` array in ``[0, rows)``."""
    array = np.array(indices, dtype=np.intp).reshape(-1)
    if array.size and (
        array[0] < 0 or array[-1] >= rows or bool(np.any(np.diff(array) <= 0))
    ):
        raise PartitioningError(
            f"partition indices must be strictly increasing row positions in [0, {rows})"
        )
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Partition:
    """A group of individuals defined by protected-attribute constraints.

    Parameters
    ----------
    constraints:
        Ordered tuple of ``(attribute, value)`` pairs that every member
        satisfies.  The root partition (everyone) has no constraints.
    root:
        The population the partition is drawn from.
    indices:
        The members' row positions in ``root``: a sorted, read-only integer
        array.  Scores, histograms and splits are all index operations over
        the root, so a partition never copies rows; :attr:`members` and
        :attr:`uids` are derived on demand for presentation callers.
    """

    constraints: Tuple[Tuple[str, object], ...]
    root: Dataset
    indices: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "indices", _index_array(self.indices, len(self.root)))
        names = [name for name, _ in self.constraints]
        if len(set(names)) != len(names):
            raise PartitioningError(
                f"partition constrains the same attribute twice: {names}"
            )

    # -- identity -----------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable label, e.g. ``"Gender=Male, Language=English"``."""
        if not self.constraints:
            return "ALL"
        return ", ".join(f"{name}={value}" for name, value in self.constraints)

    @property
    def key(self) -> Tuple[Tuple[str, object], ...]:
        """Hashable canonical identity (constraints sorted by attribute name).

        Cached: the score store keys its memos by partition identity, so the
        hot paths ask for the same key thousands of times per search.
        """
        cached = self.__dict__.get("_key_cache")
        if cached is None:
            cached = tuple(sorted(self.constraints, key=lambda pair: pair[0]))
            self.__dict__["_key_cache"] = cached
        return cached

    @property
    def size(self) -> int:
        """Number of individuals in the partition."""
        return len(self.indices)

    @property
    def uids(self) -> Tuple[str, ...]:
        """Member ids in row order."""
        uids = self.root.uids
        return tuple(uids[index] for index in self.indices.tolist())

    @property
    def members(self) -> Dataset:
        """The members as a dataset of their own (for presentation callers)."""
        if self.size == len(self.root):
            return self.root
        return self.root.subset(self.indices, name=f"{self.root.name}/{self.label}")

    @property
    def constrained_attributes(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.constraints)

    def constraint_value(self, attribute: str) -> object:
        """Value this partition fixes for ``attribute`` (raises if unconstrained)."""
        for name, value in self.constraints:
            if name == attribute:
                return value
        raise PartitioningError(f"partition {self.label!r} does not constrain {attribute!r}")

    # -- scores -------------------------------------------------------------

    def scores(
        self, function: ScoringFunction, store: Optional[ScoreStore] = None
    ) -> np.ndarray:
        """Read-only scores of the members under ``function``, in row order.

        Sliced from the root's score vector in ``store`` when it serves this
        root and function, else in the store core keeps for them (see
        :func:`~repro.core.scorestore.store_for`).
        """
        return store_for(self.root, function, store).scores(self)

    def histogram(
        self,
        function: ScoringFunction,
        binning: Optional[Binning] = None,
        store: Optional[ScoreStore] = None,
    ) -> Histogram:
        """Score histogram of the partition's members (Definition 2's ``h(p, f)``)."""
        return store_for(self.root, function, store).histogram(self, binning=binning)

    def statistics(
        self, function: ScoringFunction, store: Optional[ScoreStore] = None
    ) -> Dict[str, float]:
        """Summary statistics shown in the session layer's Node box."""
        return store_for(self.root, function, store).statistics(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition({self.label!r}, n={self.size})"


def _child(
    constraints: Tuple[Tuple[str, object], ...], root: Dataset, indices: np.ndarray
) -> Partition:
    """Trusted construction: ``indices`` is a read-only slice of a valid parent's."""
    child = object.__new__(Partition)
    object.__setattr__(child, "constraints", constraints)
    object.__setattr__(child, "root", root)
    object.__setattr__(child, "indices", indices)
    return child


@lru_cache(maxsize=16)
def _full_range(rows: int) -> np.ndarray:
    """The read-only indices of a whole root, shared by every root partition of that size.

    Cached results hold their tree's root partition, so one array per size
    (not one per search) keeps a large population's result cache small.
    """
    indices = np.arange(rows, dtype=np.intp)
    indices.setflags(write=False)
    return indices


def root_partition(dataset: Dataset) -> Partition:
    """The trivial partition containing every individual of ``dataset``."""
    return _child((), dataset, _full_range(len(dataset)))


def split_partition(partition: Partition, attribute: str) -> Tuple[Partition, ...]:
    """Split a partition into one child per distinct value of ``attribute``.

    Children are ordered by the attribute's declared domain order when
    available (falling back to a stable sorted order), matching the paper's
    decision-tree-style splits.  Only values present among the members yield
    children, so no child is ever empty.  The split is an index operation
    over the root's integer-coded column (:meth:`Dataset.codes`).
    """
    root = partition.root
    attr = root.schema.require_protected(attribute)
    if attribute in partition.constrained_attributes:
        raise PartitioningError(
            f"partition {partition.label!r} already constrains {attribute!r}"
        )
    codes, decode, encode = root.codes(attribute)
    indices = partition.indices
    sub = codes[indices]
    present = np.bincount(sub, minlength=len(decode))
    children: List[Partition] = []
    for value in order_values(attr, (v for code, v in enumerate(decode) if present[code])):
        child_indices = indices[sub == encode[value]]
        child_indices.setflags(write=False)
        children.append(
            _child(partition.constraints + ((attr.name, value),), root, child_indices)
        )
    return tuple(children)


class Partitioning:
    """A full, disjoint set of partitions of one dataset.

    The constructor validates the Definition 1 constraints: partitions are
    pairwise disjoint and their union is the whole population.
    """

    def __init__(
        self,
        dataset: Dataset,
        partitions: Iterable[Partition],
        validate: bool = True,
    ) -> None:
        self.dataset = dataset
        self.partitions: Tuple[Partition, ...] = tuple(partitions)
        self._by_label: Optional[Dict[str, Partition]] = None
        self._by_uid: Optional[Dict[str, Partition]] = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        if not self.partitions:
            raise PartitioningError("a partitioning must contain at least one partition")
        for partition in self.partitions:
            if partition.root is not self.dataset:
                raise PartitioningError(
                    f"partition {partition.label!r} is drawn from another dataset"
                )
            if partition.size == 0:
                raise PartitioningError(f"partition {partition.label!r} is empty")
        counts = np.bincount(
            np.concatenate([partition.indices for partition in self.partitions]),
            minlength=len(self.dataset),
        )
        overlap = np.flatnonzero(counts > 1)
        if overlap.size:
            row = int(overlap[0])
            first, second = [
                partition.label
                for partition in self.partitions
                if row in partition.indices
            ][:2]
            raise PartitioningError(
                f"individual {self.dataset.uids[row]!r} appears in both {first!r} and "
                f"{second!r}; partitions must be disjoint"
            )
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            uids = self.dataset.uids
            raise PartitioningError(
                f"partitioning does not cover the whole population; missing ids: "
                f"{sorted(uids[row] for row in missing.tolist())[:5]}"
                f"{'...' if missing.size > 5 else ''}"
            )

    # -- protocol ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)

    def __getitem__(self, index: int) -> Partition:
        return self.partitions[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partitioning({[p.label for p in self.partitions]})"

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(partition.label for partition in self.partitions)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(partition.size for partition in self.partitions)

    def key(self) -> Tuple[Tuple[Tuple[str, object], ...], ...]:
        """Canonical hashable identity (sorted partition keys), for deduplication."""
        return tuple(sorted(partition.key for partition in self.partitions))

    def _label_index(self) -> Dict[str, Partition]:
        if self._by_label is None:
            self._by_label = {partition.label: partition for partition in self.partitions}
        return self._by_label

    def _uid_index(self) -> Dict[str, Partition]:
        if self._by_uid is None:
            self._by_uid = {
                uid: partition for partition in self.partitions for uid in partition.uids
            }
        return self._by_uid

    def find(self, label: str) -> Partition:
        """Return the partition with the given label (O(1) after the first call)."""
        try:
            return self._label_index()[label]
        except KeyError:
            raise PartitioningError(f"no partition labelled {label!r}") from None

    def partition_of(self, uid: str) -> Partition:
        """Return the partition containing individual ``uid`` (O(1) after the first call)."""
        try:
            return self._uid_index()[uid]
        except KeyError:
            raise PartitioningError(
                f"individual {uid!r} is not covered by this partitioning"
            ) from None

    def histograms(
        self,
        function: ScoringFunction,
        binning: Optional[Binning] = None,
        store: Optional[ScoreStore] = None,
    ) -> Tuple[Histogram, ...]:
        """Score histogram of every partition, over a shared binning.

        Served by one score store over the partitioning's dataset, so
        repeated histogram requests never trigger extra scoring passes.
        """
        served = store_for(self.dataset, function, store)
        return tuple(served.histogram(partition, binning=binning) for partition in self.partitions)

    def group_sizes(self) -> Dict[str, int]:
        """Mapping of partition label -> number of members."""
        return {partition.label: partition.size for partition in self.partitions}

    @classmethod
    def single(cls, dataset: Dataset) -> "Partitioning":
        """The trivial partitioning {W} (unfairness is zero by convention)."""
        return cls(dataset, (root_partition(dataset),))

    @classmethod
    def by_attributes(cls, dataset: Dataset, attributes: Sequence[str]) -> "Partitioning":
        """Partition by the full cross product of values of ``attributes``.

        This is the "pre-defined groups" construction of prior work (and the
        finest tree-structured partitioning over those attributes): one
        partition per observed combination of values, nested in the order of
        ``attributes`` and each attribute's value order.
        """
        dataset.require_non_empty()
        for attribute in attributes:
            dataset.schema.require_protected(attribute)
        partitions = [root_partition(dataset)]
        for attribute in attributes:
            partitions = [
                child for partition in partitions for child in split_partition(partition, attribute)
            ]
        return cls(dataset, partitions, validate=False)
