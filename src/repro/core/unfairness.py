"""Computing ``unfairness(P, f)`` for a partitioning under a formulation.

Definition 2 of the paper: the unfairness of a scoring function ``f`` for a
partitioning ``P`` is the average pairwise Earth Mover's Distance between the
score histograms of the partitions of ``P``.  Other aggregations and
distances come from the :class:`~repro.core.formulations.Formulation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD, resolve_binning
from repro.core.partition import Partitioning
from repro.core.scorestore import ScoreStore, store_for
from repro.metrics.histogram import Binning, Histogram
from repro.scoring.base import ScoringFunction

__all__ = [
    "unfairness",
    "pairwise_distances",
    "cross_distances",
    "partition_vs_siblings",
    "UnfairnessBreakdown",
    "unfairness_breakdown",
]

#: Distances with a vectorised CDF-based fast path (1-D EMD closed form).
_EMD_LIKE = {"emd", "normalized_emd"}


def _emd_scale(formulation: Formulation, bins: int) -> float:
    """Per-distance scale factor for the vectorised EMD fast path."""
    if formulation.distance.name == "normalized_emd" and bins > 1:
        return 1.0 / (bins - 1)
    return 1.0


def _cdf_matrix(histograms: Sequence[Histogram]) -> np.ndarray:
    """Stack histogram CDFs (without the final all-ones column) row-wise.

    Each histogram's CDF is cached on the histogram itself, so memoised
    histograms (the score store serves the same objects to every sibling
    set) pay for their cumulative sum once per search.
    """
    count = len(histograms)
    matrix = np.empty((count, histograms[0].binning.bins - 1))
    for row, histogram in enumerate(histograms):
        matrix[row] = histogram.cdf()
    return matrix


def pairwise_distances(
    histograms: Sequence[Histogram],
    formulation: Formulation,
) -> List[float]:
    """All pairwise distances between the given histograms (i < j order).

    EMD-style distances use a vectorised closed form (L1 distance between
    CDFs, from cached per-histogram CDFs) so that the partitioning search
    stays interactive even when a node has many children; other distances
    fall back to pairwise calls.
    """
    count = len(histograms)
    if count < 2:
        return []
    if formulation.distance.name in _EMD_LIKE and count > 2:
        bins = histograms[0].binning.bins
        cdfs = _cdf_matrix(histograms)
        gaps = np.abs(cdfs[:, None, :] - cdfs[None, :, :]).sum(axis=2)
        scale = _emd_scale(formulation, bins)
        indices = np.triu_indices(count, k=1)
        return (gaps[indices] * scale).tolist()
    values: List[float] = []
    for i in range(count):
        for j in range(i + 1, count):
            values.append(formulation.distance(histograms[i], histograms[j]))
    return values


def cross_distances(
    first: Sequence[Histogram],
    second: Sequence[Histogram],
    formulation: Formulation,
) -> List[float]:
    """Distances between every histogram of ``first`` and every one of ``second``."""
    if not first or not second:
        return []
    if formulation.distance.name in _EMD_LIKE and (len(first) * len(second)) > 4:
        bins = first[0].binning.bins
        cdf_first = _cdf_matrix(first)
        cdf_second = _cdf_matrix(second)
        gaps = np.abs(cdf_first[:, None, :] - cdf_second[None, :, :]).sum(axis=2)
        scale = _emd_scale(formulation, bins)
        return [float(v) for v in gaps.ravel() * scale]
    return [
        formulation.distance(a, b)
        for a in first
        for b in second
    ]


def unfairness(
    partitioning: Partitioning,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    binning: Optional[Binning] = None,
    store: Optional[ScoreStore] = None,
) -> float:
    """``unfairness(P, f)``: aggregated pairwise histogram distance over ``P``.

    A partitioning with a single partition has unfairness 0 (there are no
    pairs to compare), matching the convention of the paper's optimisation
    problem where at least two groups are needed for unequal treatment.
    An explicit ``binning`` must agree with the formulation's (see
    :func:`~repro.core.formulations.resolve_binning`); ``store`` shares a
    score store (see :func:`~repro.core.scorestore.store_for`).
    """
    effective = resolve_binning(formulation, binning)
    histograms = partitioning.histograms(function, binning=effective, store=store)
    return formulation.aggregate(pairwise_distances(histograms, formulation))


def partition_vs_siblings(
    partition_histogram: Histogram,
    sibling_histograms: Sequence[Histogram],
    formulation: Formulation,
) -> float:
    """Aggregated distance between one partition and each of its siblings.

    This is the quantity ``avg(EMD(current, siblings, f))`` used by
    Algorithm 1 to decide whether splitting ``current`` further increases
    unfairness.  With no siblings the value is 0.
    """
    values = cross_distances([partition_histogram], list(sibling_histograms), formulation)
    return formulation.aggregate(values)


@dataclass(frozen=True)
class UnfairnessBreakdown:
    """Detailed unfairness report for a partitioning (session-layer General box)."""

    value: float
    formulation_name: str
    partition_labels: Tuple[str, ...]
    partition_sizes: Tuple[int, ...]
    pairwise: Dict[Tuple[str, str], float]
    most_separated_pair: Optional[Tuple[str, str]]
    least_separated_pair: Optional[Tuple[str, str]]
    mean_scores: Dict[str, float]

    @property
    def most_favored(self) -> Optional[str]:
        """Label of the partition with the highest mean score."""
        if not self.mean_scores:
            return None
        return max(self.mean_scores, key=lambda label: self.mean_scores[label])

    @property
    def least_favored(self) -> Optional[str]:
        """Label of the partition with the lowest mean score."""
        if not self.mean_scores:
            return None
        return min(self.mean_scores, key=lambda label: self.mean_scores[label])

    def as_dict(self) -> Dict[str, object]:
        return {
            "unfairness": self.value,
            "formulation": self.formulation_name,
            "partitions": list(self.partition_labels),
            "sizes": list(self.partition_sizes),
            "most_favored": self.most_favored,
            "least_favored": self.least_favored,
            "most_separated_pair": self.most_separated_pair,
            "least_separated_pair": self.least_separated_pair,
        }


def unfairness_breakdown(
    partitioning: Partitioning,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    binning: Optional[Binning] = None,
    store: Optional[ScoreStore] = None,
) -> UnfairnessBreakdown:
    """Compute unfairness plus the per-pair and per-partition detail.

    The breakdown backs the auditor's fairness report: which pair of groups
    is most separated, which group is most / least favoured (highest / lowest
    mean score), and the individual pairwise distances.  The binning is
    resolved through :func:`~repro.core.formulations.resolve_binning`, so it
    always matches what ``quantify`` optimised; passing the search's
    ``store`` reuses its materialized scores and memoised histograms.
    """
    effective = resolve_binning(formulation, binning)
    store = store_for(partitioning.dataset, function, store)
    histograms = [store.histogram(partition, effective) for partition in partitioning]
    labels = partitioning.labels

    # pairwise_distances yields values in (i < j) order, matching
    # itertools-style combinations over the labels, so the vectorised EMD
    # fast path can be reused instead of the per-pair distance calls.
    values = pairwise_distances(histograms, formulation)
    label_pairs = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    pairwise: Dict[Tuple[str, str], float] = dict(zip(label_pairs, values))

    most_separated = max(pairwise, key=lambda k: pairwise[k]) if pairwise else None
    least_separated = min(pairwise, key=lambda k: pairwise[k]) if pairwise else None

    mean_scores: Dict[str, float] = {}
    for partition, label in zip(partitioning, labels):
        scores = store.scores(partition)
        mean_scores[label] = float(scores.mean()) if scores.size else 0.0

    return UnfairnessBreakdown(
        value=formulation.aggregate(values),
        formulation_name=formulation.name,
        partition_labels=tuple(labels),
        partition_sizes=partitioning.sizes,
        pairwise=pairwise,
        most_separated_pair=most_separated,
        least_separated_pair=least_separated,
        mean_scores=mean_scores,
    )
