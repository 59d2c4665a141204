"""Pre-defined group baselines from prior work.

The paper positions FaiRank against earlier group-fairness studies that
"either assumed that groups are pre-defined or that they are defined using a
single protected attribute (e.g., males vs females or whites vs blacks)"
(citing Hannák et al. [5] and Singh & Joachims [9]).  These baselines are
reproduced here so experiment E12 can show what the single-attribute view
misses: intersectional (subgroup) bias that only appears when several
protected attributes are combined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.formulations import Formulation, MOST_UNFAIR_AVG_EMD
from repro.core.partition import Partitioning
from repro.core.unfairness import unfairness
from repro.data.dataset import Dataset
from repro.errors import PartitioningError
from repro.scoring.base import ScoringFunction

__all__ = [
    "SingleAttributeResult",
    "single_attribute_baseline",
    "best_single_attribute",
    "predefined_groups_baseline",
]


@dataclass(frozen=True)
class SingleAttributeResult:
    """Unfairness measured when groups are defined by one protected attribute."""

    attribute: str
    partitioning: Partitioning
    unfairness: float

    def summary(self) -> Dict[str, object]:
        return {
            "attribute": self.attribute,
            "groups": list(self.partitioning.labels),
            "unfairness": self.unfairness,
        }


def single_attribute_baseline(
    dataset: Dataset,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    attributes: Optional[Sequence[str]] = None,
) -> List[SingleAttributeResult]:
    """Measure unfairness separately for each single protected attribute.

    This is the "males vs females", "whites vs blacks" view of prior work:
    one flat partitioning per protected attribute, no combinations.  Results
    are sorted best-first for the chosen objective.
    """
    dataset.require_non_empty()
    if attributes is None:
        attributes = dataset.schema.protected_names
    results: List[SingleAttributeResult] = []
    for attribute in attributes:
        dataset.schema.require_protected(attribute)
        if len(dataset.distinct_values(attribute)) < 2:
            continue
        partitioning = Partitioning.by_attributes(dataset, [attribute])
        value = unfairness(partitioning, function, formulation)
        results.append(
            SingleAttributeResult(attribute=attribute, partitioning=partitioning, unfairness=value)
        )
    if not results:
        raise PartitioningError(
            "no protected attribute has at least two values; the single-attribute "
            "baseline cannot form any groups"
        )
    results.sort(
        key=lambda r: (-r.unfairness if formulation.objective.is_maximizing else r.unfairness,
                       r.attribute)
    )
    return results


def best_single_attribute(
    dataset: Dataset,
    function: ScoringFunction,
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
    attributes: Optional[Sequence[str]] = None,
) -> SingleAttributeResult:
    """The single protected attribute exhibiting the most (or least) unfairness."""
    return single_attribute_baseline(dataset, function, formulation, attributes)[0]


def predefined_groups_baseline(
    dataset: Dataset,
    function: ScoringFunction,
    groups: Dict[str, Sequence[str]],
    formulation: Formulation = MOST_UNFAIR_AVG_EMD,
) -> Tuple[Partitioning, float]:
    """Unfairness for fully pre-defined groups given as ``label -> member ids``.

    Models prior work where an analyst supplies the groups of interest
    explicitly (e.g. the demographic segments of a platform study).  The
    groups must be disjoint and cover the whole dataset.
    """
    from repro.core.partition import Partition

    partitions = [
        Partition(constraints=(("group", label),), root=dataset, indices=dataset.positions(uids))
        for label, uids in groups.items()
    ]
    partitioning = Partitioning(dataset, partitions)
    return partitioning, unfairness(partitioning, function, formulation)
