"""k-anonymisation of marketplace datasets (ARX-tool substitute).

FaiRank explores how *data transparency* affects fairness quantification by
k-anonymising the individuals' protected attributes before analysis.  The
paper delegates this to the ARX tool; since ARX is an external Java
application, this module re-implements the two classic k-anonymisation
strategies FaiRank needs:

* :class:`GlobalRecodingAnonymizer` — full-domain global recoding over
  per-attribute generalisation hierarchies, with optional record
  suppression, searching the generalisation lattice for the minimal levels
  that achieve k-anonymity (the ARX default strategy);
* :class:`MondrianAnonymizer` — greedy multidimensional local recoding
  (LeFevre et al.'s Mondrian), which splits the population into boxes of at
  least k individuals and generalises each box to its value span.

Both return a new :class:`~repro.data.dataset.Dataset` whose protected
columns carry the generalised values, plus an :class:`AnonymizationResult`
describing what was done (levels, suppressed records, information loss) —
the inputs FaiRank's transparency experiments need.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


from repro.anonymize.hierarchy import GeneralizationHierarchy, IntervalHierarchy, identity_hierarchy
from repro.data.dataset import Dataset, Individual
from repro.data.schema import Attribute, AttributeType, Schema
from repro.errors import AnonymizationError

__all__ = [
    "AnonymizationResult",
    "GlobalRecodingAnonymizer",
    "MondrianAnonymizer",
    "is_k_anonymous",
    "equivalence_classes",
    "default_hierarchies",
]


def equivalence_classes(
    dataset: Dataset, quasi_identifiers: Sequence[str]
) -> Dict[Tuple[object, ...], int]:
    """Sizes of the equivalence classes induced by the quasi-identifier columns."""
    classes: Dict[Tuple[object, ...], int] = {}
    for individual in dataset:
        key = tuple(individual.values[name] for name in quasi_identifiers)
        classes[key] = classes.get(key, 0) + 1
    return classes


def is_k_anonymous(dataset: Dataset, quasi_identifiers: Sequence[str], k: int) -> bool:
    """True when every quasi-identifier equivalence class has at least ``k`` members."""
    if k <= 1:
        return True
    if not len(dataset):
        return True
    return min(equivalence_classes(dataset, quasi_identifiers).values()) >= k


def default_hierarchies(
    dataset: Dataset, quasi_identifiers: Sequence[str]
) -> Dict[str, GeneralizationHierarchy]:
    """Build sensible default hierarchies for the given protected attributes.

    Numeric/ordinal attributes get interval hierarchies with widths 5/10/25;
    categorical attributes get the degenerate ladder whose only option is
    suppression (matching how ARX treats attributes with no user-supplied
    hierarchy).
    """
    hierarchies: Dict[str, GeneralizationHierarchy] = {}
    for name in quasi_identifiers:
        attr = dataset.schema.attribute(name)
        values = dataset.column(name) if len(dataset) else ()
        numeric = attr.atype in (AttributeType.NUMERIC, AttributeType.ORDINAL) and all(
            _is_number(v) for v in values
        )
        if numeric and values:
            hierarchies[name] = IntervalHierarchy(attribute=name, widths=(5.0, 10.0, 25.0))
        else:
            hierarchies[name] = identity_hierarchy(name)
    return hierarchies


def _is_number(value: object) -> bool:
    try:
        float(value)  # type: ignore[arg-type]
        return True
    except (TypeError, ValueError):
        return False


@dataclass
class AnonymizationResult:
    """Outcome of a k-anonymisation run."""

    dataset: Dataset
    k: int
    quasi_identifiers: Tuple[str, ...]
    #: Generalisation level applied per attribute (global recoding only).
    levels: Dict[str, int] = field(default_factory=dict)
    suppressed_uids: Tuple[str, ...] = ()
    method: str = "global-recoding"

    @property
    def suppression_rate(self) -> float:
        """Fraction of the original population that was suppressed."""
        original = len(self.dataset) + len(self.suppressed_uids)
        if original == 0:
            return 0.0
        return len(self.suppressed_uids) / original

    def summary(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "k": self.k,
            "quasi_identifiers": list(self.quasi_identifiers),
            "levels": dict(self.levels),
            "suppressed": len(self.suppressed_uids),
            "suppression_rate": self.suppression_rate,
            "size": len(self.dataset),
        }


def _generalized_schema(schema: Schema, quasi_identifiers: Sequence[str]) -> Schema:
    """Relax the schema so generalised (string/interval) values validate."""
    attributes: List[Attribute] = []
    for attr in schema:
        if attr.name in quasi_identifiers:
            attributes.append(
                Attribute(
                    name=attr.name,
                    kind=attr.kind,
                    atype=AttributeType.CATEGORICAL,
                    domain=None,
                    description=attr.description,
                )
            )
        else:
            attributes.append(attr)
    return Schema(tuple(attributes))


class GlobalRecodingAnonymizer:
    """Full-domain global recoding with optional suppression.

    Every record has the same generalisation level applied per attribute; the
    search scans the lattice of level combinations in order of increasing
    total generalisation and returns the first combination that achieves
    k-anonymity after suppressing at most ``max_suppression_rate`` of the
    records (records in classes still smaller than k get dropped).
    """

    def __init__(
        self,
        hierarchies: Optional[Mapping[str, GeneralizationHierarchy]] = None,
        max_suppression_rate: float = 0.05,
    ) -> None:
        if not 0.0 <= max_suppression_rate <= 1.0:
            raise AnonymizationError(
                f"max_suppression_rate must be in [0, 1], got {max_suppression_rate}"
            )
        self.hierarchies = dict(hierarchies or {})
        self.max_suppression_rate = max_suppression_rate

    def anonymize(
        self,
        dataset: Dataset,
        k: int,
        quasi_identifiers: Optional[Sequence[str]] = None,
    ) -> AnonymizationResult:
        """Return a k-anonymous version of ``dataset``."""
        if k < 1:
            raise AnonymizationError(f"k must be >= 1, got {k}")
        if quasi_identifiers is None:
            quasi_identifiers = dataset.schema.protected_names
        quasi_identifiers = tuple(quasi_identifiers)
        for name in quasi_identifiers:
            dataset.schema.attribute(name)

        hierarchies = dict(default_hierarchies(dataset, quasi_identifiers))
        hierarchies.update({k_: v for k_, v in self.hierarchies.items() if k_ in quasi_identifiers})

        if k == 1:
            return AnonymizationResult(
                dataset=dataset,
                k=1,
                quasi_identifiers=quasi_identifiers,
                levels={name: 0 for name in quasi_identifiers},
                method="global-recoding",
            )

        level_ranges = [range(hierarchies[name].height + 1) for name in quasi_identifiers]
        combos = sorted(itertools.product(*level_ranges), key=lambda combo: (sum(combo), combo))
        max_suppressed = int(self.max_suppression_rate * len(dataset))

        for combo in combos:
            levels = dict(zip(quasi_identifiers, combo))
            generalized = self._apply_levels(dataset, hierarchies, levels, quasi_identifiers)
            classes = equivalence_classes(generalized, quasi_identifiers)
            violating_keys = {key for key, size in classes.items() if size < k}
            if not violating_keys:
                return AnonymizationResult(
                    dataset=generalized,
                    k=k,
                    quasi_identifiers=quasi_identifiers,
                    levels=levels,
                    method="global-recoding",
                )
            suppressed = [
                individual.uid
                for individual in generalized
                if tuple(individual.values[name] for name in quasi_identifiers) in violating_keys
            ]
            if len(suppressed) <= max_suppressed:
                dropped = set(suppressed)
                return AnonymizationResult(
                    dataset=generalized.filter(
                        lambda ind: ind.uid not in dropped, name=f"{dataset.name}/k={k}"
                    ),
                    k=k,
                    quasi_identifiers=quasi_identifiers,
                    levels=levels,
                    suppressed_uids=tuple(suppressed),
                    method="global-recoding",
                )
        raise AnonymizationError(
            f"could not achieve {k}-anonymity on {dataset.name!r} even with full "
            f"generalisation and {self.max_suppression_rate:.0%} suppression"
        )

    @staticmethod
    def _apply_levels(
        dataset: Dataset,
        hierarchies: Mapping[str, GeneralizationHierarchy],
        levels: Mapping[str, int],
        quasi_identifiers: Sequence[str],
    ) -> Dataset:
        schema = _generalized_schema(dataset.schema, quasi_identifiers)
        individuals = []
        for individual in dataset:
            updates = {
                name: hierarchies[name].generalize(individual.values[name], levels[name])
                for name in quasi_identifiers
            }
            individuals.append(individual.with_values(**updates))
        return Dataset(schema, individuals, name=f"{dataset.name}/generalized", validate=False)


class MondrianAnonymizer:
    """Greedy multidimensional (Mondrian) local recoding.

    Recursively splits the population on the quasi-identifier with the widest
    normalised span, at the median, as long as both halves keep at least k
    records; each final box's quasi-identifier values are replaced by the
    box's value span (an interval for numeric attributes, a ``{a, b}`` set
    label for categorical ones).  Local recoding loses less information than
    global recoding, which the information-loss benchmark demonstrates.
    """

    def __init__(self, categorical_joiner: str = "|") -> None:
        self.categorical_joiner = categorical_joiner

    def anonymize(
        self,
        dataset: Dataset,
        k: int,
        quasi_identifiers: Optional[Sequence[str]] = None,
    ) -> AnonymizationResult:
        if k < 1:
            raise AnonymizationError(f"k must be >= 1, got {k}")
        if quasi_identifiers is None:
            quasi_identifiers = dataset.schema.protected_names
        quasi_identifiers = tuple(quasi_identifiers)
        for name in quasi_identifiers:
            dataset.schema.attribute(name)
        if len(dataset) and len(dataset) < k:
            raise AnonymizationError(
                f"dataset has {len(dataset)} records, cannot be {k}-anonymous"
            )

        boxes = self._partition(list(dataset), quasi_identifiers, k)
        schema = _generalized_schema(dataset.schema, quasi_identifiers)
        individuals: List[Individual] = []
        for box in boxes:
            summary = self._summarize_box(box, quasi_identifiers)
            for individual in box:
                individuals.append(individual.with_values(**summary))
        # Preserve the original row order for reproducibility.
        order = {uid: index for index, uid in enumerate(dataset.uids)}
        individuals.sort(key=lambda ind: order[ind.uid])
        return AnonymizationResult(
            dataset=Dataset(
                schema, individuals, name=f"{dataset.name}/mondrian-k={k}", validate=False
            ),
            k=k,
            quasi_identifiers=quasi_identifiers,
            levels={},
            method="mondrian",
        )

    def _partition(
        self, records: List[Individual], quasi_identifiers: Sequence[str], k: int
    ) -> List[List[Individual]]:
        if len(records) < 2 * k:
            return [records]
        attribute = self._widest_attribute(records, quasi_identifiers)
        if attribute is None:
            return [records]
        left, right = self._median_split(records, attribute)
        if len(left) < k or len(right) < k:
            return [records]
        return self._partition(left, quasi_identifiers, k) + self._partition(
            right, quasi_identifiers, k
        )

    @staticmethod
    def _widest_attribute(
        records: List[Individual], quasi_identifiers: Sequence[str]
    ) -> Optional[str]:
        best_name = None
        best_width = -1.0
        for name in quasi_identifiers:
            values = [record.values[name] for record in records]
            distinct = set(values)
            if len(distinct) < 2:
                continue
            if all(_is_number(v) for v in values):
                numeric = [float(v) for v in values]  # type: ignore[arg-type]
                span = max(numeric) - min(numeric)
                width = span
            else:
                width = float(len(distinct))
            if width > best_width:
                best_width = width
                best_name = name
        return best_name

    @staticmethod
    def _median_split(
        records: List[Individual], attribute: str
    ) -> Tuple[List[Individual], List[Individual]]:
        values = [record.values[attribute] for record in records]
        if all(_is_number(v) for v in values):
            ordered = sorted(
                records,
                key=lambda r: (float(r.values[attribute]), r.uid),  # type: ignore[arg-type]
            )
        else:
            ordered = sorted(records, key=lambda r: (str(r.values[attribute]), r.uid))
        middle = len(ordered) // 2
        return ordered[:middle], ordered[middle:]

    def _summarize_box(
        self, box: List[Individual], quasi_identifiers: Sequence[str]
    ) -> Dict[str, object]:
        summary: Dict[str, object] = {}
        for name in quasi_identifiers:
            values = [record.values[name] for record in box]
            distinct = sorted(set(values), key=lambda v: (str(type(v)), str(v)))
            if len(distinct) == 1:
                summary[name] = distinct[0]
            elif all(_is_number(v) for v in distinct):
                numbers = [float(v) for v in distinct]  # type: ignore[arg-type]
                low, high = min(numbers), max(numbers)
                if low.is_integer() and high.is_integer():
                    summary[name] = f"[{int(low)}-{int(high)}]"
                else:
                    summary[name] = f"[{low:g}-{high:g}]"
            else:
                summary[name] = self.categorical_joiner.join(str(v) for v in distinct)
        return summary
