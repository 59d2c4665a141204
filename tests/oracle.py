"""Reference implementation of FaiRank's definitions, for differential tests.

Written from the paper, not from ``repro.core``: fixed-bin score histograms,
1-D EMD as the L1 distance between two CDFs, average/maximum aggregation of
pairwise distances (Definition 2), the greedy QUANTIFY of Algorithm 1, and
exhaustive enumeration of hierarchical partitionings on tiny inputs.
Arithmetic is exact (``Fraction``), so every decision the oracle takes is
exact; ``ambiguous`` records a decision whose margin is too small for a
float implementation to be held to it.  Inputs are plain Python: rows as
dicts of protected values, one float score per row, the attributes'
declared value orders.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

#: Decisions closer than this are ill-posed for a float implementation.
MARGIN = 1e-9


class Oracle:
    def __init__(self, rows, scores, domains, objective="most_unfair",
                 aggregation="average", distance="emd", bins=5, min_size=1):
        self.rows, self.scores, self.domains = rows, scores, domains
        self.maximize = objective == "most_unfair"
        self.aggregation, self.bins, self.min_size = aggregation, bins, min_size
        self.scale = Fraction(1, bins - 1) if distance == "normalized_emd" and bins > 1 else 1
        step = 1.0 / bins  # the unit score range [0, 1], equal-width bins
        self.edges = [index * step for index in range(bins)] + [1.0]
        self.ambiguous = False

    @classmethod
    def from_dataset(cls, dataset, scores, formulation, min_size=1):
        """An oracle over a ``repro`` dataset, read through its public row API."""
        names = dataset.schema.protected_names
        domains = {}
        for name in names:
            attr = dataset.schema.attribute(name)
            numeric = attr.atype.value == "numeric"
            domains[name] = None if attr.domain is None or numeric else list(attr.domain)
        return cls([{name: row[name] for name in names} for row in dataset],
                   [float(score) for score in scores], domains,
                   objective=formulation.objective.value,
                   aggregation=formulation.aggregation.value,
                   distance=formulation.distance.name, bins=formulation.bins,
                   min_size=min_size)

    def histogram(self, group):
        counts = [0] * self.bins
        for row in group:
            score = min(max(self.scores[row], 0.0), 1.0)
            counts[max(i for i in range(self.bins) if self.edges[i] <= score)] += 1
        return counts

    def emd(self, first, second):
        """Sum over bins of |CDF1 - CDF2|, over the common denominator n1 * n2."""
        total_first, total_second = sum(first), sum(second)
        gap = cumulative_first = cumulative_second = 0
        for a, b in zip(first[:-1], second[:-1]):
            cumulative_first, cumulative_second = cumulative_first + a, cumulative_second + b
            gap += abs(cumulative_first * total_second - cumulative_second * total_first)
        return Fraction(gap, total_first * total_second) * self.scale

    def pairwise(self, histograms):
        return [self.emd(histograms[i], histograms[j])
                for i in range(len(histograms)) for j in range(i + 1, len(histograms))]

    def aggregate(self, values):
        if not values:
            return Fraction(0)
        return sum(values) / len(values) if self.aggregation == "average" else max(values)

    def unfairness(self, groups):
        return self.aggregate(self.pairwise([self.histogram(g) for _, g in groups]))

    def better(self, candidate, incumbent):
        if 0 < abs(candidate - incumbent) <= MARGIN:
            self.ambiguous = True
        return candidate > incumbent if self.maximize else candidate < incumbent

    def split(self, constraints, group, attribute):
        values = {self.rows[row][attribute] for row in group}
        domain = self.domains.get(attribute)
        ordered = ([v for v in domain if v in values] if domain is not None
                   else sorted(values, key=lambda v: (str(type(v)), str(v))))
        return [(constraints + ((attribute, value),),
                 [row for row in group if self.rows[row][attribute] == value])
                for value in ordered]

    def best_split(self, constraints, group, attributes, siblings):
        best = None
        for attribute in sorted(attributes):
            children = self.split(constraints, group, attribute)
            if len(children) < 2 or any(len(c) < self.min_size for _, c in children):
                continue
            score = self.aggregate(
                self.pairwise([self.histogram(c) for _, c in children] + siblings))
            if best is None or self.better(score, best[2]):
                best = (attribute, children, score)
        return best

    def quantify(self, attributes):
        """Algorithm 1: ``(leaves as (constraints, rows), unfairness)``."""
        everyone = list(range(len(self.rows)))
        first = self.best_split((), everyone, attributes, [])
        if first is None:
            return [((), everyone)], Fraction(0)
        leaves = []
        self._grow_children(first, attributes, leaves)
        return leaves, self.unfairness(leaves)

    def _grow_children(self, choice, attributes, leaves):
        attribute, children, _ = choice
        remaining = [a for a in attributes if a != attribute]
        histograms = [self.histogram(group) for _, group in children]
        for index, (constraints, group) in enumerate(children):
            siblings = histograms[:index] + histograms[index + 1:]
            choice = None
            if remaining and len(group) >= 2 * self.min_size:
                current = self.aggregate(self.pairwise([histograms[index]] + siblings))
                choice = self.best_split(constraints, group, remaining, siblings)
                if choice is not None and not self.better(choice[2], current):
                    choice = None
            if choice is None:
                leaves.append((constraints, group))
            else:
                self._grow_children(choice, remaining, leaves)

    def enumerate(self, constraints, group, attributes):
        """Hierarchical partitionings of one group: keep it whole, or split it."""
        yield [(constraints, group)]
        if len(group) < 2:
            return
        for attribute in attributes:
            children = self.split(constraints, group, attribute)
            if len(children) < 2:
                continue
            remaining = [a for a in attributes if a != attribute]
            options = [list(self.enumerate(c, g, remaining)) for c, g in children]
            for combination in product(*options):
                yield [leaf for option in combination for leaf in option]

    def exhaustive(self, attributes):
        """The optimum: ``(leaves, unfairness, distinct partitionings explored)``."""
        everyone = list(range(len(self.rows)))
        seen, best, explored = set(), None, 0
        for leaves in self.enumerate((), everyone, attributes):
            key = tuple(sorted(tuple(sorted(c)) for c, _ in leaves))
            if len(leaves) < 2 or key in seen:
                continue
            seen.add(key)
            explored += 1
            value = self.unfairness(leaves)
            if best is None or self.better(value, best[1]):
                best = (leaves, value)
            elif value == best[1] and (len(leaves), labels(leaves)) < (
                    len(best[0]), labels(best[0])):
                best = (leaves, value)
        if best is None:
            return [((), everyone)], Fraction(0), 1
        return best[0], best[1], explored


def labels(leaves):
    return tuple(", ".join(f"{a}={v}" for a, v in c) if c else "ALL" for c, _ in leaves)
