"""Partitioning trees.

The greedy algorithm explores partitionings that are *tree structured*: the
root is the whole population, each internal node is split on one protected
attribute, and the leaves form the final full-disjoint partitioning.  The
FaiRank interface displays exactly this tree ("The partitioning trees are
displayed on the right in multiple panels", Figure 3), so the tree is a
first-class object here — both the algorithm's output and the thing the
session layer renders and lets users click through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.partition import Partition, Partitioning
from repro.errors import PartitioningError

__all__ = ["PartitionNode", "PartitionTree"]


@dataclass
class PartitionNode:
    """A node of a partitioning tree.

    ``split_attribute`` is the protected attribute the node was split on
    (None for leaves).  ``children`` are ordered by the attribute's value
    order.  A node is a *leaf* when it has no children; the set of leaves of
    the tree is the output partitioning.
    """

    partition: Partition
    split_attribute: Optional[str] = None
    children: List["PartitionNode"] = field(default_factory=list)
    #: Unfairness-related annotation filled by the algorithms (e.g. the
    #: aggregated distance of this node to its siblings when the split
    #: decision was made).  Purely informational.
    annotation: Dict[str, float] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def label(self) -> str:
        return self.partition.label

    @property
    def size(self) -> int:
        return self.partition.size

    def add_child(self, child: "PartitionNode") -> "PartitionNode":
        self.children.append(child)
        return child

    def iter_nodes(self) -> Iterator["PartitionNode"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def leaves(self) -> List["PartitionNode"]:
        """Leaves of this subtree, left to right."""
        return [node for node in self.iter_nodes() if node.is_leaf]

    def depth(self) -> int:
        """Height of this subtree (a leaf has depth 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def find(self, label: str) -> Optional["PartitionNode"]:
        """Find a node by partition label (None if absent)."""
        for node in self.iter_nodes():
            if node.label == label:
                return node
        return None


class PartitionTree:
    """A rooted partitioning tree plus convenience accessors.

    The tree owns the root node; its leaves always form a valid full-disjoint
    partitioning of the root partition's dataset (enforced by construction
    because splits never drop individuals).
    """

    def __init__(self, root: PartitionNode) -> None:
        if root is None:
            raise PartitioningError("a partition tree needs a root node")
        self.root = root

    # -- structure ------------------------------------------------------------

    @property
    def dataset(self):
        return self.root.partition.root

    def leaves(self) -> List[PartitionNode]:
        return self.root.leaves()

    def nodes(self) -> List[PartitionNode]:
        return list(self.root.iter_nodes())

    def node_count(self) -> int:
        return sum(1 for _ in self.root.iter_nodes())

    def depth(self) -> int:
        return self.root.depth()

    def find(self, label: str) -> PartitionNode:
        node = self.root.find(label)
        if node is None:
            raise PartitioningError(f"no node labelled {label!r} in the tree")
        return node

    def split_attributes_used(self) -> Tuple[str, ...]:
        """Distinct attributes used by any split, in first-use (pre-order) order."""
        used: List[str] = []
        for node in self.root.iter_nodes():
            if node.split_attribute and node.split_attribute not in used:
                used.append(node.split_attribute)
        return tuple(used)

    # -- conversion -------------------------------------------------------------

    def to_partitioning(self, validate: bool = True) -> Partitioning:
        """The full-disjoint partitioning formed by the tree's leaves.

        ``validate=False`` skips the disjoint-cover check — safe when the
        tree was grown by recursive splits (QUANTIFY does this), where the
        leaves partition the population by construction.
        """
        return Partitioning(
            dataset=self.root.partition.root,
            partitions=tuple(leaf.partition for leaf in self.leaves()),
            validate=validate,
        )

    def summary(self) -> Dict[str, object]:
        """Summary used by the session layer's General box."""
        leaves = self.leaves()
        return {
            "partitions": len(leaves),
            "depth": self.depth(),
            "nodes": self.node_count(),
            "split_attributes": list(self.split_attributes_used()),
            "partition_sizes": {leaf.label: leaf.size for leaf in leaves},
        }

    @classmethod
    def from_partitioning(cls, partitioning: Partitioning) -> "PartitionTree":
        """Build a flat (depth-1) tree from an existing partitioning.

        Used to display baselines (pre-defined groups) in the same panels as
        algorithm outputs.
        """
        from repro.core.partition import root_partition

        root = PartitionNode(partition=root_partition(partitioning.dataset))
        if len(partitioning) == 1 and partitioning[0].constraints == ():
            return cls(root)
        attrs = {name for partition in partitioning for name, _ in partition.constraints}
        root.split_attribute = "+".join(sorted(attrs)) if attrs else None
        for partition in partitioning:
            root.add_child(PartitionNode(partition=partition))
        return cls(root)
