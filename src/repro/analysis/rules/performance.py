"""FL002: hot paths must never materialise per-row Python values.

The columnar data plane made ``repro.core`` / ``repro.scoring`` /
``repro.metrics`` operate on ``codes()`` / ``numeric_column()`` array
slices; ``Dataset.column()`` and ``iter_rows()`` rebuild per-row Python
objects and silently re-introduce the exact regression class the
million-row benchmarks guard against.  ``repro.core`` additionally works
on partitions as index sets over their root dataset, so it may not read
member rows (``.members`` / ``.individuals``) or regroup them
(``.group_by()`` / ``.select_uids()``).  Presentation layers (session,
roles, CLI) may still use all of these.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import Project, SourceModule

__all__ = ["HotPathMaterialisation"]

_HOT_PATHS = ("repro/core", "repro/scoring", "repro/metrics")
_ROW_APIS = {
    "iter_rows": "iterates row dicts",
    "column": "materialises one Python value per row",
}
_CORE = ("repro/core",)
_CORE_ROW_READS = {
    "members": "reads a partition's member rows",
    "individuals": "reads Individual rows",
}
_CORE_ROW_CALLS = {
    "group_by": "regroups rows in Python",
    "select_uids": "rebuilds a subset from uids",
}


@register
class HotPathMaterialisation(Rule):
    id = "FL002"
    name = "hot-path-materialisation"
    description = (
        "A hot-path module (repro.core / repro.scoring / repro.metrics) "
        "calls a per-row API (Dataset.iter_rows / Dataset.column), or "
        "repro.core reads .members / .individuals or calls .group_by() / "
        ".select_uids().  Use the columnar slices — codes(), "
        "numeric_column(), value_counts() — and partition indices, so "
        "million-row datasets never materialise per-row Python values."
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        if not module.in_path(*_HOT_PATHS):
            return
        tree = module.tree
        if tree is None:
            return
        core = module.in_path(*_CORE)
        for node in ast.walk(tree):
            if core and isinstance(node, ast.Attribute) and node.attr in _CORE_ROW_READS:
                yield self.finding(
                    module, node.lineno, node.col_offset + 1,
                    f".{node.attr} {_CORE_ROW_READS[node.attr]} in repro.core; "
                    "use the partition's root and indices",
                )
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _ROW_APIS:
                yield self.finding(
                    module, node.lineno, node.col_offset + 1,
                    f".{func.attr}() {_ROW_APIS[func.attr]} on the hot path; "
                    "use codes()/numeric_column() column slices",
                )
            elif core and func.attr in _CORE_ROW_CALLS:
                yield self.finding(
                    module, node.lineno, node.col_offset + 1,
                    f".{func.attr}() {_CORE_ROW_CALLS[func.attr]} in repro.core; "
                    "use split_partition() over the root's codes()",
                )
