"""FL007: swallowed exceptions.  FL008: salted builtin ``hash()``.

A bare ``except:`` (catches ``SystemExit`` / ``KeyboardInterrupt``) is
always flagged.  Any handler — regardless of exception type — whose whole
body is ``pass`` / ``...`` / ``continue`` swallows the failure without a
trace and is flagged too; the repo's sanctioned swallow sites (reaper and
drain loops that genuinely retry) carry a justified
``# fairlint: disable=FL007 -- reason`` annotation instead.

The builtin ``hash()`` of a ``str`` or ``bytes`` is salted per process
(``PYTHONHASHSEED``), so a seed, cache key or fingerprint derived from it
differs between processes — across the workers of one fleet, and between
a run and its re-run.  Only a ``__hash__`` method, whose value never leaves
the process, may call it.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import Project, SourceModule

__all__ = ["SwallowedException", "SaltedHash"]


def _is_noop(statement: ast.stmt) -> bool:
    if isinstance(statement, (ast.Pass, ast.Continue)):
        return True
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and statement.value.value is Ellipsis
    )


@register
class SwallowedException(Rule):
    id = "FL007"
    name = "swallowed-exception"
    description = (
        "A bare 'except:' clause, or an exception handler whose entire body "
        "is pass/.../continue.  Log, re-raise, or annotate a genuine "
        "poll-and-retry site with a justified '# fairlint: disable=FL007'."
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        tree = module.tree
        if tree is None:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node.lineno, node.col_offset + 1,
                    "bare 'except:' also catches SystemExit/KeyboardInterrupt; "
                    "name the exceptions",
                )
                continue
            if all(_is_noop(statement) for statement in node.body):
                caught = ast.unparse(node.type)
                yield self.finding(
                    module, node.lineno, node.col_offset + 1,
                    f"'except {caught}:' swallows the failure without a "
                    "trace (body is only pass); log, re-raise, or justify "
                    "with a disable annotation",
                )


@register
class SaltedHash(Rule):
    id = "FL008"
    name = "salted-hash"
    description = (
        "A call to the builtin hash() in repro outside a __hash__ method.  "
        "str/bytes hashes are salted per process, so anything derived from "
        "one (an RNG seed, a key, a fingerprint) differs between processes; "
        "use a stable digest such as zlib.crc32 or hashlib."
    )

    def check_module(
        self, module: SourceModule, project: Project
    ) -> Iterable[Finding]:
        tree = module.tree
        if tree is None or not module.in_path("repro"):
            return
        yield from self._calls(module, tree, in_dunder_hash=False)

    def _calls(
        self, module: SourceModule, node: ast.AST, in_dunder_hash: bool
    ) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._calls(module, child, child.name == "__hash__")
                continue
            if (
                not in_dunder_hash
                and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "hash"
            ):
                yield self.finding(
                    module, child.lineno, child.col_offset + 1,
                    "builtin hash() is salted per process; use a stable "
                    "digest (zlib.crc32, hashlib) outside __hash__",
                )
            yield from self._calls(module, child, in_dunder_hash)
