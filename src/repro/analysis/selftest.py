"""Seeded violations proving every registered rule still fires.

``scripts/check_analysis.py --self-test`` (a CI step) and the unit tests
both run these: one minimal source tree per rule, each containing exactly
the violation its rule exists to catch.  A rule that stops detecting its
own seeded violation fails the build — the analysis plane cannot rot
silently.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, Tuple

from repro.analysis.engine import run_analysis

__all__ = ["SELFTEST_CASES", "run_selftest"]

#: ``rule id -> (repo-relative path, source text)`` seeded violations.
SELFTEST_CASES: Dict[str, Tuple[str, str]] = {
    "FL000": (
        "repro/stale.py",
        "value = 1  # fairlint: disable=FL103\n",
    ),
    "FL001": (
        "repro/store.py",
        "import threading\n"
        "\n"
        "\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._hits = 0\n"
        "\n"
        "    def record(self):\n"
        "        with self._lock:\n"
        "            self._hits += 1\n"
        "\n"
        "    def sloppy(self):\n"
        "        self._hits += 1\n",
    ),
    "FL002": (
        "repro/core/hot.py",
        "def total(partition):\n"
        "    value = 0.0\n"
        "    for row in partition.members.iter_rows():\n"
        "        value += row['score']\n"
        "    return value\n",
    ),
    "FL003": (
        "service/jobs.py",
        "import json\n"
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class ServiceResult:\n"
        "    surprise: int = 0\n"
        "\n"
        "    def canonical(self):\n"
        "        return json.dumps({'surprise': self.surprise})\n",
    ),
    "FL004": (
        "repro/scoring/custom.py",
        "from repro.scoring.base import ScoringFunction\n"
        "\n"
        "\n"
        "class SilentScorer(ScoringFunction):\n"
        "    def score(self, row):\n"
        "        return 1.0\n",
    ),
    "FL005": (
        "repro/obs/custom.py",
        "def install(registry):\n"
        "    registry.counter('Fairank-Bad-Name', 'help').inc()\n",
    ),
    "FL006": (
        "repro/server/slowpath.py",
        "import time\n"
        "\n"
        "\n"
        "def handle_request(payload):\n"
        "    time.sleep(0.1)\n"
        "    return payload\n",
    ),
    "FL007": (
        "repro/util.py",
        "def read(path):\n"
        "    try:\n"
        "        return open(path).read()\n"
        "    except:\n"
        "        pass\n",
    ),
    "FL008": (
        "repro/seeding.py",
        "import numpy as np\n"
        "\n"
        "\n"
        "def rng_for(name, seed):\n"
        "    return np.random.default_rng(seed + hash(name) % 10_000)\n",
    ),
    "FL101": (
        "repro/tabbed.py",
        "def f():\n\tif True:\n\t\treturn 1\n",
    ),
    "FL102": (
        "repro/trailing.py",
        "value = 1 \n",
    ),
    "FL103": (
        "repro/wide.py",
        "value = '" + "a" * 120 + "'\n",
    ),
    "FL104": (
        "repro/chopped.py",
        "value = 1",
    ),
    "FL105": (
        "repro/crlf.py",
        "value = 1\r\nother = 2\r\n",
    ),
    "FL900": (
        "repro/broken.py",
        "def broken(:\n",
    ),
}


def run_selftest() -> Dict[str, int]:
    """Run every seeded case; returns ``rule id -> matching finding count``.

    Each case runs in its own isolated root so violations cannot bleed
    between rules.  A healthy rule pack reports a count >= 1 for every id.
    """
    results: Dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="fairlint-selftest-") as tmp:
        for rule_id, (relpath, source) in sorted(SELFTEST_CASES.items()):
            root = Path(tmp) / rule_id
            target = root / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(source.encode("utf-8"))
            report = run_analysis([root], root=root)
            results[rule_id] = sum(
                1 for finding in report.findings if finding.rule == rule_id
            )
    return results
