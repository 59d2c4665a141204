"""Fixture-backed tests for every ``repro.analysis`` rule.

Each rule gets the four fixture flavours the analysis plane promises:

* **positive** — the seeded violation from :mod:`repro.analysis.selftest`
  fires (parametrised over every registered id, so a new rule without a
  seed fails here before it fails in CI);
* **negative** — the compliant twin of the violation stays silent;
* **suppressed** — a ``# fairlint: disable=`` directive drops the finding
  without leaving an unused-suppression FL000 behind;
* **baseline-masked** — the same violation masked by a baseline built
  from its own findings passes the gate.

Fixture sources live inline (never under ``tests/`` paths the real lint
run analyses — ``DEFAULT_TARGETS`` excludes tests for exactly this
reason) and run in isolated tmp roots.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import baseline_from_findings, rule_ids, run_analysis
from repro.analysis.selftest import SELFTEST_CASES

#: AST-backed ids whose seeded violation can be suppressed by inserting a
#: standalone directive line above the finding (format-floor rules get
#: explicit suppression tests below; FL000 is unsuppressible, FL900 has
#: no line to annotate).
_SUPPRESSIBLE = ("FL001", "FL002", "FL003", "FL004", "FL005", "FL006", "FL007")


def analyse(root: Path, relpath: str, source, **extra_files):
    """Write one fixture module (plus optional docs) and run the engine."""
    for name, text in extra_files.items():
        doc = root / "docs" / f"{name}.md"
        doc.parent.mkdir(parents=True, exist_ok=True)
        doc.write_text(text, encoding="utf-8")
    target = root / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    data = source if isinstance(source, bytes) else source.encode("utf-8")
    target.write_bytes(data)
    return run_analysis([root], root=root)


def fired(report, rule_id):
    return [finding for finding in report.findings if finding.rule == rule_id]


class TestEveryRule:
    @pytest.mark.parametrize("rule_id", sorted(SELFTEST_CASES))
    def test_positive_seeded_violation_fires(self, tmp_path, rule_id):
        relpath, source = SELFTEST_CASES[rule_id]
        report = analyse(tmp_path, relpath, source)
        findings = fired(report, rule_id)
        assert findings, f"{rule_id} missed its seeded violation"
        assert report.failed
        for finding in findings:
            assert finding.text().startswith(f"{relpath}:")
            assert f" {rule_id} " in finding.text()

    @pytest.mark.parametrize("rule_id", sorted(SELFTEST_CASES))
    def test_baseline_masks_the_seeded_violation(self, tmp_path, rule_id):
        relpath, source = SELFTEST_CASES[rule_id]
        first = analyse(tmp_path, relpath, source)
        baseline = baseline_from_findings(first.findings)
        masked = run_analysis([tmp_path], root=tmp_path, baseline=baseline)
        assert not masked.failed
        assert not masked.diff.new and not masked.diff.stale
        assert len(masked.diff.masked) == len(first.findings)

    @pytest.mark.parametrize("rule_id", _SUPPRESSIBLE)
    def test_standalone_directive_suppresses(self, tmp_path, rule_id):
        relpath, source = SELFTEST_CASES[rule_id]
        line = analyse(tmp_path, relpath, source).findings[0].line
        lines = source.splitlines(keepends=True)
        lines.insert(line - 1, f"# fairlint: disable={rule_id} -- fixture\n")
        report = analyse(tmp_path, relpath, "".join(lines))
        assert not fired(report, rule_id), f"directive did not drop {rule_id}"
        assert not fired(report, "FL000"), "used directive reported as unused"

    def test_registry_and_selftest_cover_the_same_ids(self):
        assert set(SELFTEST_CASES) == set(rule_ids())


class TestLockDiscipline:
    def test_locked_writes_are_clean(self, tmp_path):
        report = analyse(tmp_path, "repro/store.py", (
            "import threading\n\n\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._hits = 0\n\n"
            "    def record(self):\n"
            "        with self._lock:\n"
            "            self._hits += 1\n"
        ))
        assert not fired(report, "FL001")

    def test_locked_suffix_method_is_exempt(self, tmp_path):
        report = analyse(tmp_path, "repro/store.py", (
            "import threading\n\n\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._hits = 0\n\n"
            "    def record(self):\n"
            "        with self._lock:\n"
            "            self._evict_locked()\n\n"
            "    def _evict_locked(self):\n"
            "        self._hits += 1\n"
        ))
        assert not fired(report, "FL001")

    def test_unguarded_attribute_is_not_flagged(self, tmp_path):
        # _free is never touched under the lock, so it is not in the
        # guarded set and plain writes to it are fine.
        report = analyse(tmp_path, "repro/store.py", (
            "import threading\n\n\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n\n"
            "    def record(self):\n"
            "        with self._lock:\n"
            "            self._hits = 1\n\n"
            "    def tag(self):\n"
            "        self._free = 2\n"
        ))
        assert not fired(report, "FL001")

    def test_nested_function_does_not_inherit_lock_context(self, tmp_path):
        # The closure may run on another thread after the with-block
        # exits; its write must still count as unlocked.
        report = analyse(tmp_path, "repro/store.py", (
            "import threading\n\n\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._hits = 0\n\n"
            "    def record(self):\n"
            "        with self._lock:\n"
            "            self._hits += 1\n\n"
            "            def later():\n"
            "                self._hits += 1\n\n"
            "            return later\n"
        ))
        assert len(fired(report, "FL001")) == 1


class TestHotPathMaterialisation:
    def test_iter_rows_outside_hot_paths_is_fine(self, tmp_path):
        _, source = SELFTEST_CASES["FL002"]
        report = analyse(tmp_path, "repro/session/hot.py", source)
        assert not fired(report, "FL002")

    def test_seeded_case_covers_core_member_reads(self, tmp_path):
        relpath, source = SELFTEST_CASES["FL002"]
        messages = [f.message for f in fired(analyse(tmp_path, relpath, source), "FL002")]
        assert any(".members" in message for message in messages)
        assert any(".iter_rows()" in message for message in messages)

    @pytest.mark.parametrize("expression", [
        "partition.members",
        "dataset.individuals",
        "dataset.group_by(['Gender'])",
        "dataset.select_uids(['w1'])",
    ])
    def test_core_row_access_is_flagged_only_in_core(self, tmp_path, expression):
        source = f"def rows(partition, dataset):\n    return {expression}\n"
        assert fired(analyse(tmp_path / "core", "repro/core/hot.py", source), "FL002")
        for layer in ("repro/scoring/hot.py", "repro/session/hot.py"):
            assert not fired(analyse(tmp_path / layer, layer, source), "FL002")

    def test_columnar_access_on_hot_path_is_fine(self, tmp_path):
        report = analyse(tmp_path, "repro/core/hot.py", (
            "def total(dataset):\n"
            "    return float(dataset.numeric_column('score').sum())\n"
        ))
        assert not fired(report, "FL002")


class TestCanonicalDrift:
    def test_documented_field_is_fine(self, tmp_path):
        _, source = SELFTEST_CASES["FL003"]
        report = analyse(
            tmp_path, "service/jobs.py", source,
            PROTOCOL="The envelope carries `surprise` (int).\n",
        )
        assert not fired(report, "FL003")

    def test_field_excluded_from_canonical_is_fine(self, tmp_path):
        report = analyse(tmp_path, "service/jobs.py", (
            "import json\n"
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class ServiceResult:\n"
            "    value: int = 0\n"
            "    elapsed_s: float = 0.0\n\n"
            "    def canonical(self):\n"
            "        return json.dumps({'value': self.value})\n"
        ), PROTOCOL="The envelope carries `value`.\n")
        assert not fired(report, "FL003")

    def test_undocumented_request_field_fires(self, tmp_path):
        report = analyse(tmp_path, "service/jobs.py", (
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class QuantifyRequest:\n"
            "    mystery: int = 0\n"
        ), PROTOCOL="No fields documented here.\n")
        assert len(fired(report, "FL003")) == 1

    def test_rule_only_looks_at_service_jobs(self, tmp_path):
        _, source = SELFTEST_CASES["FL003"]
        report = analyse(tmp_path, "service/other.py", source)
        assert not fired(report, "FL003")


class TestFingerprintCompleteness:
    def test_scorer_with_fingerprint_is_fine(self, tmp_path):
        report = analyse(tmp_path, "repro/scoring/custom.py", (
            "from repro.scoring.base import ScoringFunction\n\n\n"
            "class GoodScorer(ScoringFunction):\n"
            "    def score(self, row):\n"
            "        return 1.0\n\n"
            "    def fingerprint(self):\n"
            "        return 'good-scorer'\n"
        ))
        assert not fired(report, "FL004")

    def test_pickle_outside_sanctioned_site_fires(self, tmp_path):
        report = analyse(tmp_path, "repro/service/cache.py", (
            "import pickle\n\n\n"
            "def key(value):\n"
            "    return pickle.dumps(value)\n"
        ))
        assert len(fired(report, "FL004")) == 1

    def test_pickle_in_sanctioned_site_is_fine(self, tmp_path):
        report = analyse(tmp_path, "repro/service/fingerprint.py", (
            "import pickle\n\n\n"
            "def fallback(value):\n"
            "    return pickle.dumps(value)\n"
        ))
        assert not fired(report, "FL004")


class TestMetricsNaming:
    def test_documented_convention_name_is_fine(self, tmp_path):
        report = analyse(
            tmp_path, "repro/obs/custom.py",
            "def install(registry):\n"
            "    registry.counter('fairank_good_total', 'help').inc()\n",
            OPERATIONS="| `fairank_good_total` | a documented family |\n",
        )
        assert not fired(report, "FL005")

    def test_undocumented_convention_name_fires(self, tmp_path):
        report = analyse(
            tmp_path, "repro/obs/custom.py",
            "def install(registry):\n"
            "    registry.counter('fairank_secret_total', 'help').inc()\n",
            OPERATIONS="Nothing documented.\n",
        )
        findings = fired(report, "FL005")
        assert len(findings) == 1
        assert "not documented" in findings[0].message

    def test_dynamic_family_name_is_skipped(self, tmp_path):
        report = analyse(tmp_path, "repro/obs/custom.py", (
            "def install(registry, name):\n"
            "    registry.counter(name, 'help').inc()\n"
        ))
        assert not fired(report, "FL005")


class TestThreadHygiene:
    def test_sleep_outside_serving_paths_is_fine(self, tmp_path):
        _, source = SELFTEST_CASES["FL006"]
        report = analyse(tmp_path, "repro/session/slowpath.py", source)
        assert not fired(report, "FL006")

    def test_event_wait_is_the_blessed_pattern(self, tmp_path):
        report = analyse(tmp_path, "repro/server/poll.py", (
            "def handle_poll(stopping):\n"
            "    stopping.wait(timeout=0.05)\n"
        ))
        assert not fired(report, "FL006")

    def test_daemon_thread_in_handler_fires(self, tmp_path):
        report = analyse(tmp_path, "repro/server/handlers.py", (
            "import threading\n\n\n"
            "def do_POST(payload):\n"
            "    threading.Thread(target=print, daemon=True).start()\n"
        ))
        assert len(fired(report, "FL006")) == 1

    def test_daemon_thread_in_lifecycle_code_is_fine(self, tmp_path):
        report = analyse(tmp_path, "repro/server/lifecycle.py", (
            "import threading\n\n\n"
            "def start_reaper(pool):\n"
            "    threading.Thread(target=pool.reap, daemon=True).start()\n"
        ))
        assert not fired(report, "FL006")


class TestSwallowedException:
    def test_logged_handler_is_fine(self, tmp_path):
        report = analyse(tmp_path, "repro/util.py", (
            "def read(path, log):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except OSError as error:\n"
            "        log.warning('read failed: %s', error)\n"
            "        return ''\n"
        ))
        assert not fired(report, "FL007")

    def test_reraising_handler_is_fine(self, tmp_path):
        report = analyse(tmp_path, "repro/util.py", (
            "def read(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except OSError:\n"
            "        raise\n"
        ))
        assert not fired(report, "FL007")

    def test_typed_noop_handler_fires(self, tmp_path):
        report = analyse(tmp_path, "repro/util.py", (
            "def read(path):\n"
            "    try:\n"
            "        return open(path).read()\n"
            "    except (OSError, ValueError):\n"
            "        pass\n"
        ))
        assert len(fired(report, "FL007")) == 1


class TestFormatFloor:
    def test_multiline_string_interior_is_exempt(self, tmp_path):
        report = analyse(
            tmp_path, "repro/banner.py",
            'BANNER = """\n\ttab and trailing space \ncontent\n"""\n',
        )
        assert not fired(report, "FL101")
        assert not fired(report, "FL102")

    def test_exactly_max_length_is_fine(self, tmp_path):
        line = "value = '" + "a" * 90 + "'"
        assert len(line) == 100
        report = analyse(tmp_path, "repro/wide.py", line + "\n")
        assert not fired(report, "FL103")

    def test_lf_file_with_final_newline_is_clean(self, tmp_path):
        report = analyse(tmp_path, "repro/tidy.py", "value = 1\n")
        assert not report.findings

    def test_crlf_reports_once_per_file(self, tmp_path):
        _, source = SELFTEST_CASES["FL105"]
        report = analyse(tmp_path, "repro/crlf.py", source)
        assert len(fired(report, "FL105")) == 1

    def test_inline_directive_suppresses_long_line(self, tmp_path):
        source = (
            "value = '" + "a" * 120 + "'"
            "  # fairlint: disable=FL103 -- fixture\n"
        )
        report = analyse(tmp_path, "repro/wide.py", source)
        assert not fired(report, "FL103")
        assert not fired(report, "FL000")


class TestSuppressionEngine:
    def test_inline_directive_covers_its_own_line_only(self, tmp_path):
        report = analyse(tmp_path, "repro/wide.py", (
            "first = '" + "a" * 120 + "'  # fairlint: disable=FL103 -- one\n"
            "second = '" + "a" * 120 + "'\n"
        ))
        findings = fired(report, "FL103")
        assert [finding.line for finding in findings] == [2]

    def test_standalone_directive_covers_the_next_line_only(self, tmp_path):
        report = analyse(tmp_path, "repro/wide.py", (
            "# fairlint: disable=FL103 -- next line only\n"
            "first = '" + "a" * 120 + "'\n"
            "second = '" + "a" * 120 + "'\n"
        ))
        findings = fired(report, "FL103")
        assert [finding.line for finding in findings] == [3]

    def test_comma_separated_ids_all_apply(self, tmp_path):
        # One directive, two seeded violations on its line: over-long AND
        # trailing whitespace.
        report = analyse(tmp_path, "repro/messy.py", (
            "value = '" + "a" * 120 + "'   # fairlint: disable=FL103,FL102 -- x \n"
        ))
        assert not fired(report, "FL103")
        assert not fired(report, "FL102")
        assert not fired(report, "FL000")

    def test_unused_directive_becomes_fl000(self, tmp_path):
        report = analyse(tmp_path, "repro/stale.py", (
            "value = 1  # fairlint: disable=FL103 -- nothing to suppress\n"
        ))
        findings = fired(report, "FL000")
        assert len(findings) == 1
        assert report.failed

    def test_malformed_directive_becomes_fl000(self, tmp_path):
        report = analyse(tmp_path, "repro/typo.py", (
            "value = 1  # fairlint disable=103\n"
        ))
        assert len(fired(report, "FL000")) == 1

    def test_fl000_itself_cannot_be_suppressed(self, tmp_path):
        report = analyse(tmp_path, "repro/meta.py", (
            "value = 1  # fairlint: disable=FL103,FL000 -- nice try\n"
        ))
        assert fired(report, "FL000")

    def test_directive_in_docstring_is_ignored(self, tmp_path):
        # Only COMMENT tokens carry directives; documentation that quotes
        # the syntax must not create (unused) suppressions.
        report = analyse(tmp_path, "repro/doc.py", (
            'def f():\n'
            '    """Use `# fairlint: disable=FL103` to suppress."""\n'
            '    return 1\n'
        ))
        assert not fired(report, "FL000")

    def test_syntax_error_reports_fl900_only_once(self, tmp_path):
        relpath, source = SELFTEST_CASES["FL900"]
        report = analyse(tmp_path, relpath, source)
        assert len(fired(report, "FL900")) == 1
        assert report.failed
