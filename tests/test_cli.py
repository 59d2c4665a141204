"""Tests for the fairank command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quantify_defaults(self):
        args = build_parser().parse_args(["quantify"])
        assert args.command == "quantify"
        assert args.objective == "most_unfair"
        assert args.bins == 5
        assert not args.ranks_only

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTable1Command:
    def test_prints_all_rows(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "w1" in output and "w10" in output
        assert "0.971" in output  # w7's published score


class TestQuantifyCommand:
    def test_default_runs_on_table1(self, capsys):
        assert main(["quantify", "--attributes", "Gender", "Language"]) == 0
        output = capsys.readouterr().out
        assert "unfairness:" in output
        assert "most favored:" in output
        assert "ALL" in output  # tree rendering

    def test_no_tree_flag(self, capsys):
        assert main(["quantify", "--attributes", "Gender", "--no-tree"]) == 0
        output = capsys.readouterr().out
        assert "unfairness:" in output
        assert "ALL (" not in output

    def test_least_unfair_objective_and_custom_weights(self, capsys):
        assert main([
            "quantify", "--objective", "least_unfair",
            "--weight", "Rating=1.0", "--attributes", "Gender", "Language",
        ]) == 0
        output = capsys.readouterr().out
        assert "minimise" in output

    def test_ranks_only(self, capsys):
        assert main(["quantify", "--ranks-only", "--attributes", "Gender"]) == 0
        assert "ranks only" in capsys.readouterr().out

    def test_invalid_weight_is_reported(self, capsys):
        assert main(["quantify", "--weight", "Rating"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_weight_attribute_is_reported(self, capsys):
        assert main(["quantify", "--weight", "NotAColumn=1.0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_requires_column_lists(self, capsys):
        assert main(["quantify", "--csv", "whatever.csv"]) == 2
        assert "requires" in capsys.readouterr().err

    def test_csv_input(self, tmp_path, capsys):
        path = tmp_path / "workers.csv"
        rows = ["Gender,City,Skill"]
        rows += [f"F,NY,{0.2 + 0.01 * i}" for i in range(10)]
        rows += [f"M,SF,{0.7 + 0.01 * i}" for i in range(10)]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main([
            "quantify", "--csv", str(path),
            "--protected", "Gender", "City", "--observed", "Skill",
        ]) == 0
        output = capsys.readouterr().out
        assert "unfairness:" in output
        # Gender and City are perfectly correlated in this toy file, so the
        # search may split on either; both isolate the low-scoring group.
        assert "City=" in output or "Gender=" in output


class TestAuditCommand:
    def test_audit_simulated_platform(self, capsys):
        assert main([
            "audit", "--platform", "taskrabbit-sim", "--workers", "120",
            "--min-partition-size", "5",
            "--attributes", "Gender", "Ethnicity",
        ]) == 0
        output = capsys.readouterr().out
        assert "Fairness report" in output
        assert "most unfair job" in output


class TestServeBatchPartialFailure:
    """Regression: a mixed batch exits 1 *and* reports every error in-slot."""

    def test_mixed_batch_exits_1_with_every_error_envelope(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
            {"kind": "quantify", "dataset": "missing-data", "function": "table1-f"},
            {"kind": "compare", "dataset": "table1",
             "functions": ["table1-f", "balanced"]},
            {"kind": "audit", "marketplace": "missing-market"},
        ]))
        # Partial failure must be visible to scripts without parsing stdout.
        assert main(["serve-batch", str(path), "--market-size", "60"]) == 1
        output = capsys.readouterr().out
        # Every request still produced a row, in input order ...
        rows = [line for line in output.splitlines()
                if line.strip() and line.lstrip()[0].isdigit()]
        assert len(rows) == 4
        assert [row.split()[1] for row in rows] == [
            "quantify", "quantify", "compare", "audit",
        ]
        # ... the valid slots served, the invalid slots carry envelopes.
        assert "error" in rows[1] and "error" in rows[3]
        assert "! #2" in output and "unknown dataset 'missing-data'" in output
        assert "! #4" in output and "unknown marketplace 'missing-market'" in output
        assert "2 request(s) returned an error envelope" in output

    def test_mixed_batch_fails_in_serial_mode_too(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
            {"kind": "quantify", "dataset": "missing-data", "function": "table1-f"},
        ]))
        assert main(["serve-batch", str(path), "--market-size", "60"]) == 1
        output = capsys.readouterr().out
        assert "! #2" in output and "unknown dataset 'missing-data'" in output

    def test_repeat_rounds_report_stable_per_request_errors(self, tmp_path, capsys):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps([
            {"kind": "quantify", "dataset": "table1", "function": "table1-f"},
            {"kind": "quantify", "dataset": "missing-data", "function": "table1-f"},
        ]))
        assert main(["serve-batch", str(path), "--market-size", "60",
                     "--repeat", "2"]) == 1
        output = capsys.readouterr().out
        # Errors are never cached: both rounds fail the same single request,
        # and the summary counts per-request, not per-round.
        assert output.count("! #2") == 2
        assert "1 request(s) returned an error envelope" in output


class TestExperimentsCommand:
    def test_run_single_experiment(self, capsys):
        assert main(["experiments", "E1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "10/10 published scores reproduced" in output

    def test_run_two_experiments(self, capsys):
        assert main(["experiments", "E1", "E2"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E2" in output


class TestServeErrorPaths:
    """`fairank serve` must fail fast — exit 2 + a stderr message — for a
    registry it cannot boot, instead of binding a port it cannot serve."""

    def test_missing_snapshot_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json"
        assert main(["serve", "--catalog", str(missing), "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "cannot read catalog snapshot" in captured.err
        assert "serving fairness protocol v2" not in captured.out

    def test_missing_snapshot_file_exits_2_in_sharded_mode(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json"
        assert main(["serve", "--catalog", str(missing),
                     "--workers", "3", "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert "cannot read catalog snapshot" in captured.err
        assert "serving fairness protocol v2" not in captured.out

    def test_drifted_dataset_fingerprint_exits_2(self, tmp_path, capsys):
        from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
        from repro.scoring.linear import LinearScoringFunction
        from repro.service import FairnessService

        service = FairnessService()
        service.register_dataset(load_example_table1(), name="table1")
        service.register_function(
            LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f")
        )
        snapshot = tmp_path / "snap.json"
        service.catalog.save(snapshot)
        # Tamper with one individual's value but keep the recorded
        # fingerprint: the rebuilt content no longer matches it.
        document = json.loads(snapshot.read_text())
        for entry in document["resources"]:
            if entry["kind"] == "dataset":
                entry["dataset"]["individuals"][0]["values"]["Rating"] = 99.0
                break
        snapshot.write_text(json.dumps(document))
        assert main(["serve", "--catalog", str(snapshot), "--port", "0"]) == 2
        captured = capsys.readouterr()
        assert "drifted" in captured.err
        assert "serving fairness protocol v2" not in captured.out

    def test_truncated_snapshot_exits_2(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text('{"format": "fairank-catalog", "version"')
        assert main(["serve", "--catalog", str(snapshot), "--port", "0"]) == 2
        assert "not valid JSON" in capsys.readouterr().err
