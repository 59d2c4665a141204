"""Tests for catalog snapshot persistence (Catalog.save / Catalog.load)."""

import json

import pytest

from repro.catalog import Catalog, ResourceKind
from repro.core.formulations import (
    LEAST_UNFAIR_AVG_EMD,
    MOST_UNFAIR_AVG_EMD,
    Formulation,
)
from repro.data.filters import Equals, Not, OneOf
from repro.data.loaders import TABLE1_WEIGHTS, load_example_table1
from repro.errors import CatalogError, SessionError
from repro.experiments.workloads import crowdsourcing_marketplace
from repro.marketplace.entities import Job, Marketplace
from repro.metrics.histogram import Binning
from repro.scoring.linear import LinearScoringFunction
from repro.scoring.rank import RankDerivedScorer
from repro.service import FairnessService, QuantifyRequest
from repro.session.engine import FaiRankEngine
from repro.snapshot import SNAPSHOT_FORMAT, SNAPSHOT_VERSION


def populated_service() -> FairnessService:
    """A registry covering all four resource kinds (incl. a filtered job)."""
    service = FairnessService()
    service.register_dataset(load_example_table1(), name="table1")
    service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
    service.register_marketplace(crowdsourcing_marketplace(size=40, seed=7))
    service.register_formulation(MOST_UNFAIR_AVG_EMD)
    service.register_formulation(LEAST_UNFAIR_AVG_EMD)
    return service


class TestRoundTrip:
    def test_every_resource_kind_round_trips(self, tmp_path):
        catalog = populated_service().catalog
        path = tmp_path / "snap.json"
        catalog.save(path)
        loaded = Catalog.load(path)
        assert len(loaded) == len(catalog)
        for kind in ResourceKind:
            assert loaded.names(kind) == catalog.names(kind)

    def test_fingerprints_are_stable_after_reload(self, tmp_path):
        catalog = populated_service().catalog
        path = tmp_path / "snap.json"
        catalog.save(path)
        loaded = Catalog.load(path)
        for resource in catalog.resources():
            assert (
                loaded.get(resource.kind, resource.name).fingerprint
                == resource.fingerprint
            ), (resource.kind, resource.name)

    def test_snapshot_document_shape(self, tmp_path):
        path = tmp_path / "snap.json"
        document = populated_service().catalog.save(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == document
        assert on_disk["format"] == SNAPSHOT_FORMAT
        assert on_disk["version"] == SNAPSHOT_VERSION
        kinds = {entry["kind"] for entry in on_disk["resources"]}
        assert kinds == {"dataset", "function", "marketplace", "formulation"}

    def test_marketplace_round_trips_jobs_and_filters(self, tmp_path):
        catalog = populated_service().catalog
        path = tmp_path / "snap.json"
        catalog.save(path)
        original = catalog.resolve(ResourceKind.MARKETPLACE, "crowdsourcing-sim")
        reloaded = Catalog.load(path).resolve(ResourceKind.MARKETPLACE, "crowdsourcing-sim")
        assert reloaded.job_titles == original.job_titles
        filtered = reloaded.job("English transcription")
        assert filtered.candidate_filter == Equals("Language", "English")
        assert (
            reloaded.ranking_for("Content writing").entries
            == original.ranking_for("Content writing").entries
        )

    def test_composed_filters_round_trip(self, tmp_path):
        workers = load_example_table1()
        candidate_filter = Not(Equals("Gender", "Male")) | OneOf(
            "Country", ("India", "Other")
        )
        market = Marketplace(
            name="composed",
            workers=workers,
            jobs=[
                Job(
                    title="picky",
                    function=LinearScoringFunction({"Rating": 1.0}, name="picky"),
                    candidate_filter=candidate_filter,
                )
            ],
        )
        catalog = Catalog()
        catalog.register(market)
        path = tmp_path / "snap.json"
        catalog.save(path)
        reloaded = Catalog.load(path).resolve(ResourceKind.MARKETPLACE, "composed")
        assert reloaded.job("picky").candidate_filter == candidate_filter

    def test_formulation_with_explicit_binning_round_trips(self, tmp_path):
        catalog = Catalog()
        catalog.register(
            Formulation(bins=4, binning=Binning(low=0.0, high=2.0, bins=4)),
            name="wide",
        )
        path = tmp_path / "snap.json"
        catalog.save(path)
        reloaded = Catalog.load(path).resolve(ResourceKind.FORMULATION, "wide")
        assert reloaded.binning == Binning(low=0.0, high=2.0, bins=4)

    def test_frozen_entries_stay_frozen(self, tmp_path):
        catalog = Catalog()
        catalog.register(load_example_table1(), name="pinned", freeze=True)
        path = tmp_path / "snap.json"
        catalog.save(path)
        loaded = Catalog.load(path)
        assert loaded.get(ResourceKind.DATASET, "pinned").frozen is True
        with pytest.raises(CatalogError, match="frozen"):
            loaded.remove(ResourceKind.DATASET, "pinned")

    def test_served_results_are_identical_across_reboot(self, tmp_path):
        service = populated_service()
        path = tmp_path / "snap.json"
        service.catalog.save(path)
        rebooted = FairnessService(catalog=Catalog.load(path))
        request = QuantifyRequest(dataset="table1", function="table1-f")
        assert (
            rebooted.execute(request).canonical()
            == service.execute(request).canonical()
        )


class TestDatasetSources:
    def test_dataset_saved_by_loader_reference(self, tmp_path):
        catalog = Catalog()
        catalog.register(load_example_table1(), name="table1")
        path = tmp_path / "snap.json"
        document = catalog.save(
            path, dataset_sources={"table1": {"loader": "example_table1"}}
        )
        (entry,) = document["resources"]
        assert entry["source"] == {"loader": "example_table1"}
        assert "dataset" not in entry
        loaded = Catalog.load(path)
        assert (
            loaded.get(ResourceKind.DATASET, "table1").fingerprint
            == catalog.get(ResourceKind.DATASET, "table1").fingerprint
        )

    def test_csv_loader_reference(self, tmp_path):
        csv_path = tmp_path / "workers.csv"
        rows = ["Gender,Skill"] + [f"F,{0.2 + 0.05 * i}" for i in range(6)]
        rows += [f"M,{0.6 + 0.05 * i}" for i in range(6)]
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        from repro.data.loaders import load_csv

        dataset = load_csv(csv_path, protected_names=["Gender"], observed_names=["Skill"])
        catalog = Catalog()
        catalog.register(dataset, name="crawl")
        path = tmp_path / "snap.json"
        catalog.save(
            path,
            dataset_sources={
                "crawl": {
                    "loader": "csv",
                    "path": str(csv_path),
                    "protected": ["Gender"],
                    "observed": ["Skill"],
                }
            },
        )
        loaded = Catalog.load(path)
        assert (
            loaded.get(ResourceKind.DATASET, "crawl").fingerprint
            == catalog.get(ResourceKind.DATASET, "crawl").fingerprint
        )

    def test_drifted_source_content_is_rejected(self, tmp_path):
        csv_path = tmp_path / "workers.csv"
        csv_path.write_text("Gender,Skill\nF,0.4\nM,0.9\n", encoding="utf-8")
        from repro.data.loaders import load_csv

        catalog = Catalog()
        catalog.register(
            load_csv(csv_path, protected_names=["Gender"], observed_names=["Skill"]),
            name="crawl",
        )
        path = tmp_path / "snap.json"
        catalog.save(
            path,
            dataset_sources={
                "crawl": {
                    "loader": "csv",
                    "path": str(csv_path),
                    "protected": ["Gender"],
                    "observed": ["Skill"],
                }
            },
        )
        csv_path.write_text("Gender,Skill\nF,0.4\nM,0.1\n", encoding="utf-8")
        with pytest.raises(CatalogError, match="drifted"):
            Catalog.load(path)

    def test_synthetic_source_ignores_a_legacy_columnar_field(self, tmp_path):
        from repro.experiments.workloads import synthetic_population

        catalog = Catalog()
        catalog.register(synthetic_population(300, seed=4), name="pop")
        path = tmp_path / "snap.json"
        catalog.save(
            path,
            dataset_sources={
                "pop": {"loader": "synthetic", "size": 300, "seed": 4, "columnar": True}
            },
        )
        reloaded = Catalog.load(path).resolve(ResourceKind.DATASET, "pop")
        assert reloaded.to_records() == synthetic_population(300, seed=4).to_records()

    def test_unknown_loader_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "format": SNAPSHOT_FORMAT,
                    "version": SNAPSHOT_VERSION,
                    "resources": [
                        {
                            "kind": "dataset",
                            "name": "x",
                            "source": {"loader": "teleport"},
                        }
                    ],
                }
            )
        )
        with pytest.raises(CatalogError, match="unknown dataset loader 'teleport'"):
            Catalog.load(path)

    def test_sources_for_unregistered_datasets_are_rejected(self, tmp_path):
        catalog = Catalog()
        catalog.register(load_example_table1(), name="table1")
        with pytest.raises(CatalogError, match="unregistered"):
            catalog.save(
                tmp_path / "snap.json",
                dataset_sources={"nope": {"loader": "example_table1"}},
            )


class TestServingPathBuildsNoRows:
    def test_inline_population_serves_without_individual_rows(self, tmp_path, monkeypatch):
        from repro.data.dataset import Individual
        from repro.experiments.workloads import synthetic_population
        from repro.service import BreakdownRequest, CompareRequest, SweepRequest

        service = FairnessService()
        service.register_dataset(synthetic_population(2000, seed=1), name="pop")
        service.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="f"))
        service.register_function(
            LinearScoringFunction({"Language Test": 0.2, "Rating": 0.8}, name="g")
        )
        path = tmp_path / "inline.json"
        service.catalog.save(path)

        def no_rows(self, *args, **kwargs):
            raise AssertionError("an Individual row was built on the serving path")

        monkeypatch.setattr(Individual, "__init__", no_rows)
        loaded = FairnessService(catalog=Catalog.load(path))
        requests = [
            QuantifyRequest(dataset="pop", function="f", min_partition_size=50),
            BreakdownRequest(dataset="pop", function="f"),
            CompareRequest(dataset="pop", functions=("f", "g"), min_partition_size=50),
            SweepRequest(dataset="pop", function="f", steps=3, min_partition_size=50),
        ]
        for request in requests:
            result = loaded.execute(request)
            assert result.ok, result.error


class TestFailureModes:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="cannot read catalog snapshot"):
            Catalog.load(tmp_path / "absent.json")

    def test_truncated_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        populated_service().catalog.save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CatalogError, match="truncated"):
            Catalog.load(path)

    def test_arbitrary_json_is_not_a_snapshot(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"requests": []}))
        with pytest.raises(CatalogError, match="not a catalog snapshot"):
            Catalog.load(path)

    def test_unknown_version_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps({"format": SNAPSHOT_FORMAT, "version": 99, "resources": []})
        )
        with pytest.raises(CatalogError, match="unsupported catalog snapshot version 99"):
            Catalog.load(path)

    def test_malformed_entry_is_named(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(
            json.dumps(
                {
                    "format": SNAPSHOT_FORMAT,
                    "version": SNAPSHOT_VERSION,
                    "resources": [{"kind": "function"}],
                }
            )
        )
        with pytest.raises(CatalogError, match="entry #1"):
            Catalog.load(path)

    def test_non_linear_functions_cannot_be_saved(self, tmp_path):
        dataset = load_example_table1()
        ranking = LinearScoringFunction(TABLE1_WEIGHTS, name="hidden").rank(dataset)
        catalog = Catalog()
        catalog.register(RankDerivedScorer(ranking, name="from-ranks"))
        with pytest.raises(CatalogError, match="no portable content representation"):
            catalog.save(tmp_path / "snap.json")

    def test_tampered_fingerprint_is_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        populated_service().catalog.save(path)
        document = json.loads(path.read_text())
        document["resources"][0]["fingerprint"] = "0" * 64
        path.write_text(json.dumps(document))
        with pytest.raises(CatalogError, match="drifted"):
            Catalog.load(path)


class TestEngineExport:
    def test_engine_exports_its_registry(self, tmp_path):
        engine = FaiRankEngine()
        engine.register_dataset(load_example_table1(), name="table1")
        engine.register_function(LinearScoringFunction(TABLE1_WEIGHTS, name="table1-f"))
        path = tmp_path / "session.json"
        engine.save_catalog(path)
        loaded = Catalog.load(path)
        assert loaded.names(ResourceKind.DATASET) == ("table1",)
        assert loaded.names(ResourceKind.FUNCTION) == ("table1-f",)

    def test_engine_export_failure_is_a_session_error(self, tmp_path):
        engine = FaiRankEngine()
        dataset = load_example_table1()
        engine.register_dataset(dataset, name="table1")
        ranking = LinearScoringFunction(TABLE1_WEIGHTS, name="f").rank(dataset)
        engine.register_function(RankDerivedScorer(ranking, name="opaque-ish"))
        with pytest.raises(SessionError, match="no portable content representation"):
            engine.save_catalog(tmp_path / "session.json")

    def test_cli_catalog_save_writes_a_bootable_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "snap.json"
        assert main(["catalog", "--market-size", "40", "--save", str(path)]) == 0
        assert "snapshot written" in capsys.readouterr().out
        loaded = Catalog.load(path)
        assert "table1" in loaded.names(ResourceKind.DATASET)
        assert "crowdsourcing-sim" in loaded.names(ResourceKind.MARKETPLACE)
