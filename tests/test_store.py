import json
import os
import shutil
from dataclasses import asdict, fields
from pathlib import Path

import jsonschema
import pytest

from gridbench.canonical import canonical_json, sha256_hex
from gridbench.errors import DigestMismatch, GridBenchError, NotFound, SchemaViolation
from gridbench.explain import build_explainer, sample_background
from gridbench.metrics import (
    ClassificationMetrics,
    ExplanationMetrics,
    RobustnessMetrics,
    classification_metrics,
    explanation_metrics_suite,
    robustness_metrics_suite,
)
from gridbench.preprocess import PipelineConfig
from gridbench.stats import BootstrapInterval, ComparisonResult, WilcoxonResult, compare
from gridbench.store import (
    SCHEMA_VERSION,
    STUDY_RECORD_SCHEMA,
    DocumentStore,
    EnvironmentInfo,
    capture_environment,
    reproducibility_digest,
    validate,
)
from gridbench.study import STUDY_CONFIG_SCHEMA
from record_fixture import minimal_record


class TestValidate:
    def test_example_record_is_valid(self):
        assert validate(minimal_record()) == []

    def test_shipped_example_record_file_is_valid(self):
        path = Path(__file__).parent / "fixtures" / "example_record.json"
        document = json.loads(path.read_text(encoding="utf-8"))
        assert validate(document) == []
        # the shipped file is canonical: reserializing is byte-identical
        assert canonical_json(document) == path.read_text(encoding="utf-8")

    def test_missing_master_seed_names_the_field(self):
        record = minimal_record()
        del record["master_seed"]
        violations = validate(record)
        assert len(violations) == 1
        assert "master_seed" in violations[0]

    def test_wrong_train_seed_type_points_at_path(self):
        record = minimal_record()
        record["models"][0]["train_seed"] = "not-a-seed"
        violations = validate(record)
        assert len(violations) == 1
        assert violations[0].startswith("/models/0/train_seed:")

    def test_unknown_top_level_field_rejected(self):
        record = minimal_record()
        record["surprise"] = 1
        violations = validate(record)
        assert len(violations) == 1
        assert "surprise" in violations[0]

    @pytest.mark.parametrize("path, value", [
        (("master_seed",), 7.0),
        (("metrics", 0, "classification", "auc"), float("nan")),
        (("metrics", 0, "timings", "train_time"), float("inf")),
    ], ids=["integral_float", "nan", "infinity"])
    def test_integers_are_integral_and_numbers_finite(self, path, value):
        record = minimal_record()
        section = record
        for step in path[:-1]:
            section = section[step]
        section[path[-1]] = value
        violations = validate(record)
        assert len(violations) == 1
        assert violations[0].startswith("/" + "/".join(map(str, path)) + ":")

    def test_save_refuses_invalid_record(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        record = minimal_record()
        record["models"][0]["kind"] = "svm"
        with pytest.raises(SchemaViolation) as excinfo:
            store.save(record)
        assert "/models/0/kind" in str(excinfo.value)


class TestRoundTrip:
    def test_save_then_load_byte_identical(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        record = minimal_record()
        study_id = store.save(record)
        raw = store.load_bytes(study_id)
        assert raw == canonical_json(record).encode("utf-8")
        reloaded = store.load(study_id)
        assert canonical_json(reloaded).encode("utf-8") == raw

    def test_load_refuses_a_record_edited_after_its_digest(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        record = minimal_record()
        study_id = store.save(record)
        record["metrics"][1]["classification"]["auc"] = 0.123
        (store.records_dir / f"{study_id}.json").write_text(
            canonical_json(record), encoding="utf-8")
        with pytest.raises(DigestMismatch) as excinfo:
            store.load(study_id)
        assert record["reproducibility_digest"] in str(excinfo.value)
        assert reproducibility_digest(record) in str(excinfo.value)

    def test_load_missing_id(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        with pytest.raises(NotFound):
            store.load("missing-id")

    def test_records_are_immutable(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        record = minimal_record()
        store.save(record)
        with pytest.raises(GridBenchError, match="immutable"):
            store.save(record)

    def test_schema_file_shipped(self, tmp_path):
        DocumentStore(tmp_path / "store")
        schema_path = tmp_path / "store" / "schema" / "1.json"
        assert schema_path.is_file()
        schema = json.loads(schema_path.read_text())
        assert schema["additionalProperties"] is False


class TestQueryAndIndex:
    def test_empty_store_queries_empty(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        assert store.query() == []

    def test_save_writes_only_the_record(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        study_id = store.save(minimal_record())
        assert sorted(p.name for p in store.root.iterdir()) == ["records", "schema"]
        assert [p.name for p in store.records_dir.iterdir()] == [f"{study_id}.json"]

    def test_query_lists_a_record_copied_in(self, tmp_path):
        store_a = DocumentStore(tmp_path / "a")
        copied_id = store_a.save(minimal_record(
            study_id="11111111-0000-4000-8000-000000000000",
            created_at="2026-02-02T00:00:00.000000Z"))
        store_b = DocumentStore(tmp_path / "b")
        own_id = store_b.save(minimal_record())
        shutil.copy(store_a.records_dir / f"{copied_id}.json", store_b.records_dir)
        assert [s["study_id"] for s in store_b.query()] == [own_id, copied_id]
        assert store_b.load(copied_id) == store_a.load(copied_id)

    def test_crash_between_temp_write_and_rename(self, tmp_path):
        store = DocumentStore(tmp_path / "store")
        study_id = store.save(minimal_record())
        # neither a stranded temp file from a crashed writer nor a record
        # file that does not parse may break listing or loading
        (store.records_dir / "zzz.json.tmp").write_text("partial garbage")
        (store.records_dir / "bad.json").write_text("{ this is not json")
        assert [s["study_id"] for s in store.query()] == [study_id]
        assert store.load(study_id) == minimal_record()


class TestReproducibilityDigest:
    def test_host_and_timing_fields_excluded(self):
        a = minimal_record()
        b = minimal_record(study_id="11111111-0000-4000-8000-000000000000",
                           created_at="2026-02-02T00:00:00.000000Z")
        b["environment"]["cpu_model"] = "other-cpu"
        b["timings"]["total_seconds"] = 99.0
        for entry in b["metrics"]:
            entry["timings"]["train_time"] = 123.0
        assert reproducibility_digest(a) == reproducibility_digest(b)

    def test_metric_content_changes_digest(self):
        a = minimal_record()
        b = minimal_record()
        b["metrics"][0]["classification"]["auc"] = 0.5
        assert reproducibility_digest(a) != reproducibility_digest(b)

    def test_seed_changes_digest(self):
        a = minimal_record()
        b = minimal_record()
        b["master_seed"] = 8
        assert reproducibility_digest(a) != reproducibility_digest(b)


class TestCaptureEnvironment:
    def test_sane_values_on_this_host(self):
        env = capture_environment()
        assert env.ram_bytes > 0
        assert env.logical_cores >= 1
        assert env.cpu_model
        assert env.os
        assert env.artifact_version

    def test_stable_within_process(self):
        assert capture_environment().cpu_model == capture_environment().cpu_model

    def test_total_under_introspection_failure(self, monkeypatch):
        def boom(*args, **kwargs):
            raise OSError("no introspection")

        monkeypatch.setattr("gridbench.store._read_cpu_model",
                            lambda: (_ for _ in ()).throw(OSError("x")))
        monkeypatch.setattr(os, "sysconf", boom)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        with pytest.warns(UserWarning):
            env = capture_environment()
        assert env.cpu_model == "unknown"
        assert env.ram_bytes == 0
        assert env.logical_cores == 0


_RECORD = STUDY_RECORD_SCHEMA["properties"]
_CELL = _RECORD["metrics"]["items"]["properties"]
_COMPARISON = _RECORD["comparison"]["items"]
_SECTIONS = [
    (ClassificationMetrics, _CELL["classification"]),
    (ExplanationMetrics, _CELL["explanation"]),
    (RobustnessMetrics, _CELL["robustness"]),
    (WilcoxonResult, _COMPARISON["properties"]["wilcoxon"]),
    (BootstrapInterval, _COMPARISON["properties"]["bootstrap_ci"]),
    (EnvironmentInfo, _RECORD["environment"]),
    (PipelineConfig, _RECORD["preprocessing"]["properties"]["config"]),
]


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


class TestSectionsMatchSchema:
    """Every record section is ``asdict`` of a dataclass, so each dataclass
    must declare exactly the keys of its closed sub-schema."""

    @pytest.mark.parametrize("cls, schema", _SECTIONS,
                             ids=[cls.__name__ for cls, _ in _SECTIONS])
    def test_dataclass_fields_equal_schema_properties(self, cls, schema):
        assert _field_names(cls) == set(schema["properties"])

    def test_comparison_fields_plus_added_keys_equal_schema(self):
        added = {"a_values", "b_values", "effect_size_buckets"}
        assert _field_names(ComparisonResult) | added == set(_COMPARISON["properties"])

    def test_real_classification_section_validates(self):
        metrics = classification_metrics([0.1, 0.8, 0.4, 0.9], [0, 1, 1, 0])
        jsonschema.validate(asdict(metrics), _CELL["classification"])

    def test_real_robustness_section_validates(self, trained_models, blob_matrices):
        X_train, _, X_test, _ = blob_matrices
        suite = robustness_metrics_suite(trained_models["logreg"], X_test[:4],
                                         X_train, n_random_dirs=2,
                                         max_pairs=100, seed=0)
        assert suite.delta_adv
        jsonschema.validate(asdict(suite), _CELL["robustness"])

    def test_real_explanation_section_validates(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        (suite,) = explanation_metrics_suite(
            build_explainer(("blackbox",), mode="exact"), trained_models["tree"],
            X_test[:2], sample_background(X_test, 8, seed=0), n_probes=2, K=2)
        jsonschema.validate(asdict(suite), _CELL["explanation"])

    def test_real_environment_section_validates(self):
        jsonschema.validate(asdict(capture_environment()), _RECORD["environment"])

    @pytest.mark.parametrize("b_values", [[0.6, 0.5, 0.65], [0.9, 0.8, 0.7]],
                             ids=["computable", "all_pairs_tied"])
    def test_real_comparison_section_validates(self, b_values):
        a_values = [0.9, 0.8, 0.7]
        doc = compare("auc", a_values, b_values, n_resamples=200).to_dict()
        doc.update(a_values=a_values, b_values=b_values)
        jsonschema.validate(doc, _COMPARISON)


class TestSchemas:
    def test_record_schema_is_pinned_to_its_version(self):
        # A store writes schema/<version>.json once and never rewrites it, so
        # any edit to the record schema must come with a new SCHEMA_VERSION.
        assert (SCHEMA_VERSION, sha256_hex(canonical_json(STUDY_RECORD_SCHEMA))) == (
            "1", "9aebd1bb543165a0c127e514a47648696bffe8625b70f05a45a3ab45f1ac5df5")

    @pytest.mark.parametrize("schema", [STUDY_RECORD_SCHEMA, STUDY_CONFIG_SCHEMA],
                             ids=["record", "config"])
    def test_schema_is_a_valid_draft_2020_12_schema(self, schema):
        jsonschema.Draft202012Validator.check_schema(schema)
