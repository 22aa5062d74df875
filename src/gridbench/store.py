"""File-backed document store for study records.

Documents are canonical JSON (sorted keys, 17-significant-digit floats) so
reloading and re-serializing a record is byte-identical. The schema is
closed: unknown fields are violations, which keeps silent drift impossible.
Every reader goes through ``read_record``, which refuses a record that does
not parse, breaks the schema or whose digest does not match its content.
"""

from __future__ import annotations

import json
import os
import platform
import uuid
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .canonical import (_INT, _NUMBER, _STR, _TYPED, _fields, _obj, _violations,
                        canonical_json, sha256_hex)
from .errors import (
    DigestMismatch,
    GridBenchError,
    NotFound,
    SchemaViolation,
    UnreadableRecord,
    ValidationError,
)
from .explain import EXPLAINER_KINDS, MODES
from .metrics import ClassificationMetrics, ExplanationMetrics, RobustnessMetrics
from .models import MODEL_KINDS
from .preprocess import PipelineConfig
from .stats import (BOOTSTRAP_METHODS, EFFECT_LABELS, EFFECT_SIZE_BUCKETS,
                    WILCOXON_METHODS, BootstrapInterval, ComparisonResult)

SCHEMA_VERSION = "1"

# Static linked-data context shipped with every record; no resolution is
# performed, the store only demonstrates the documents are JSON-LD ready.
LD_CONTEXT = {
    "@vocab": "https://gridbench.invalid/terms#",
    "study_id": "https://gridbench.invalid/terms#studyIdentifier",
    "datasets": "https://gridbench.invalid/terms#datasetDescriptor",
    "models": "https://gridbench.invalid/terms#modelDescriptor",
    "metrics": "https://gridbench.invalid/terms#metricReport",
    "comparison": "https://gridbench.invalid/terms#comparisonResult",
    "environment": "https://gridbench.invalid/terms#environmentInfo",
}

# Each record section that ``asdict`` of a dataclass fills has that
# dataclass's fields as its keys.
_CLASSIFICATION = _fields(
    ClassificationMetrics,
    confusion=_obj({"tp": _INT, "fp": _INT, "tn": _INT, "fn": _INT}))
_EXPLANATION = _fields(ExplanationMetrics)
_ROBUSTNESS = _fields(RobustnessMetrics)

_TIMINGS = _obj({
    "train_time": _NUMBER,
    "predict_time": _NUMBER,
    "explain_time": _NUMBER,
})

# Incomputable tests keep the object shape with null members so the schema
# stays inside the subset (types, required, enum, closed objects).
_WILCOXON = _obj({
    "statistic": {"type": ["number", "null"]},
    "p_value": {"type": ["number", "null"]},
    "n_effective": {"type": ["integer", "null"]},
    "method": {"enum": [*WILCOXON_METHODS, None]},
})

_BOOTSTRAP = _fields(BootstrapInterval,
                     method={"enum": list(BOOTSTRAP_METHODS)})

_COMPARISON = _fields(
    ComparisonResult,
    wilcoxon=_WILCOXON,
    effect_label={"enum": [*EFFECT_LABELS, None]},
    bootstrap_ci=_BOOTSTRAP,
    a_values=_TYPED["list[float]"],
    b_values=_TYPED["list[float]"],
    effect_size_buckets=_obj(dict.fromkeys(EFFECT_SIZE_BUCKETS, _NUMBER)))

# Record pieces that a study config shares: ``study.STUDY_CONFIG_SCHEMA``
# makes their keys optional and adds ranges.
PREPROCESSING_CONFIG_SCHEMA = _fields(PipelineConfig)

METRICS_DEFAULTS = {
    "statistics": True,
    "sens_radius": 0.01,
    "morf_k": 5,
    "n_probes": 8,
    "explain_instances": 12,
    "robustness_instances": 8,
    "n_random_dirs": 4,
    "lipschitz_max_pairs": 2000,
    "bootstrap_resamples": 5000,
    "confidence_level": 0.95,
}

METRICS_CONFIG_SCHEMA = _obj({key: _TYPED[type(default).__name__]
                              for key, default in METRICS_DEFAULTS.items()})

EXPLAINER_KIND_SCHEMA = {"enum": list(EXPLAINER_KINDS)}
EXPLAINER_MODE_SCHEMA = {"enum": list(MODES)}


@dataclass(frozen=True)
class EnvironmentInfo:
    cpu_model: str
    logical_cores: int
    ram_bytes: int
    os: str
    artifact_version: str


STUDY_RECORD_SCHEMA = _obj({
    "study_id": _STR,
    "created_at": _STR,
    "schema_version": _STR,
    "ld_context": _obj({key: _STR for key in LD_CONTEXT}),
    "master_seed": _INT,
    "datasets": {"type": "array", "items": _obj({
        "name": _STR,
        "content_hash": _STR,
        "purdue_level": {"type": ["integer", "null"]},
        "split_seed": _INT,
        "train_fraction": _NUMBER,
        "synthetic_spec": {"type": ["object", "null"]},
        "n_rows": _INT,
        "n_train": _INT,
        "n_test": _INT,
        "dropped_rows": _INT,
        "train_content_hash": _STR,
        "test_content_hash": _STR,
    })},
    "preprocessing": _obj({
        "config": PREPROCESSING_CONFIG_SCHEMA,
        "fitted": {"type": "array", "items": _obj({
            "dataset": _STR,
            "parameter_digest": _STR,
            "output_dimension": _INT,
        })},
    }),
    "models": {"type": "array", "items": _obj({
        "algorithm": _STR,
        "dataset": _STR,
        "kind": {"enum": list(MODEL_KINDS)},
        "hyperparameters": {"type": "object"},
        "train_seed": _INT,
        "threshold": _NUMBER,
        "parameter_digest": _STR,
    })},
    "explainers": {"type": "array", "items": _obj({
        "algorithm": _STR,
        "dataset": _STR,
        "kind": EXPLAINER_KIND_SCHEMA,
        "mode": EXPLAINER_MODE_SCHEMA,
        "n_samples": _INT,
        "background_size": _INT,
        "background_seed": _INT,
    })},
    "metrics_config": METRICS_CONFIG_SCHEMA,
    "metrics": {"type": "array", "items": _obj({
        "algorithm": _STR,
        "dataset": _STR,
        "classification": _CLASSIFICATION,
        "explanation": _EXPLANATION,
        "robustness": _ROBUSTNESS,
        "timings": _TIMINGS,
    })},
    "comparison": {"type": "array", "items": _COMPARISON},
    "environment": _fields(EnvironmentInfo),
    "timings": _obj({"total_seconds": _NUMBER}),
    "reproducibility_digest": _STR,
})

# Fields a rerun cannot reproduce; everything else feeds the digest.
DIGEST_EXCLUDED_FIELDS = ("study_id", "created_at", "environment", "timings",
                          "reproducibility_digest")
# (family, name) of every per-cell metric the comparison block and the
# summary table cover, in their order.
COMPARED_METRICS = (
    ("classification", "false_positive_rate"),
    ("classification", "auc"),
    ("classification", "balanced_accuracy"),
    ("classification", "mcc"),
    ("explanation", "explanation_error"),
    ("explanation", "sens_max"),
    ("explanation", "auc_morf"),
    ("robustness", "mean_delta_adv"),
    ("robustness", "lipschitz_lower"),
    ("timings", "train_time"),
    ("timings", "predict_time"),
    ("timings", "explain_time"),
)
# Wall-clock metrics stay in the record (their comparison is itself a
# reported result) but never enter the digest.
TIMING_METRIC_NAMES = tuple(name for family, name in COMPARED_METRICS
                            if family == "timings")


def _read_cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def capture_environment() -> EnvironmentInfo:
    """Best-effort host introspection; failures degrade to 'unknown', never raise."""
    from . import __version__

    try:
        cpu = _read_cpu_model()
    except Exception:  # introspection must be total
        warnings.warn("CPU model could not be determined")
        cpu = "unknown"
    try:
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (OSError, ValueError, AttributeError):
        warnings.warn("RAM size could not be determined")
        ram = 0
    return EnvironmentInfo(
        cpu_model=cpu or "unknown",
        logical_cores=os.cpu_count() or 0,
        ram_bytes=int(ram),
        os=f"{platform.system()} {platform.release()}",
        artifact_version=__version__,
    )


def new_study_id() -> str:
    return str(uuid.uuid4())


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def validate(document: dict) -> list[str]:
    """Validate against the study-record schema; returns JSON-pointer violations."""
    return _violations(STUDY_RECORD_SCHEMA, document)


def reproducibility_digest(record: dict) -> str:
    """Hash over all seed/config/metric content (timings and host excluded)."""
    doc = {k: v for k, v in record.items() if k not in DIGEST_EXCLUDED_FIELDS}
    doc["metrics"] = [{k: v for k, v in entry.items() if k != "timings"}
                      for entry in doc["metrics"]]
    doc["comparison"] = [c for c in doc["comparison"]
                         if c["metric_name"] not in TIMING_METRIC_NAMES]
    return sha256_hex(canonical_json(doc))


def read_record(data: bytes, name: str) -> dict:
    """The study record in ``data``: UTF-8 JSON (else UnreadableRecord), an
    object meeting the record schema whose comparisons are all of
    ``COMPARED_METRICS``, and a digest matching its content as when the run
    saved it (else DigestMismatch). Errors name it ``name``."""
    try:
        record = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise UnreadableRecord(f"record {name} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ValidationError(f"record {name} is not a JSON object")
    violations = validate(record)
    if violations:
        raise ValidationError(f"record {name} breaks the record schema: "
                              + "; ".join(violations))
    known = [metric for _, metric in COMPARED_METRICS]
    unknown = [c["metric_name"] for c in record["comparison"]
               if c["metric_name"] not in known]
    if unknown:
        raise ValidationError(f"record {name} compares unknown metrics {unknown}; "
                              f"known: {', '.join(known)}")
    stored, computed = record["reproducibility_digest"], reproducibility_digest(record)
    if stored != computed:
        raise DigestMismatch(f"record {name}: reproducibility_digest {stored} does not "
                             f"match the record's content, whose digest is {computed}")
    return record


class DocumentStore:
    """Directory of schema-validated study records, one file per study.

    Layout: <root>/records/<study_id>.json, <root>/schema/<version>.json.
    Only creating a store (a root without records/) lays these out; opening
    an existing one writes nothing. Each record appears through a single
    atomic rename, so concurrent writers of different studies share no file
    and need no lock.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.records_dir = self.root / "records"
        if self.records_dir.is_dir():
            return
        schema_path = self.root / "schema" / f"{SCHEMA_VERSION}.json"
        schema_path.parent.mkdir(parents=True, exist_ok=True)
        if not schema_path.exists():
            self._atomic_write(schema_path,
                               canonical_json(STUDY_RECORD_SCHEMA).encode("utf-8"))
        self.records_dir.mkdir(exist_ok=True)

    def _atomic_write(self, path: Path, data: bytes):
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    def save(self, record: dict) -> str:
        violations = validate(record)
        if violations:
            raise SchemaViolation(violations)
        study_id = record["study_id"]
        path = self.records_dir / f"{study_id}.json"
        if path.exists():
            raise GridBenchError(
                f"record {study_id} already exists; records are immutable")
        self._atomic_write(path, canonical_json(record).encode("utf-8"))
        return study_id

    def load_bytes(self, study_id: str) -> bytes:
        path = self.records_dir / f"{study_id}.json"
        if not path.is_file():
            raise NotFound(f"no record {study_id!r} in {self.root}")
        return path.read_bytes()

    def load(self, study_id: str) -> dict:
        """The record, checked by ``read_record``."""
        return read_record(self.load_bytes(study_id), f"{study_id!r} in {self.root}")

    def query(self) -> list[dict]:
        """A summary of every record, oldest first; never mutates.

        Each record file is read through ``load``, so one that breaks the
        schema or whose digest does not match its content raises. Files that
        do not parse (such as a partial copy) are skipped, and a writer's
        stranded ``*.json.tmp`` never matches.
        """
        out = []
        for path in self.records_dir.glob("*.json"):
            try:
                record = self.load(path.stem)
            except UnreadableRecord:
                continue
            out.append({
                "study_id": record["study_id"],
                "created_at": record["created_at"],
                "dataset_names": [d["name"] for d in record.get("datasets", [])],
                "dataset_hashes": [d["content_hash"] for d in record.get("datasets", [])],
            })
        return sorted(out, key=lambda s: (s["created_at"], s["study_id"]))
