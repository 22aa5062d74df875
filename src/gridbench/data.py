"""Dataset ingestion, synthetic generation, and deterministic splitting.

A :class:`Dataset` holds raw cell values (numeric features as floats,
categorical features as strings) in an immutable object-dtype matrix plus
binary labels and per-feature descriptors. Loading goes through a JSON
manifest so the harness never guesses label encodings; the synthetic
generator is the desk-scale stand-in for public dataset suites.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .canonical import (_INT, _NUMBER, _STR, _fields, _obj, _violations, canonical_float,
                        sha256_hex)
from .errors import (
    DegenerateSplit,
    InvalidSpec,
    MalformedManifest,
    MissingFile,
    NonBinaryLabel,
    UnknownLabelColumn,
)

NUMERIC = "numeric"
CATEGORICAL = "categorical"
# A dataset's Purdue-model level as a config or a manifest gives it; the
# record keeps its own, unbounded type, which the pinned schema hash covers.
PURDUE_LEVEL_SCHEMA = {"type": ["integer", "null"], "minimum": 0, "maximum": 5}


@dataclass(frozen=True)
class FeatureDescriptor:
    """Name and kind of one input feature; categories learned from data."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise InvalidSpec(f"unknown feature kind {self.kind!r} for {self.name!r}")
        if self.kind == CATEGORICAL and len(self.categories) < 1:
            raise InvalidSpec(f"categorical feature {self.name!r} has no categories")


def _content_hash(features: np.ndarray, labels: np.ndarray,
                  descriptors: list[FeatureDescriptor]) -> str:
    """Hash of a canonical UTF-8 CSV of cells, labels, and descriptors."""
    numeric = [desc.kind == NUMERIC for desc in descriptors]
    lines = ["#desc," + desc.name + "," + desc.kind + "," + "|".join(desc.categories)
             for desc in descriptors]
    lines += [",".join([*(canonical_float(float(v)) if num else str(v)
                          for v, num in zip(row, numeric)), str(label)])
              for row, label in zip(features.tolist(), labels.tolist())]
    return sha256_hex("\n".join(lines))


@dataclass(frozen=True)
class Dataset:
    """Labeled binary-class tabular data with provenance metadata.

    ``features`` is an (n, d) object array; numeric cells are floats and
    categorical cells are strings. ``labels`` is an (n,) int array of
    0=normal / 1=anomaly. Both arrays are frozen after construction.
    """

    name: str
    features: np.ndarray
    labels: np.ndarray
    descriptors: tuple[FeatureDescriptor, ...]
    purdue_level: int | None = None
    metadata: dict = field(default_factory=dict)
    content_hash: str = ""

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=object)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise InvalidSpec("dataset needs a non-empty 2-D feature matrix")
        n, d = feats.shape
        if labels.shape != (n,):
            raise InvalidSpec("labels length must match the number of rows")
        if not np.all(np.isin(labels, (0, 1))):
            raise NonBinaryLabel(f"labels of {self.name!r} contain values outside {{0,1}}")
        if len(self.descriptors) != d:
            raise InvalidSpec("descriptor count must equal the column count")
        names = [desc.name for desc in self.descriptors]
        if len(set(names)) != len(names):
            raise InvalidSpec("duplicate feature names")
        if self.purdue_level is not None and not 0 <= self.purdue_level <= 5:
            raise InvalidSpec("purdue_level must be in 0..5")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "descriptors", tuple(self.descriptors))
        object.__setattr__(
            self, "content_hash",
            _content_hash(feats, labels, list(self.descriptors)))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray, name: str) -> "Dataset":
        """New dataset from a row subset (descriptors and metadata carried over)."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            name=name,
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            descriptors=self.descriptors,
            purdue_level=self.purdue_level,
            metadata=dict(self.metadata),
        )


@dataclass(frozen=True)
class SplitPair:
    train: Dataset
    test: Dataset
    split_seed: int
    train_fraction: float


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the seeded two-blob synthetic generator."""

    n: int
    d_numeric: int = 4
    d_categorical: int = 0
    anomaly_fraction: float = 0.3
    class_separation: float = 2.0
    categories_per_feature: int = 3
    name: str = "synthetic"
    purdue_level: int | None = None

    def validate(self):
        """Raise InvalidSpec naming every ``SYNTHETIC_SPEC_SCHEMA`` violation,
        else the first broken rule that spans fields."""
        violations = _violations(SYNTHETIC_SPEC_SCHEMA, asdict(self))
        if violations:
            raise InvalidSpec(f"synthetic spec {self.name!r}: " + "; ".join(violations))
        if self.d_numeric + self.d_categorical < 1:
            raise InvalidSpec("need at least one feature column")
        if self.d_categorical > 0 and self.categories_per_feature < 2:
            raise InvalidSpec("categorical features need >= 2 categories")


# Every key, type and range of a synthetic spec; a study config's synthetic
# dataset shares its properties.
SYNTHETIC_SPEC_SCHEMA = _fields(
    SyntheticSpec,
    n={**_INT, "minimum": 10},
    d_numeric={**_INT, "minimum": 0},
    d_categorical={**_INT, "minimum": 0},
    anomaly_fraction={**_NUMBER, "exclusiveMinimum": 0, "exclusiveMaximum": 1},
    class_separation={**_NUMBER, "minimum": 0},
    purdue_level=PURDUE_LEVEL_SCHEMA)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Seeded synthetic dataset: two Gaussian blobs plus class-conditional categories.

    Numeric feature j is N(0, 1) for normals and N(class_separation, 1) for
    anomalies. Categorical features draw from per-class category weights
    exp(-+ class_separation * k / (C-1)); at separation 0 both classes are
    uniform, so labels carry no signal.
    """
    spec.validate()
    rng = np.random.default_rng(seed)

    n_anom = int(np.floor(spec.n * spec.anomaly_fraction + 0.5))
    n_anom = max(1, min(spec.n - 1, n_anom))
    labels = np.zeros(spec.n, dtype=np.int64)
    labels[:n_anom] = 1
    rng.shuffle(labels)

    features = np.empty((spec.n, spec.d_numeric + spec.d_categorical), dtype=object)
    if spec.d_numeric > 0:
        means = labels[:, None] * spec.class_separation
        features[:, :spec.d_numeric] = rng.normal(
            loc=0.0, scale=1.0, size=(spec.n, spec.d_numeric)) + means

    descriptors = [FeatureDescriptor(f"num_{j}", NUMERIC)
                   for j in range(spec.d_numeric)]

    if spec.d_categorical > 0:
        c = spec.categories_per_feature
        cats = tuple(f"cat_{k}" for k in range(c))
        grid = np.arange(c) / (c - 1)
        w0 = np.exp(-spec.class_separation * grid)
        w1 = np.exp(spec.class_separation * grid)
        p0, p1 = w0 / w0.sum(), w1 / w1.sum()
        for j in range(spec.d_categorical):
            draws = np.where(labels == 1,
                             rng.choice(c, size=spec.n, p=p1),
                             rng.choice(c, size=spec.n, p=p0))
            features[:, spec.d_numeric + j] = np.array(cats, dtype=object)[draws]
            descriptors.append(FeatureDescriptor(f"sym_{j}", CATEGORICAL, cats))

    return Dataset(
        name=spec.name,
        features=features,
        labels=labels,
        descriptors=tuple(descriptors),
        purdue_level=spec.purdue_level,
        metadata={"synthetic_spec": asdict(spec), "generator_seed": int(seed)},
    )


_LABEL_VALUES = {"type": "array", "minItems": 1, "items": {"type": ["string", "number"]}}

# Every key and type of a dataset manifest (see ``load_csv``).
MANIFEST_SCHEMA = _obj({
    "csv_path": _STR,
    "label_column": _STR,
    "positive_label_values": _LABEL_VALUES,
    "negative_label_values": {**_LABEL_VALUES, "type": ["array", "null"]},
    "columns": {"type": "array", "minItems": 1, "items": _obj({
        "name": _STR, "kind": {"enum": [NUMERIC, CATEGORICAL]}})},
    "purdue_level": PURDUE_LEVEL_SCHEMA,
    "name": _STR,
}, ["csv_path", "label_column", "positive_label_values", "columns"])


def _read_manifest(manifest_path) -> dict:
    """The manifest at ``manifest_path``, checked against ``MANIFEST_SCHEMA``;
    its ``name`` defaults to the CSV file's stem."""
    path = Path(manifest_path)
    if not path.is_file():
        raise MissingFile(f"manifest not found: {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedManifest(f"manifest {path} is not valid JSON: {exc}") from exc
    violations = _violations(MANIFEST_SCHEMA, manifest)
    if violations:
        raise MalformedManifest(f"manifest {path}: " + "; ".join(violations))
    manifest.setdefault("name", Path(manifest["csv_path"]).stem)
    return manifest


def load_csv(manifest_path) -> Dataset:
    """Load a dataset described by a JSON manifest (``MANIFEST_SCHEMA``).

    A relative csv_path resolves against the manifest. The CSV is UTF-8,
    with or without a byte-order mark, and needs a header row. A row is
    dropped when its length differs from the header's or a used cell is
    empty, unparsable or non-finite; the drop count lands in ``metadata``.
    """
    manifest = _read_manifest(manifest_path)
    csv_path = Path(manifest_path).parent / manifest["csv_path"]
    if not csv_path.is_file():
        raise MissingFile(f"CSV not found: {csv_path}")
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as handle:
            lines = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise MalformedManifest(f"CSV {csv_path} cannot be read: {exc}") from exc
    if not lines:
        raise MalformedManifest(f"CSV {csv_path} is empty")
    header, *body = lines

    label_column = manifest["label_column"]
    if label_column not in header:
        raise UnknownLabelColumn(f"label column {label_column!r} not in CSV header")
    columns = [(c["name"], c["kind"]) for c in manifest["columns"]]
    for name, _ in columns:
        if name not in header:
            raise MalformedManifest(f"manifest column {name!r} not in CSV header")
    if label_column in dict(columns):
        raise MalformedManifest("label column must not be listed among feature columns")
    # the label is read last, as a categorical cell
    used = [(header.index(name), kind) for name, kind in columns]
    used.append((header.index(label_column), CATEGORICAL))

    rows, raw_labels = [], []
    for row in body:
        try:  # float() refuses an unparsable numeric cell, so it is dropped too
            *cells, raw = [float(row[i]) if kind == NUMERIC else row[i] for i, kind in used]
            if len(row) != len(header) or not all(
                    math.isfinite(c) if isinstance(c, float) else c.strip()
                    for c in (*cells, raw)):
                raise ValueError("a short row, or an empty or non-finite cell")
        except (IndexError, ValueError):
            continue
        rows.append(cells)
        raw_labels.append(raw.strip())
    if not rows:
        raise MalformedManifest(f"no usable rows in {csv_path}")

    positive = {str(v) for v in manifest["positive_label_values"]}
    others = list(dict.fromkeys(raw for raw in raw_labels if raw not in positive))
    negative = manifest.get("negative_label_values")
    if negative is None:
        # without a declared normal set, the non-anomaly remainder must be one value
        if len(others) > 1:
            raise NonBinaryLabel(
                f"label column has multiple non-anomaly values {sorted(others)}; "
                "declare negative_label_values in the manifest")
    else:
        outside = [raw for raw in others if raw not in {str(v) for v in negative}]
        if outside:
            raise NonBinaryLabel(f"label value {outside[0]!r} outside declared label sets")

    features = np.array(rows, dtype=object)
    return Dataset(
        name=manifest["name"],
        features=features,
        labels=np.array([int(raw in positive) for raw in raw_labels], dtype=np.int64),
        descriptors=tuple(
            FeatureDescriptor(name, kind, tuple(dict.fromkeys(features[:, j]))
                              if kind == CATEGORICAL else ())
            for j, (name, kind) in enumerate(columns)),
        purdue_level=manifest.get("purdue_level"),
        metadata={"source_csv": str(csv_path), "dropped_rows": len(body) - len(rows),
                  "manifest": str(Path(manifest_path))},
    )


def split(ds: Dataset, train_fraction: float, seed: int) -> SplitPair:
    """Stratified shuffle split, deterministic in seed.

    Per-class train counts round half away from zero; raises
    DegenerateSplit if any class would vanish from either part.
    """
    if not 0.0 < train_fraction < 1.0:
        raise InvalidSpec("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls in (0, 1):
        members = np.flatnonzero(ds.labels == cls)
        if members.size == 0:
            raise DegenerateSplit(f"class {cls} absent from dataset {ds.name!r}")
        n_train = int(np.floor(train_fraction * members.size + 0.5))
        if n_train < 1 or n_train >= members.size:
            raise DegenerateSplit(
                f"class {cls} would be absent from one part "
                f"({members.size} rows at fraction {train_fraction})")
        order = rng.permutation(members.size)
        train_idx.append(members[order[:n_train]])
        test_idx.append(members[order[n_train:]])

    train_rows = np.sort(np.concatenate(train_idx))
    test_rows = np.sort(np.concatenate(test_idx))
    return SplitPair(
        train=ds.take(train_rows, f"{ds.name}/train"),
        test=ds.take(test_rows, f"{ds.name}/test"),
        split_seed=int(seed),
        train_fraction=float(train_fraction),
    )
