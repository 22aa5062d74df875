import json
import re

import numpy as np
import pytest

from gridbench.canonical import sha256_hex
from gridbench.data import (
    Dataset,
    FeatureDescriptor,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    split,
)
from gridbench.errors import (
    DegenerateSplit,
    InvalidSpec,
    MalformedManifest,
    MissingFile,
    NonBinaryLabel,
    UnknownLabelColumn,
)
from gridbench.metrics import auc_score
from gridbench.models import train


def _write_manifest(tmp_path, csv_text, manifest_extra=None, name="data"):
    csv_path = tmp_path / f"{name}.csv"
    csv_path.write_text(csv_text, encoding="utf-8")
    manifest = {
        "csv_path": f"{name}.csv",
        "label_column": "label",
        "positive_label_values": ["attack"],
        "columns": [{"name": "duration", "kind": "numeric"},
                    {"name": "proto", "kind": "categorical"}],
    }
    manifest.update(manifest_extra or {})
    manifest_path = tmp_path / f"{name}.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    return manifest_path


CSV_OK = """duration,proto,label
1.0,tcp,normal
2.0,udp,attack
3.0,tcp,normal
4.0,udp,attack
"""

CSV_MISSING = """duration,proto,label
1.0,tcp,normal
2.0,,attack
3.0,tcp,normal
4.0,udp,attack
"""

CSV_THIRD_LABEL = """duration,proto,label
1.0,tcp,normal
2.0,udp,attack
3.0,tcp,probe
"""


class TestLoadCsv:
    def test_loads_rows_in_file_order(self, tmp_path):
        ds = load_csv(_write_manifest(tmp_path, CSV_OK))
        assert ds.n_rows == 4
        assert list(ds.labels) == [0, 1, 0, 1]
        assert ds.features[0, 0] == 1.0
        assert ds.features[1, 1] == "udp"
        assert ds.metadata["dropped_rows"] == 0
        assert [d.kind for d in ds.descriptors] == ["numeric", "categorical"]
        assert ds.descriptors[1].categories == ("tcp", "udp")

    @pytest.mark.parametrize("non_finite", [None, "nan", "inf", "-Infinity"],
                             ids=["empty_only", "nan", "inf", "-Infinity"])
    def test_missing_cell_drops_row_and_counts_it(self, tmp_path, non_finite):
        # a non-finite numeric cell counts as a missing one
        extra = "" if non_finite is None else f"{non_finite},udp,attack\n"
        ds = load_csv(_write_manifest(tmp_path, CSV_MISSING + extra))
        assert ds.n_rows == 3
        assert ds.metadata["dropped_rows"] == 1 + (non_finite is not None)

    @pytest.mark.parametrize("content, message", [
        (b"duration,proto,label\n1.0,tcp,caf\xe9\n", "cannot be read: 'utf-8' codec"),
        (b"duration,proto,label\n1.0," + b"x" * 200_000 + b",normal\n",
         "cannot be read: field larger than field limit"),
        (b"", "is empty"),
    ], ids=["latin1_byte", "oversized_field", "empty_file"])
    def test_unreadable_csv_is_a_malformed_manifest(self, tmp_path, content, message):
        path = _write_manifest(tmp_path, CSV_OK)
        (tmp_path / "data.csv").write_bytes(content)
        with pytest.raises(MalformedManifest, match=re.escape(message)) as exc:
            load_csv(path)
        assert str(tmp_path / "data.csv") in str(exc.value)

    def test_third_label_value_rejected(self, tmp_path):
        with pytest.raises(NonBinaryLabel):
            load_csv(_write_manifest(tmp_path, CSV_THIRD_LABEL))

    def test_declared_negative_set_is_strict(self, tmp_path):
        path = _write_manifest(tmp_path, CSV_THIRD_LABEL,
                               {"negative_label_values": ["normal", "probe"]})
        ds = load_csv(path)
        assert list(ds.labels) == [0, 1, 0]
        with pytest.raises(NonBinaryLabel):
            load_csv(_write_manifest(tmp_path, CSV_THIRD_LABEL,
                                     {"negative_label_values": ["normal"]},
                                     name="strict"))

    def test_same_file_twice_identical_hash(self, tmp_path):
        path = _write_manifest(tmp_path, CSV_OK)
        assert load_csv(path).content_hash == load_csv(path).content_hash

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a BOM
        plain = load_csv(_write_manifest(tmp_path, CSV_OK))
        path = _write_manifest(tmp_path, CSV_OK, name="bom")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + CSV_OK.encode("utf-8"))
        assert load_csv(path).content_hash == plain.content_hash

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_csv(tmp_path / "nope.json")

    def test_unknown_label_column(self, tmp_path):
        path = _write_manifest(tmp_path, CSV_OK, {"label_column": "verdict"})
        with pytest.raises(UnknownLabelColumn):
            load_csv(path)

    def test_purdue_level_carried(self, tmp_path):
        ds = load_csv(_write_manifest(tmp_path, CSV_OK, {"purdue_level": 3}))
        assert ds.purdue_level == 3

    @pytest.mark.parametrize("extra, named", [
        ({"label": "label"}, "'label' was unexpected"),
        ({"columns": [{"name": "duration", "kind": "text"}]}, "/columns/0/kind: "),
        ({"columns": [{"name": "duration"}]}, "/columns/0: 'kind'"),
        ({"purdue_level": 9}, "/purdue_level: "),
        ({"negative_label_values": "normal"}, "/negative_label_values: "),
    ], ids=["unknown_key", "column_kind", "column_without_kind",
            "purdue_level_range", "negative_label_values_string"])
    def test_manifest_is_closed_and_typed(self, tmp_path, extra, named):
        with pytest.raises(MalformedManifest, match=re.escape(named)):
            load_csv(_write_manifest(tmp_path, CSV_OK, extra))


class TestDatasetInvariants:
    def test_labels_must_be_binary(self):
        with pytest.raises(NonBinaryLabel):
            Dataset("x", np.array([[1.0], [2.0]], dtype=object),
                    np.array([0, 2]), (FeatureDescriptor("f", "numeric"),))

    def test_descriptor_count_must_match(self):
        with pytest.raises(InvalidSpec):
            Dataset("x", np.array([[1.0, 2.0]], dtype=object), np.array([0]),
                    (FeatureDescriptor("f", "numeric"),))

    def test_content_hash_changes_with_any_cell_label_or_descriptor(self):
        desc = (FeatureDescriptor("f", "numeric"),)
        base = Dataset("x", np.array([[1.0], [2.0]], dtype=object),
                       np.array([0, 1]), desc)
        cell = Dataset("x", np.array([[1.5], [2.0]], dtype=object),
                       np.array([0, 1]), desc)
        lab = Dataset("x", np.array([[1.0], [2.0]], dtype=object),
                      np.array([1, 0]), desc)
        ren = Dataset("x", np.array([[1.0], [2.0]], dtype=object),
                      np.array([0, 1]), (FeatureDescriptor("g", "numeric"),))
        hashes = {base.content_hash, cell.content_hash, lab.content_hash,
                  ren.content_hash}
        assert len(hashes) == 4

    def test_content_hash_is_a_canonical_csv(self):
        ds = Dataset("x", np.array([[0.1, "a"], [-0.0, "b"]], dtype=object),
                     np.array([1, 0]),
                     (FeatureDescriptor("x", "numeric"),
                      FeatureDescriptor("c", "categorical", ("a", "b"))))
        assert ds.content_hash == sha256_hex(
            "#desc,x,numeric,\n#desc,c,categorical,a|b\n"
            "0.10000000000000001,a,1\n0.0,b,0")

    def test_features_are_immutable(self):
        ds = Dataset("x", np.array([[1.0], [2.0]], dtype=object),
                     np.array([0, 1]), (FeatureDescriptor("f", "numeric"),))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0


class TestGenerateSynthetic:
    def test_seeded_determinism_bit_identical(self):
        spec = SyntheticSpec(n=100, anomaly_fraction=0.3)
        a = generate_synthetic(spec, seed=7)
        b = generate_synthetic(spec, seed=7)
        assert a.content_hash == b.content_hash
        assert np.array_equal(a.labels, b.labels)
        assert all(a.features[i, j] == b.features[i, j]
                   for i in range(a.n_rows) for j in range(a.n_features))

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(n=5), seed=0)
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(n=50, anomaly_fraction=1.5), seed=0)
        with pytest.raises(InvalidSpec):
            generate_synthetic(SyntheticSpec(n=50, class_separation=-1.0), seed=0)

    def test_zero_separation_carries_no_signal(self):
        # oracle: with identical class-conditional distributions a fitted
        # classifier cannot beat chance; AUC stays in a band around 0.5
        spec = SyntheticSpec(n=600, d_numeric=4, anomaly_fraction=0.3,
                             class_separation=0.0)
        for seed in range(20):
            ds = generate_synthetic(spec, seed=seed)
            pair = split(ds, 0.7, seed=seed)
            X_train = pair.train.features.astype(np.float64)
            X_test = pair.test.features.astype(np.float64)
            model = train("logreg", X_train, pair.train.labels, seed=seed)
            auc = auc_score(model.score(X_test), pair.test.labels)
            assert 0.3 <= auc <= 0.7, f"seed {seed}: AUC {auc}"

    def test_wide_separation_is_nearly_separable(self):
        spec = SyntheticSpec(n=200, d_numeric=4, anomaly_fraction=0.3,
                             class_separation=10.0)
        ds = generate_synthetic(spec, seed=3)
        pair = split(ds, 0.7, seed=3)
        model = train("logreg", pair.train.features.astype(np.float64),
                      pair.train.labels, seed=0)
        auc = auc_score(model.score(pair.test.features.astype(np.float64)),
                        pair.test.labels)
        assert auc >= 0.99

    def test_categorical_features_present_and_valid(self):
        spec = SyntheticSpec(n=60, d_numeric=2, d_categorical=2,
                             class_separation=3.0)
        ds = generate_synthetic(spec, seed=1)
        assert ds.n_features == 4
        for j in (2, 3):
            cats = set(ds.descriptors[j].categories)
            assert all(v in cats for v in ds.features[:, j])


class TestSplit:
    def test_stratification_arithmetic(self):
        features = np.array([[float(i)] for i in range(10)], dtype=object)
        labels = np.array([0] * 5 + [1] * 5)
        ds = Dataset("ten", features, labels,
                     (FeatureDescriptor("f", "numeric"),))
        for seed in (0, 1, 2):
            pair = split(ds, 0.8, seed=seed)
            assert int(pair.train.labels.sum()) == 4
            assert int((pair.train.labels == 0).sum()) == 4

    def test_partition_and_determinism(self, blob_dataset):
        a = split(blob_dataset, 0.7, seed=42)
        b = split(blob_dataset, 0.7, seed=42)
        assert a.train.content_hash == b.train.content_hash
        assert a.test.content_hash == b.test.content_hash
        assert a.train.n_rows + a.test.n_rows == blob_dataset.n_rows
        # row identity: every row appears in exactly one part
        seen = {tuple(row) for row in a.train.features} | \
               {tuple(row) for row in a.test.features}
        assert len(seen) == blob_dataset.n_rows

    def test_degenerate_split(self):
        features = np.array([[1.0], [2.0], [3.0]], dtype=object)
        ds = Dataset("three", features, np.array([0, 0, 1]),
                     (FeatureDescriptor("f", "numeric"),))
        with pytest.raises(DegenerateSplit):
            split(ds, 0.5, seed=0)
