import itertools

import numpy as np
import pytest

from gridbench.data import Dataset, FeatureDescriptor
from gridbench.errors import InvalidConfig, SchemaMismatch
from gridbench.preprocess import PipelineConfig, apply_pipeline, fit_pipeline


def _numeric_dataset(matrix, name="num"):
    matrix = np.asarray(matrix, dtype=np.float64)
    desc = tuple(FeatureDescriptor(f"f{j}", "numeric") for j in range(matrix.shape[1]))
    labels = np.zeros(matrix.shape[0], dtype=np.int64)
    labels[0] = 1
    return Dataset(name, matrix.astype(object), labels, desc)


def _mixed_dataset(cells, name="mix"):
    features = np.empty((len(cells), 2), dtype=object)
    for i, (num, cat) in enumerate(cells):
        features[i, 0] = float(num)
        features[i, 1] = cat
    labels = np.zeros(len(cells), dtype=np.int64)
    labels[0] = 1
    return Dataset(name, features, labels,
                   (FeatureDescriptor("dur", "numeric"),
                    FeatureDescriptor("proto", "categorical", ("placeholder",))))


class TestMinMax:
    def test_affine_map_params_and_value(self):
        ds = _numeric_dataset([[2.0], [4.0], [6.0]])
        pipeline = fit_pipeline(ds, PipelineConfig(use_onehot=False))
        assert pipeline.minmax_params[0, 0] == 2.0
        assert pipeline.minmax_params[1, 0] == 6.0
        out = apply_pipeline(pipeline, ds)
        assert out[1, 0] == pytest.approx(0.5)

    def test_training_data_maps_to_unit_range(self, blob_split):
        pipeline = fit_pipeline(blob_split.train,
                                PipelineConfig(use_onehot=True, use_minmax=True))
        out = apply_pipeline(pipeline, blob_split.train)
        span = out.max(axis=0) - out.min(axis=0)
        nonconstant = span > 0
        assert np.allclose(out[:, nonconstant].min(axis=0), 0.0)
        assert np.allclose(out[:, nonconstant].max(axis=0), 1.0)

    def test_out_of_range_values_not_clipped(self):
        train_ds = _numeric_dataset([[2.0], [4.0], [6.0]])
        pipeline = fit_pipeline(train_ds, PipelineConfig(use_onehot=False))
        test_ds = _numeric_dataset([[8.0], [0.0]], name="test")
        out = apply_pipeline(pipeline, test_ds)
        assert out[0, 0] == pytest.approx(1.5)
        assert out[1, 0] == pytest.approx(-0.5)

    def test_constant_feature_maps_to_zero(self):
        ds = _numeric_dataset([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        pipeline = fit_pipeline(ds, PipelineConfig(use_onehot=False))
        out = apply_pipeline(pipeline, ds)
        assert np.all(out[:, 0] == 0.0)


class TestOneHot:
    def test_indicator_encoding_first_seen_order(self):
        ds = _mixed_dataset([(1.0, "tcp"), (2.0, "udp"), (3.0, "tcp")])
        pipeline = fit_pipeline(ds, PipelineConfig(use_minmax=False))
        assert pipeline.onehot_categories[1] == ("tcp", "udp")
        out = apply_pipeline(pipeline, ds)
        assert out.shape == (3, 3)
        assert list(out[0, 1:]) == [1.0, 0.0]
        assert list(out[1, 1:]) == [0.0, 1.0]

    def test_unseen_category_is_all_zero(self):
        train_ds = _mixed_dataset([(1.0, "tcp"), (2.0, "udp")])
        pipeline = fit_pipeline(train_ds, PipelineConfig(use_minmax=False))
        test_ds = _mixed_dataset([(1.0, "icmp")], name="t")
        out = apply_pipeline(pipeline, test_ds)
        assert list(out[0, 1:]) == [0.0, 0.0]

    def test_block_sums_are_zero_or_one(self, blob_dataset):
        pipeline = fit_pipeline(blob_dataset, PipelineConfig(use_minmax=False))
        out = apply_pipeline(pipeline, blob_dataset)
        # numeric blob fixture has no categoricals; use a mixed one instead
        ds = _mixed_dataset([(1.0, "a"), (2.0, "b"), (3.0, "c"), (4.0, "a")])
        pipeline = fit_pipeline(ds, PipelineConfig(use_minmax=False))
        out = apply_pipeline(pipeline, ds)
        sums = out[:, 1:].sum(axis=1)
        assert set(sums.tolist()) <= {0.0, 1.0}

    def test_onehot_disabled_drops_categoricals(self):
        ds = _mixed_dataset([(1.0, "tcp"), (2.0, "udp")])
        pipeline = fit_pipeline(ds, PipelineConfig(use_onehot=False,
                                                   use_minmax=False))
        out = apply_pipeline(pipeline, ds)
        assert out.shape == (2, 1)


class TestPlayers:
    def test_one_player_per_numeric_column_and_onehot_block(self):
        ds = _mixed_dataset([(1.0, "tcp"), (2.0, "udp"), (3.0, "icmp")])
        players, numeric = fit_pipeline(ds, PipelineConfig()).players()
        assert players.tolist() == [0, 1, 1, 1]
        assert numeric.tolist() == [True, False, False, False]

    def test_dropped_categoricals_have_no_player(self):
        ds = _mixed_dataset([(1.0, "tcp"), (2.0, "udp")])
        pipeline = fit_pipeline(ds, PipelineConfig(use_onehot=False))
        players, numeric = pipeline.players()
        assert players.tolist() == [0]
        assert numeric.tolist() == [True]

    def test_each_pca_component_is_one_numeric_player(self):
        ds = _mixed_dataset([(1.0, "tcp"), (2.0, "udp"), (4.0, "tcp"), (3.0, "x")])
        pipeline = fit_pipeline(ds, PipelineConfig(use_pca=True, pca_components=2))
        players, numeric = pipeline.players()
        assert players.tolist() == [0, 1]
        assert numeric.tolist() == [True, True]

    def test_numeric_only_is_the_identity(self, blob_split):
        pipeline = fit_pipeline(blob_split.train, PipelineConfig())
        players, numeric = pipeline.players()
        assert players.tolist() == list(range(pipeline.output_dimension))
        assert numeric.all()


class TestPca:
    def test_rank_one_covariance_oracle(self):
        # oracle: points on the line y=x have a rank-1 covariance, so the
        # leading component carries all variance
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [5.0, 5.0]])
        ds = _numeric_dataset(pts)
        pipeline = fit_pipeline(ds, PipelineConfig(
            use_onehot=False, use_minmax=False, use_pca=True, pca_components=2))
        assert pipeline.pca_variance_ratios[0] == pytest.approx(1.0, abs=1e-9)
        assert pipeline.pca_variance_ratios[1] == pytest.approx(0.0, abs=1e-9)

    def test_projection_columns_orthonormal(self, blob_split):
        pipeline = fit_pipeline(blob_split.train, PipelineConfig(
            use_pca=True, pca_components=3))
        proj = pipeline.pca_components_matrix
        assert np.allclose(proj.T @ proj, np.eye(3), atol=1e-8)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 5))
        ds = _numeric_dataset(pts)
        pipeline = fit_pipeline(ds, PipelineConfig(
            use_onehot=False, use_minmax=False, use_pca=True, pca_components=5))
        projected = apply_pipeline(pipeline, ds)
        reconstructed = projected @ pipeline.pca_components_matrix.T
        centered = pts - pipeline.pca_mean
        assert np.max(np.abs(reconstructed - centered)) < 1e-6

    def test_sign_convention_largest_loading_positive(self, blob_split):
        pipeline = fit_pipeline(blob_split.train, PipelineConfig(
            use_pca=True, pca_components=4))
        proj = pipeline.pca_components_matrix
        for c in range(proj.shape[1]):
            assert proj[np.argmax(np.abs(proj[:, c])), c] > 0

    def test_invalid_component_counts(self, blob_split):
        with pytest.raises(InvalidConfig):
            fit_pipeline(blob_split.train, PipelineConfig(use_pca=True,
                                                          pca_components=0))
        with pytest.raises(InvalidConfig):
            fit_pipeline(blob_split.train, PipelineConfig(use_pca=True,
                                                          pca_components=99))


class TestPipelineProperties:
    def test_idempotent_refit(self, blob_split):
        config = PipelineConfig(use_pca=True, pca_components=3)
        a = fit_pipeline(blob_split.train, config)
        b = fit_pipeline(blob_split.train, config)
        assert a.parameter_digest() == b.parameter_digest()

    def test_every_step_subset_runs_end_to_end(self, blob_split):
        for onehot, minmax, pca in itertools.product((False, True), repeat=3):
            config = PipelineConfig(use_onehot=onehot, use_minmax=minmax,
                                    use_pca=pca,
                                    pca_components=2 if pca else None)
            pipeline = fit_pipeline(blob_split.train, config)
            out = apply_pipeline(pipeline, blob_split.test)
            assert out.shape == (blob_split.test.n_rows,
                                 pipeline.output_dimension)
            assert np.all(np.isfinite(out))

    def test_schema_mismatch(self, blob_split):
        pipeline = fit_pipeline(blob_split.train, PipelineConfig())
        other = _numeric_dataset([[1.0], [2.0]])
        with pytest.raises(SchemaMismatch):
            apply_pipeline(pipeline, other)
