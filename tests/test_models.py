import numpy as np
import pytest

from gridbench.data import SyntheticSpec, generate_synthetic, split
from gridbench.errors import (
    DimensionMismatch,
    FoldTooSmall,
    NonFiniteFeature,
    SingleClassTrainingSet,
)
from gridbench.metrics import auc_score
from gridbench.models import (
    LogisticRegressionModel,
    _sigmoid,
    mlp_loss_and_gradients,
    train,
    train_stack,
)


class TestTrainValidation:
    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleClassTrainingSet):
            train("logreg", X, np.zeros(4, dtype=int))

    def test_non_finite_rejected(self):
        X = np.array([[0.0, np.nan], [1.0, 2.0]])
        with pytest.raises(NonFiniteFeature):
            train("tree", X, np.array([0, 1]))


class TestDecisionTree:
    def test_separated_data_needs_one_split(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.uniform(-2, -0.1, 10), rng.uniform(0.1, 2, 10)])
        y = np.array([0] * 10 + [1] * 10)
        model = train("tree", x[:, None], y)
        assert model.depth() == 1
        assert np.array_equal(model.label(x[:, None]), y)

    def test_leaf_score_is_class_fraction(self):
        # one split at 0.5; right leaf holds 3 positives and 1 negative
        X = np.array([[0.0], [0.1], [0.2], [1.0], [1.1], [1.2], [1.3]])
        y = np.array([0, 0, 0, 1, 1, 1, 0])
        model = train("tree", X, y, {"max_depth": 1})
        assert model.score(np.array([[1.15]]))[0] == pytest.approx(0.75)

    def test_tie_break_is_deterministic(self):
        # duplicated feature columns give identical gains; lowest index wins
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([0, 0, 1, 1])
        model = train("tree", X, y, {"max_depth": 1})
        assert model.root.feature == 0
        assert model.root.threshold == pytest.approx(1.5)


    def test_level_descent_matches_node_walk(self):
        # noisy labels grow a deep, unbalanced tree (leaves at many depths)
        rng = np.random.default_rng(4)
        X_fit = rng.normal(size=(300, 4))
        y = (X_fit[:, 0] + X_fit[:, 1] * X_fit[:, 2] + rng.normal(size=300) > 0)
        model = train("tree", X_fit, y.astype(int), {"max_depth": 6})

        def walk(row):
            node = model.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            return node.score

        splits, stack = [], [model.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                splits.append((node.feature, node.threshold))
                stack += [node.left, node.right]
        assert model.depth() == 6 and len(splits) > 20
        X = np.vstack([X_fit, rng.normal(size=(200, 4)) * 2.0])
        at_split = X[rng.integers(0, X.shape[0], len(splits))]
        for row, (feature, threshold) in zip(at_split, splits):
            row[feature] = threshold  # exactly on the boundary: goes left
        X = np.vstack([X, at_split])
        expected = np.array([walk(row) for row in X])
        assert model.score(X).tobytes() == expected.tobytes()


def test_sigmoid_matches_masked_form_bitwise():
    def masked(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    rng = np.random.default_rng(0)
    z = np.concatenate([rng.normal(size=200_000) * 30.0,
                        [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0]])
    assert _sigmoid(z).tobytes() == masked(z).tobytes()
    grid = z[:1000].reshape(50, 20)
    assert _sigmoid(grid).tobytes() == masked(grid).tobytes()
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()


class TestLogreg:
    def test_zero_parameters_score_half(self):
        model = LogisticRegressionModel(np.zeros(3), 0.0,
                                        train_seed=0, hyperparameters={})
        rng = np.random.default_rng(1)
        assert np.allclose(model.score(rng.normal(size=(20, 3))), 0.5)

    def test_separable_blobs_auc(self):
        ds = generate_synthetic(SyntheticSpec(n=200, d_numeric=4,
                                              class_separation=10.0), seed=5)
        pair = split(ds, 0.7, seed=5)
        model = train("logreg", pair.train.features.astype(np.float64),
                      pair.train.labels, seed=0)
        auc = auc_score(model.score(pair.test.features.astype(np.float64)),
                        pair.test.labels)
        assert auc >= 0.99


class TestMlp:
    def test_scores_stay_in_unit_interval(self, trained_models):
        model = trained_models["mlp"]
        rng = np.random.default_rng(2)
        scores = model.score(rng.normal(scale=50.0,
                                        size=(10_000, model.input_dimension)))
        assert np.all(np.isfinite(scores))
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_gradient_check_against_central_differences(self):
        # independent oracle: numeric differentiation of the same loss
        rng = np.random.default_rng(7)
        X = rng.normal(size=(5, 3))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        params = {
            "w1": rng.uniform(-0.5, 0.5, size=(3, 4)),
            "b1": rng.uniform(-0.1, 0.1, size=4),
            "w2": rng.uniform(-0.5, 0.5, size=4),
            "b2": 0.3,
        }
        _, grads = mlp_loss_and_gradients(params, X, y)
        eps = 1e-6
        for key in params:
            analytic = np.atleast_1d(np.asarray(grads[key], dtype=np.float64))
            flat = np.atleast_1d(np.asarray(params[key],
                                            dtype=np.float64)).ravel()
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                for sign, bucket in ((+1, 0), (-1, 1)):
                    shifted = {k: np.array(v, dtype=np.float64, copy=True)
                               if np.ndim(v) else float(v)
                               for k, v in params.items()}
                    if np.ndim(shifted[key]):
                        view = shifted[key].ravel()
                        view[i] += sign * eps
                    else:
                        shifted[key] = shifted[key] + sign * eps
                    loss, _ = mlp_loss_and_gradients(shifted, X, y)
                    if bucket == 0:
                        plus = loss
                    else:
                        minus = loss
                numeric[i] = (plus - minus) / (2 * eps)
            rel = np.abs(numeric - analytic.ravel()) / np.maximum(
                1e-8, np.abs(numeric) + np.abs(analytic.ravel()))
            assert rel.max() < 1e-4, f"{key}: rel err {rel.max()}"


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["logreg", "tree", "mlp"])
    def test_identical_inputs_identical_parameters(self, kind, blob_matrices):
        X_train, y_train, _, _ = blob_matrices
        hyper = {"epochs": 50} if kind != "tree" else {}
        a = train(kind, X_train, y_train, hyper, seed=13)
        b = train(kind, X_train, y_train, hyper, seed=13)
        assert a.parameter_digest() == b.parameter_digest()


class TestScoreLabelSurface:
    def test_dimension_mismatch(self, trained_models):
        with pytest.raises(DimensionMismatch):
            trained_models["logreg"].score(np.zeros((1, 99)))

    def test_label_thresholding(self, trained_models, blob_matrices):
        model = trained_models["logreg"]
        _, _, X_test, _ = blob_matrices
        X = X_test[:5]
        assert np.array_equal(model.label(X),
                              (model.score(X) >= model.threshold).astype(np.int64))


class TestStacking:
    def test_composition_is_exact(self, trained_stack, blob_matrices):
        _, _, X_test, _ = blob_matrices
        first = trained_stack.first_level_scores(X_test)
        assert np.array_equal(trained_stack.score(X_test),
                              trained_stack.second_level.score(first))

    def test_single_model_stack_tracks_inner_auc(self, blob_matrices):
        X_train, y_train, X_test, y_test = blob_matrices
        # derived empirically per seed: a monotone second level preserves
        # ranking up to the learned link, so the AUCs stay close
        for seed in (0, 1, 2):
            single = train("tree", X_train, y_train, seed=seed)
            ens = train_stack([("tree", {})], ("logreg", {}), X_train, y_train,
                              folds=5, seed=seed)
            auc_single = auc_score(single.score(X_test), y_test)
            auc_ens = auc_score(ens.score(X_test), y_test)
            assert abs(auc_single - auc_ens) <= 0.05

    def test_case_study_stack_contract(self, trained_stack, blob_matrices):
        _, _, X_test, _ = blob_matrices
        scores = trained_stack.score(X_test[:100])
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_determinism_of_folds_and_parameters(self, blob_matrices):
        X_train, y_train, _, _ = blob_matrices
        specs = [("logreg", {}), ("tree", {})]
        a = train_stack(specs, ("logreg", {}), X_train, y_train, folds=4, seed=3)
        b = train_stack(specs, ("logreg", {}), X_train, y_train, folds=4, seed=3)
        assert np.array_equal(a.fold_assignment, b.fold_assignment)
        assert a.parameter_digest() == b.parameter_digest()

    def test_fold_bounds(self, blob_matrices):
        X_train, y_train, _, _ = blob_matrices
        with pytest.raises(FoldTooSmall):
            train_stack([("logreg", {})], ("logreg", {}), X_train, y_train,
                        folds=1, seed=0)
        with pytest.raises(FoldTooSmall):
            train_stack([("logreg", {})], ("logreg", {}), X_train, y_train,
                        folds=X_train.shape[0] + 1, seed=0)
