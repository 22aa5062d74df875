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
    DEFAULT_HYPERPARAMETERS,
    LogisticRegressionModel,
    TrainedModel,
    _MLPRuns,
    _sigmoid,
    _stratified_folds,
    mlp_loss_and_gradients,
    train,
    train_stack,
)
from gridbench.seeding import derive_seed


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
        # preorder: the root, then its two leaves, which route to themselves
        assert model.left.tolist() == [1, 1, 2]
        assert model.right.tolist() == [2, 1, 2]
        assert model._depth == 1
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
        assert model.feature[0] == 0
        assert model.split_value[0] == pytest.approx(1.5)

    def test_level_descent_matches_node_walk(self):
        # noisy labels grow a deep, unbalanced tree (leaves at many depths)
        rng = np.random.default_rng(4)
        X_fit = rng.normal(size=(300, 4))
        y = (X_fit[:, 0] + X_fit[:, 1] * X_fit[:, 2] + rng.normal(size=300) > 0)
        model = train("tree", X_fit, y.astype(int), {"max_depth": 6})

        def walk(row):  # one row at a time, down to the leaf
            node, steps = 0, 0
            while model.left[node] != node:
                goes_left = row[model.feature[node]] <= model.split_value[node]
                node = model.left[node] if goes_left else model.right[node]
                steps += 1
            return model.value[node], steps

        splits = [(model.feature[i], model.split_value[i])
                  for i in range(model.value.size) if model.left[i] != i]
        assert len(splits) > 20
        X = np.vstack([X_fit, rng.normal(size=(200, 4)) * 2.0])
        at_split = X[rng.integers(0, X.shape[0], len(splits))]
        for row, (feature, split_value) in zip(at_split, splits):
            row[feature] = split_value  # exactly on the boundary: goes left
        X = np.vstack([X, at_split])
        expected, steps = zip(*(walk(row) for row in X))
        assert max(steps) == model._depth == 6 and min(steps) < 6
        assert model.score(X).tobytes() == np.array(expected).tobytes()


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


# --- per-fit reference trainers ---------------------------------------------
# One gradient-descent loop per fit, kept as the reference the trainers must
# reproduce bit for bit.

def _reference_logreg(X, y, hyper):
    lr, epochs, l2 = hyper["learning_rate"], hyper["epochs"], hyper["l2"]
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(int(epochs)):
        p = _sigmoid(X @ w + b)
        residual = (p - y) / n
        grad_w = X.T @ residual + 2.0 * l2 * w
        grad_b = residual.sum()
        w -= lr * grad_w
        b -= lr * grad_b
    return w, b


def _reference_mlp(X, y, hyper, seed):
    """The first layer reads [X | 1], its bias the last row of w1; the
    backward product leaves w2 out until the end."""
    width, lr, scale = (int(hyper["hidden_width"]), hyper["learning_rate"],
                        hyper["init_scale"])
    rng = np.random.default_rng(seed)
    w1 = np.vstack([rng.uniform(-scale, scale, size=(X.shape[1], width)),
                    np.zeros(width)])
    w2 = rng.uniform(-scale, scale, size=width)
    b2 = 0.0
    X1 = np.column_stack([X, np.ones(X.shape[0])])
    yf = y.astype(np.float64)
    for _ in range(int(hyper["epochs"])):
        hidden = np.tanh(X1 @ w1)
        dz = (_sigmoid(hidden @ w2 + b2) - yf) / X.shape[0]
        g_w1 = ((X1 * dz[:, None]).T @ (1.0 - hidden ** 2)) * w2
        g_w2, g_b2 = hidden.T @ dz, float(dz.sum())
        w1 = w1 - lr * g_w1
        w2 = w2 - lr * g_w2
        b2 = b2 - lr * g_b2
    return w1[:-1], w1[-1], w2, b2


FOLD_SHAPES = [(23, 4), (37, 3), (168, 5), (840, 2), (21, 4)]


def _fold_data(n, seed=0, d=6):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * X[:, 1] + rng.normal(size=n) > 0).astype(np.int64)
    y[:2] = (0, 1)  # both classes in every shape
    return X, y


def _recording_constructors(monkeypatch):
    """Every TrainedModel built while the patch holds, in build order."""
    built = []
    init = TrainedModel.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TrainedModel, "__init__", recording)
    return built


class TestTrainersMatchPerFitReference:
    @pytest.mark.parametrize("n", [n for n, _ in FOLD_SHAPES])
    def test_logreg_single_fit_is_bitwise_the_per_fit_loop(self, n):
        X, y = _fold_data(n)
        hyper = {**DEFAULT_HYPERPARAMETERS["logreg"], "epochs": 40}
        model = train("logreg", X, y, hyper, seed=5)
        w, b = _reference_logreg(X, y, hyper)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias == b

    @pytest.mark.parametrize("n", [n for n, _ in FOLD_SHAPES])
    def test_mlp_single_fit_is_bitwise_the_per_fit_loop(self, n):
        X, y = _fold_data(n)
        hyper = {**DEFAULT_HYPERPARAMETERS["mlp"], "epochs": 40}
        model = train("mlp", X, y, hyper, seed=5)
        w1, b1, w2, b2 = _reference_mlp(X, y, hyper, 5)
        assert model.w1.tobytes() == w1.tobytes()
        assert model.b1.tobytes() == b1.tobytes()
        assert model.w2.tobytes() == w2.tobytes()
        assert model.b2 == b2

    def test_mlp_score_is_bitwise_the_plain_expression(self):
        X, y = _fold_data(300)
        model = train("mlp", X, y, {"epochs": 20}, seed=2)
        rng = np.random.default_rng(3)
        for rows in (1, 7, 300, 2560):
            Z = rng.normal(size=(rows, 6))
            expected = _sigmoid(np.tanh(Z @ model.w1 + model.b1) @ model.w2
                                + model.b2)
            assert model.score(Z).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind,hyper,d", [
        ("logreg", {"epochs": 25}, 6), ("mlp", {"epochs": 25}, 6),
        # a padded (m, 16) @ (16, 17) product differs in low bits from the
        # unpadded one; this width would catch a padded first layer
        ("mlp", {"epochs": 25, "hidden_width": 17}, 16),
        ("tree", {"max_depth": 3}, 6)])
    @pytest.mark.parametrize("n,folds", FOLD_SHAPES)
    def test_stack_fold_models_are_separate_fits(self, kind, hyper, d, n, folds,
                                                 monkeypatch):
        X, y = _fold_data(n, seed=n, d=d)
        built = _recording_constructors(monkeypatch)
        ens = train_stack([(kind, hyper)], ("logreg", {"epochs": 5}), X, y,
                          folds=folds, seed=11)
        monkeypatch.undo()
        by_seed = {m.train_seed: m for m in built if m.kind == kind}
        for f in range(folds):
            rows = ens.fold_assignment != f
            fold_seed = derive_seed(11, f"stack.oof.{f}", 0)
            separate = train(kind, X[rows], y[rows], hyper, fold_seed)
            assert (by_seed[fold_seed].parameter_digest()
                    == separate.parameter_digest()), f"fold {f}"


def test_padded_runs_take_their_one_run_gradients():
    rng = np.random.default_rng(4)
    for d, width, rows in ((3, 4, (17, 23)), (16, 17, (40, 39)), (6, 16, (168, 135))):
        Xs = [rng.normal(size=(k, d)) for k in rows]
        ys = [(rng.random(k) < 0.4).astype(np.float64) for k in rows]
        w1 = np.concatenate([rng.uniform(-0.5, 0.5, size=(2, d, width)),
                             rng.uniform(-0.1, 0.1, size=(2, 1, width))], axis=1)
        params = (w1, rng.uniform(-0.5, 0.5, size=(2, width)), np.array([0.3, -0.2]))
        grads = tuple(np.empty_like(p) for p in params)
        _MLPRuns(Xs, ys, width).gradients(params, grads)
        for r in range(2):
            one = {"w1": w1[r, :-1], "b1": w1[r, -1], "w2": params[1][r],
                   "b2": params[2][r]}
            _, expected = mlp_loss_and_gradients(one, Xs[r], ys[r])
            got = {"w1": grads[0][r, :-1], "b1": grads[0][r, -1],
                   "w2": grads[1][r], "b2": grads[2][r]}
            for key, grad in got.items():
                expected_bytes = np.asarray(expected[key]).tobytes()
                assert grad.tobytes() == expected_bytes, (d, width, rows, r, key)


@pytest.mark.parametrize("n,d,width", [(n, 6, 16) for n, _ in FOLD_SHAPES]
                         + [(168, 16, 17)])
def test_gradients_match_the_hidden_delta_formula(n, d, width):
    """The trainer's step regroups the first layer's gradient; it stays within
    1e-12, relative to each gradient's largest entry, of the textbook form
    d = (dz w2^T) * (1 - h**2), g_w1 = X^T d, g_b1 = sum over rows of d."""
    X, y = _fold_data(n, seed=n, d=d)
    rng = np.random.default_rng(n)
    params = {"w1": rng.uniform(-0.5, 0.5, size=(d, width)),
              "b1": rng.uniform(-0.1, 0.1, size=width),
              "w2": rng.uniform(-0.5, 0.5, size=width), "b2": 0.3}
    _, grads = mlp_loss_and_gradients(params, X, y)
    hidden = np.tanh(X @ params["w1"] + params["b1"])
    dz = (_sigmoid(hidden @ params["w2"] + params["b2"]) - y) / n
    delta = np.outer(dz, params["w2"]) * (1.0 - hidden ** 2)
    expected = {"w1": X.T @ delta, "b1": delta.sum(axis=0),
                "w2": hidden.T @ dz, "b2": dz.sum()}
    for key, want in expected.items():
        error = np.max(np.abs(np.asarray(grads[key]) - want))
        assert error <= 1e-12 * np.max(np.abs(want)), (key, error)


def test_fold_ids_are_balanced_and_never_empty():
    """Ids run (0..n-1) mod folds, so no fold is empty for 2 <= folds <= n and
    fold training sets (hence padded run lengths) differ by at most one row."""
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(2, 400))
        folds = int(rng.integers(2, min(n, 12) + 1))
        y = (rng.random(n) < rng.uniform(0.0, 1.0)).astype(np.int64)
        sizes = np.bincount(_stratified_folds(y, folds, int(rng.integers(1 << 30))),
                            minlength=folds)
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1, (n, folds)


def test_single_class_fold_fails_before_training_and_is_named(monkeypatch):
    X = np.random.default_rng(0).normal(size=(20, 3))
    y = np.zeros(20, dtype=np.int64)
    y[7] = 1
    built = _recording_constructors(monkeypatch)
    with pytest.raises(SingleClassTrainingSet) as caught:
        train_stack([("logreg", {}), ("mlp", {})], ("logreg", {}), X, y,
                    folds=5, seed=0)
    fold = _stratified_folds(y, 5, derive_seed(0, "stack.folds"))[7]
    assert str(caught.value) == (f"fold {fold} of 5, first-level member 0 (logreg): "
                                 "training labels contain a single class")
    assert built == []  # no fold trained before the check


def test_unknown_member_kind_fails_before_training(monkeypatch):
    X, y = _fold_data(30)
    built = _recording_constructors(monkeypatch)
    with pytest.raises(ValueError, match="unknown model kind 'svm'"):
        train_stack([("logreg", {}), ("svm", {})], ("logreg", {}), X, y,
                    folds=3, seed=0)
    assert built == []
