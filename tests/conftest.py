import numpy as np
import pytest

from gridbench.data import SyntheticSpec, generate_synthetic, split
from gridbench.models import train, train_stack
from gridbench.preprocess import PipelineConfig, apply_pipeline, fit_pipeline


class LinearStub:
    """Link-free linear scorer f(x) = w.x + b; may leave [0, 1] (test double)."""

    kind = "stub"

    def __init__(self, w, b=0.0, threshold=0.5):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.threshold = float(threshold)
        self.input_dimension = self.w.size

    def score(self, X):
        return np.asarray(X, dtype=np.float64) @ self.w + self.b

    def label(self, X):
        return (self.score(X) >= self.threshold).astype(np.int64)


class ConstantStub:
    """Scorer pinned to one value regardless of input."""

    kind = "stub"

    def __init__(self, value, input_dimension=2, threshold=0.5):
        self.value = float(value)
        self.threshold = float(threshold)
        self.input_dimension = input_dimension

    def score(self, X):
        return np.full(np.asarray(X).shape[0], self.value)

    def label(self, X):
        return (self.score(X) >= self.threshold).astype(np.int64)


class AxisThresholdStub:
    """1-D decision stub: label 1 iff x[0] >= cut."""

    kind = "stub"

    def __init__(self, cut=0.5):
        self.cut = float(cut)
        self.threshold = 0.5
        self.input_dimension = 1

    def score(self, X):
        return (np.asarray(X, dtype=np.float64)[:, 0] >= self.cut).astype(np.float64)

    def label(self, X):
        return (self.score(X) >= self.threshold).astype(np.int64)


class SingleFeatureStub:
    """Reads only one feature; piecewise scores for the MoRF hand example."""

    kind = "stub"

    def __init__(self, feature, high=0.9, low=0.2, cut=0.5, input_dimension=5):
        self.feature = feature
        self.high, self.low, self.cut = high, low, cut
        self.threshold = 0.5
        self.input_dimension = input_dimension

    def score(self, X):
        X = np.asarray(X, dtype=np.float64)
        return np.where(X[:, self.feature] >= self.cut, self.high, self.low)

    def label(self, X):
        return (self.score(X) >= self.threshold).astype(np.int64)


@pytest.fixture(scope="session")
def blob_dataset():
    spec = SyntheticSpec(n=160, d_numeric=4, anomaly_fraction=0.3,
                         class_separation=2.0, name="blobs")
    return generate_synthetic(spec, seed=11)


@pytest.fixture(scope="session")
def blob_split(blob_dataset):
    return split(blob_dataset, 0.7, seed=5)


@pytest.fixture(scope="session")
def blob_matrices(blob_split):
    pipeline = fit_pipeline(blob_split.train, PipelineConfig())
    X_train = apply_pipeline(pipeline, blob_split.train)
    X_test = apply_pipeline(pipeline, blob_split.test)
    return X_train, blob_split.train.labels, X_test, blob_split.test.labels


@pytest.fixture(scope="session")
def trained_models(blob_matrices):
    X_train, y_train, _, _ = blob_matrices
    return {
        "logreg": train("logreg", X_train, y_train, seed=1),
        "tree": train("tree", X_train, y_train, seed=2),
        "mlp": train("mlp", X_train, y_train, {"epochs": 200}, seed=3),
    }


@pytest.fixture(scope="session")
def trained_stack(blob_matrices):
    X_train, y_train, _, _ = blob_matrices
    return train_stack([("logreg", {}), ("tree", {}), ("mlp", {"epochs": 200})],
                       ("logreg", {}), X_train, y_train, folds=5, seed=9)


@pytest.fixture(scope="session")
def categorical_data():
    """4 numeric features and 2 three-category ones: 10 columns, 6 players."""
    spec = SyntheticSpec(n=160, d_numeric=4, d_categorical=2,
                         categories_per_feature=3, anomaly_fraction=0.3,
                         class_separation=1.5, name="mixed")
    pair = split(generate_synthetic(spec, seed=17), 0.7, seed=3)
    pipeline = fit_pipeline(pair.train, PipelineConfig())
    return (pipeline, apply_pipeline(pipeline, pair.train), pair.train.labels,
            apply_pipeline(pipeline, pair.test))


@pytest.fixture(scope="session")
def categorical_stack(categorical_data):
    _, X_train, y_train, _ = categorical_data
    return train_stack([("logreg", {"epochs": 60}), ("tree", {}),
                        ("mlp", {"epochs": 60})],
                       ("logreg", {"epochs": 60}), X_train, y_train, folds=3, seed=5)
