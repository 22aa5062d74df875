"""From-scratch binary classifiers behind one trainer/scorer interface.

All trainers are pure functions of (data, hyperparameters, seed): full-batch
gradient descent (no stochastic batching), zero or seeded-uniform init, and
deterministic tie-breaking in the tree builder. Scores are probability-like
values in [0, 1]; labels threshold the score at 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import canonical_float, sha256_hex
from .errors import (
    DimensionMismatch,
    FoldTooSmall,
    NonFiniteFeature,
    SingleClassTrainingSet,
)
from .seeding import derive_seed

LOGREG = "logreg"
TREE = "tree"
MLP = "mlp"
STACK = "stack"

DEFAULT_HYPERPARAMETERS = {
    LOGREG: {"learning_rate": 0.1, "epochs": 500, "l2": 1e-4},
    TREE: {"max_depth": 5, "min_samples_split": 2},
    MLP: {"hidden_width": 16, "epochs": 500, "learning_rate": 0.1,
          "init_scale": 0.5},
}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_training_inputs(X: np.ndarray, y: np.ndarray, where: str = ""):
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature(f"{where}training matrix contains NaN or infinite values")
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise SingleClassTrainingSet(f"{where}need >= 2 rows with matching labels")
    if np.unique(y).size < 2:
        raise SingleClassTrainingSet(f"{where}training labels contain a single class")


class _Runs:
    """R gradient-descent runs of one loss in lockstep, run r on rows Xs[r].

    Per-row buffers are stacked zero-padded as (R, m, ...), m the longest run,
    and elementwise steps span the stack. Matrix products and sums over rows
    use one run's own rows only (``Xs[r]`` or a view of its first n_r rows),
    since padding can regroup their additions. Each run is then bit-identical
    to a lone fit; that is tested with this build's BLAS, and a BLAS whose
    sums depend on memory alignment could differ in low bits.
    """

    def __init__(self, Xs, ys):
        self.Xs = Xs
        self.rows = [len(y) for y in ys]
        self.n = np.array(self.rows, dtype=np.float64)[:, None]
        self.y = self.stack()
        for r, y in enumerate(ys):
            self.y[r, :len(y)] = y
        self.logits = self.stack()
        self.dz = self.stack()
        self.logit_rows = self.own(self.logits)
        self.dz_rows = self.own(self.dz)

    def stack(self, *tail):
        return np.zeros((len(self.rows), max(self.rows)) + tail)

    def own(self, stack):
        """Each run's own rows of a stack, as views."""
        return [stack[r, :k] for r, k in enumerate(self.rows)]

    def output_step(self, inputs, w, b, g_w, g_b):
        """Cross-entropy gradients of the units sigmoid(inputs[r] @ w[r] + b[r])
        into g_w, g_b; leaves the residuals in dz."""
        for x, w_r, z in zip(inputs, w, self.logit_rows):
            np.matmul(x, w_r, out=z)
        self.logits += b[:, None]
        np.subtract(_sigmoid(self.logits), self.y, out=self.dz)
        self.dz /= self.n
        for r, (x, dz) in enumerate(zip(inputs, self.dz_rows)):
            np.matmul(x.T, dz, out=g_w[r])
            g_b[r] = np.add.reduce(dz)


class TrainedModel:
    """Common scorer surface; subclasses hold kind-specific parameters."""

    kind: str = "base"
    threshold: float = 0.5

    def __init__(self, input_dimension: int, train_seed: int, hyperparameters: dict):
        self.input_dimension = int(input_dimension)
        self.train_seed = int(train_seed)
        self.hyperparameters = dict(hyperparameters)

    def score(self, X: np.ndarray) -> np.ndarray:
        """Batch scores in [0, 1] for an (n, d) matrix."""
        raise NotImplementedError

    def label(self, X: np.ndarray) -> np.ndarray:
        return (self.score(X) >= self.threshold).astype(np.int64)

    def _check_dim(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dimension:
            raise DimensionMismatch(
                f"expected (n, {self.input_dimension}) input, got {X.shape}")
        return X

    def parameter_digest(self) -> str:
        return sha256_hex("\n".join(self._parameter_tokens()))

    def _parameter_tokens(self) -> list[str]:
        raise NotImplementedError


# --- logistic regression --------------------------------------------------

class LogisticRegressionModel(TrainedModel):
    kind = LOGREG

    def __init__(self, weights, bias, **kwargs):
        super().__init__(input_dimension=len(weights), **kwargs)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.bias = float(bias)

    def score(self, X):
        X = self._check_dim(X)
        return _sigmoid(X @ self.weights + self.bias)

    def _parameter_tokens(self):
        return ["logreg"] + [canonical_float(v) for v in self.weights] + \
            [canonical_float(self.bias)]


def _train_logreg(Xs, ys, hyper, seeds):
    lr, l2 = hyper["learning_rate"], hyper["l2"]
    runs = _Runs(Xs, ys)
    w = np.zeros((len(Xs), Xs[0].shape[1]))
    b = np.zeros(len(Xs))
    g_w = np.empty_like(w)
    g_b = np.empty_like(b)
    for _ in range(int(hyper["epochs"])):
        runs.output_step(Xs, w, b, g_w, g_b)
        g_w += 2.0 * l2 * w
        w -= lr * g_w
        b -= lr * g_b
    return [LogisticRegressionModel(w[r], b[r], train_seed=seed, hyperparameters=hyper)
            for r, seed in enumerate(seeds)]


# --- CART decision tree -----------------------------------------------------

@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    score: float = 0.0

    @property
    def is_leaf(self):
        return self.left is None


def _gini(pos: float, total: float) -> float:
    if total <= 0:
        return 0.0
    p = pos / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(X, y, feature_order):
    """Best (gain, feature, threshold); ties go to the lowest feature index,
    then the lowest threshold (ascending scan, strictly-greater updates)."""
    n = y.size
    parent = _gini(y.sum(), n)
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for j in feature_order:
        values = X[:, j]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        boundaries = np.flatnonzero(sv[:-1] < sv[1:])
        if boundaries.size == 0:
            continue
        cum_pos = np.cumsum(sy)
        n_left = boundaries + 1.0
        pos_left = cum_pos[boundaries]
        n_right = n - n_left
        pos_right = y.sum() - pos_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini_l = 1.0 - p_l ** 2 - (1.0 - p_l) ** 2
        gini_r = 1.0 - p_r ** 2 - (1.0 - p_r) ** 2
        gains = parent - (n_left * gini_l + n_right * gini_r) / n
        k = int(np.argmax(gains))
        if gains[k] > best_gain + 1e-12:
            best_gain = float(gains[k])
            best_feature = j
            i = boundaries[k]
            best_threshold = float((sv[i] + sv[i + 1]) / 2.0)
    return best_gain, best_feature, best_threshold


def _grow_tree(X, y, depth, max_depth, min_samples_split):
    node = _TreeNode(score=float(y.mean()))
    if depth >= max_depth or y.size < min_samples_split or y.min() == y.max():
        return node
    gain, feature, threshold = _best_split(X, y, range(X.shape[1]))
    if feature < 0:
        return node
    go_left = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow_tree(X[go_left], y[go_left], depth + 1, max_depth,
                           min_samples_split)
    node.right = _grow_tree(X[~go_left], y[~go_left], depth + 1, max_depth,
                            min_samples_split)
    return node


def _flatten_tree(root: _TreeNode):
    """Preorder node arrays (feature, threshold, left, right, value); a leaf
    routes to itself, so every row can take the same number of steps."""
    feature, threshold, left, right, value = [], [], [], [], []

    def add(node):
        i = len(value)
        feature.append(max(node.feature, 0))
        threshold.append(node.threshold)
        left.append(i)
        right.append(i)
        value.append(node.score)
        if not node.is_leaf:
            left[i] = add(node.left)
            right[i] = add(node.right)
        return i

    add(root)
    return (np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
            np.array(value, dtype=np.float64))


class DecisionTreeModel(TrainedModel):
    kind = TREE

    def __init__(self, root: _TreeNode, input_dimension: int, **kwargs):
        super().__init__(input_dimension=input_dimension, **kwargs)
        self.root = root
        (self._feature, self._threshold, self._left, self._right,
         self._value) = _flatten_tree(root)
        self._depth = self.depth()

    def score(self, X):
        """Descends all rows together, one tree level per step."""
        X = self._check_dim(X)
        flat = X.ravel()  # each level gathers its split values by flat index
        row_start = np.arange(X.shape[0]) * X.shape[1]
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self._depth):
            go_left = flat[row_start + self._feature[node]] <= self._threshold[node]
            node = np.where(go_left, self._left[node], self._right[node])
        return self._value[node]

    def depth(self) -> int:
        def walk(node):
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))
        return walk(self.root)

    def _parameter_tokens(self):
        tokens = ["tree"]

        def walk(node):
            if node.is_leaf:
                tokens.append("leaf:" + canonical_float(node.score))
            else:
                tokens.append(f"split:{node.feature}:" + canonical_float(node.threshold))
                walk(node.left)
                walk(node.right)
        walk(self.root)
        return tokens


def _train_tree(Xs, ys, hyper, seeds):
    depth, min_split = int(hyper["max_depth"]), int(hyper["min_samples_split"])
    return [DecisionTreeModel(_grow_tree(X, y.astype(np.float64), 0, depth, min_split),
                              input_dimension=X.shape[1], train_seed=seed,
                              hyperparameters=hyper) for X, y, seed in zip(Xs, ys, seeds)]


# --- multi-layer perceptron -------------------------------------------------

class MLPModel(TrainedModel):
    kind = MLP

    def __init__(self, w1, b1, w2, b2, **kwargs):
        super().__init__(input_dimension=w1.shape[0], **kwargs)
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = float(b2)

    def score(self, X):
        X = self._check_dim(X)
        hidden = X @ self.w1
        hidden += self.b1
        np.tanh(hidden, out=hidden)
        return _sigmoid(hidden @ self.w2 + self.b2)

    def _parameter_tokens(self):
        tokens = ["mlp"]
        for arr in (self.w1, self.b1, self.w2, [self.b2]):
            tokens.extend(canonical_float(float(v)) for v in np.ravel(arr))
        return tokens


class _MLPRuns(_Runs):
    """_Runs with the hidden-layer buffers of width-``width`` nets."""

    def __init__(self, Xs, ys, width):
        super().__init__(Xs, ys)
        self.hidden = self.stack(width)
        self.d_hidden = self.stack(width)
        self.slope = self.stack(width)  # 1 - hidden**2
        self.hidden_rows = self.own(self.hidden)
        self.d_hidden_rows = self.own(self.d_hidden)

    def gradients(self, params, grads):
        """Fills grads (g_w1, g_b1, g_w2, g_b2) at params (w1, b1, w2, b2),
        each indexed by run first."""
        w1, b1, w2, b2 = params
        g_w1, g_b1, g_w2, g_b2 = grads
        for x, w1_r, h in zip(self.Xs, w1, self.hidden_rows):
            np.matmul(x, w1_r, out=h)
        self.hidden += b1[:, None, :]
        np.tanh(self.hidden, out=self.hidden)
        self.output_step(self.hidden_rows, w2, b2, g_w2, g_b2)
        np.multiply(self.dz[:, :, None], w2[:, None, :], out=self.d_hidden)
        np.square(self.hidden, out=self.slope)
        np.subtract(1.0, self.slope, out=self.slope)
        self.d_hidden *= self.slope
        for r, (x, d) in enumerate(zip(self.Xs, self.d_hidden_rows)):
            np.matmul(x.T, d, out=g_w1[r])
            np.add.reduce(d, axis=0, out=g_b1[r])


def mlp_loss_and_gradients(params: dict, X: np.ndarray, y: np.ndarray):
    """(loss, grads): the mean cross-entropy loss and the trainer's own step's
    gradients (one run). ``params`` holds w1 (d, h), b1 (h,), w2 (h,), b2
    (float); the gradients are keyed like params."""
    keys = ("w1", "b1", "w2", "b2")
    stacked = tuple(np.array([params[k]], dtype=np.float64) for k in keys)
    grads = tuple(np.empty_like(p) for p in stacked)
    runs = _MLPRuns([np.asarray(X, dtype=np.float64)], [y], stacked[1].shape[1])
    runs.gradients(stacked, grads)
    z = runs.logits[0]  # stable binary CE on logits: mean(softplus(z) - y*z)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return loss, {k: g[0] for k, g in zip(keys, grads)}


def _train_mlp(Xs, ys, hyper, seeds):
    """Run r draws its init from seeds[r]: w1, then w2."""
    width, scale = int(hyper["hidden_width"]), hyper["init_scale"]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    w1 = np.array([g.uniform(-scale, scale, size=(Xs[0].shape[1], width)) for g in rngs])
    w2 = np.array([g.uniform(-scale, scale, size=width) for g in rngs])
    params = (w1, np.zeros((len(seeds), width)), w2, np.zeros(len(seeds)))
    grads = tuple(np.empty_like(p) for p in params)
    runs = _MLPRuns(Xs, ys, width)
    for _ in range(int(hyper["epochs"])):
        runs.gradients(params, grads)
        for param, grad in zip(params, grads):
            param -= hyper["learning_rate"] * grad
    return [MLPModel(*(p[r] for p in params), train_seed=seed, hyperparameters=hyper)
            for r, seed in enumerate(seeds)]


_TRAINERS = {LOGREG: _train_logreg, TREE: _train_tree, MLP: _train_mlp}


def _merged_hyper(kind: str, hyper: dict | None) -> dict:
    if kind not in _TRAINERS:
        raise ValueError(f"unknown model kind {kind!r}")
    return {**DEFAULT_HYPERPARAMETERS[kind], **(hyper or {})}


def train(kind: str, X: np.ndarray, y: np.ndarray, hyper: dict | None = None,
          seed: int = 0) -> TrainedModel:
    """Train one classifier; pure function of (data, hyper, seed)."""
    merged = _merged_hyper(kind, hyper)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_training_inputs(X, y)
    return _TRAINERS[kind]([X], [y], merged, [int(seed)])[0]


# --- stacked ensemble -------------------------------------------------------

class StackedEnsemble(TrainedModel):
    """Second-level model over the first-level score vector."""

    kind = STACK

    def __init__(self, first_level, second_level, fold_assignment, **kwargs):
        super().__init__(**kwargs)
        self.first_level = list(first_level)
        self.second_level = second_level
        self.fold_assignment = np.asarray(fold_assignment, dtype=np.int64)

    def first_level_scores(self, X) -> np.ndarray:
        X = self._check_dim(X)
        return np.column_stack([m.score(X) for m in self.first_level])

    def score(self, X):
        return self.second_level.score(self.first_level_scores(X))

    def _parameter_tokens(self):
        tokens = ["stack"]
        for m in self.first_level:
            tokens.append(m.parameter_digest())
        tokens.append(self.second_level.parameter_digest())
        return tokens


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Seeded per-class round-robin fold ids, (0..n-1) mod folds over the shuffled
    classes: for 2 <= folds <= n no fold is empty and fold training sets differ by <= 1 row."""
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.size, dtype=np.int64)
    offset = 0
    for cls in (0, 1):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(members.size)]
        assignment[members] = (np.arange(members.size) + offset) % folds
        offset += members.size
    return assignment


def train_stack(first_specs, second_spec, X, y, folds: int = 5,
                seed: int = 0) -> StackedEnsemble:
    """Train a stacking ensemble with an out-of-fold second level.

    ``first_specs`` is a list of (kind, hyper); ``second_spec`` one
    (kind, hyper). First-level models train on all rows; the second level
    trains on out-of-fold first-level scores to avoid leakage. Fold
    assignment is seeded and recorded on the ensemble. One call trains a
    member's fold fits; logreg and MLP fold fits share one gradient-descent
    loop, each bit-identical to a separate fit.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_training_inputs(X, y)
    if folds < 2 or folds > X.shape[0]:
        raise FoldTooSmall(f"folds={folds} invalid for {X.shape[0]} rows")
    if len(first_specs) < 1:
        raise ValueError("need at least one first-level model")

    merged = [_merged_hyper(kind, hyper) for kind, hyper in first_specs]
    assignment = _stratified_folds(y, folds, derive_seed(seed, "stack.folds"))
    fold_X, fold_y = zip(*[(X[assignment != f], y[assignment != f]) for f in range(folds)])
    for f in range(folds):  # the first member would train on it first
        _check_training_inputs(fold_X[f], fold_y[f], f"fold {f} of {folds}, "
                               f"first-level member 0 ({first_specs[0][0]}): ")

    oof = np.zeros((X.shape[0], len(first_specs)), dtype=np.float64)
    for i, (kind, _) in enumerate(first_specs):  # one call trains all folds
        seeds = [derive_seed(seed, f"stack.oof.{f}", i) for f in range(folds)]
        models = _TRAINERS[kind](fold_X, fold_y, merged[i], seeds)
        for f, model in enumerate(models):
            oof[assignment == f, i] = model.score(X[assignment == f])

    first_level = [
        train(kind, X, y, hyper, derive_seed(seed, "stack.first", i))
        for i, (kind, hyper) in enumerate(first_specs)
    ]
    second_kind, second_hyper = second_spec
    second_level = train(second_kind, oof, y, second_hyper,
                         derive_seed(seed, "stack.second"))

    hyper_map = {
        "first_level": [{"kind": k, "hyper": first_level[i].hyperparameters}
                        for i, (k, _) in enumerate(first_specs)],
        "second_level": {"kind": second_kind,
                         "hyper": second_level.hyperparameters},
        "folds": int(folds),
    }
    return StackedEnsemble(
        first_level, second_level, assignment,
        input_dimension=X.shape[1], train_seed=int(seed),
        hyperparameters=hyper_map,
    )
