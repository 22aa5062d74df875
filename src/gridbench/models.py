"""From-scratch binary classifiers behind one trainer/scorer interface.

All trainers are pure functions of (data, hyperparameters, seed): full-batch
gradient descent (no stochastic batching), zero or seeded-uniform init, and
deterministic tie-breaking in the tree builder. Scores are probability-like
values in [0, 1]; labels threshold the score at 0.5.
"""

from __future__ import annotations

from typing import NamedTuple

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
MODEL_KINDS = (LOGREG, TREE, MLP, STACK)

DEFAULT_HYPERPARAMETERS = {
    LOGREG: {"learning_rate": 0.1, "epochs": 500, "l2": 1e-4},
    TREE: {"max_depth": 5, "min_samples_split": 2},
    MLP: {"hidden_width": 16, "epochs": 500, "learning_rate": 0.1,
          "init_scale": 0.5},
}


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)  # exp(-|z|) never overflows
    out = np.where(z >= 0, 1.0, e)
    out /= np.add(e, 1.0, out=e)
    return out


def _check_training_inputs(X: np.ndarray, y: np.ndarray, where: str = ""):
    if not np.all(np.isfinite(X)):
        raise NonFiniteFeature(f"{where}training matrix contains NaN or infinite values")
    if X.shape[0] != y.shape[0] or X.shape[0] < 2:
        raise SingleClassTrainingSet(f"{where}need >= 2 rows with matching labels")
    if np.unique(y).size < 2:
        raise SingleClassTrainingSet(f"{where}training labels contain a single class")


class _Runs:
    """R gradient-descent runs of one loss in lockstep, run r on the n_r rows
    labelled ys[r].

    Per-row buffers are stacked zero-padded as (R, m, ...), m the longest run,
    and elementwise steps span the stack. Matrix products and sums over rows
    use one run's own rows only (its inputs, or a view of its first n_r rows),
    since padding can regroup their additions. Each run is then bit-identical
    to a lone fit; that is tested with this build's BLAS, and a BLAS whose
    sums depend on memory alignment could differ in low bits.
    """

    def __init__(self, ys):
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
    runs = _Runs(ys)
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

def _best_split(X, y):
    """Best (feature, split value), or feature -1 when no split gains; ties go
    to the lowest feature index, then the lowest split value (ascending scan,
    strictly-greater updates)."""
    n = y.size
    p = y.sum() / n
    parent = 1.0 - p ** 2 - (1.0 - p) ** 2
    best_gain, best_feature, best_value = 0.0, -1, 0.0
    for j in range(X.shape[1]):
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
            best_value = float((sv[i] + sv[i + 1]) / 2.0)
    return best_feature, best_value


def _grow_tree(X, y, max_depth, min_samples_split):
    """The node arrays of ``DecisionTreeModel``, grown in preorder, and the
    tree's depth."""
    feature, split_value, left, right, value = [], [], [], [], []

    def grow(X, y, depth):
        i = len(value)
        feature.append(0)
        split_value.append(0.0)
        left.append(i)
        right.append(i)
        value.append(float(y.mean()))
        if depth >= max_depth or y.size < min_samples_split or y.min() == y.max():
            return depth
        j, cut = _best_split(X, y)
        if j < 0:
            return depth
        go_left = X[:, j] <= cut
        feature[i], split_value[i], left[i] = j, cut, i + 1
        depth_left = grow(X[go_left], y[go_left], depth + 1)
        right[i] = len(value)
        return max(depth_left, grow(X[~go_left], y[~go_left], depth + 1))

    depth = grow(X, y, 0)
    return (np.array(feature, dtype=np.intp), np.array(split_value, dtype=np.float64),
            np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
            np.array(value, dtype=np.float64), depth)


class DecisionTreeModel(TrainedModel):
    """CART tree as preorder node arrays: split feature and split value, left
    and right child, and the node's training-label mean. Rows with
    ``x[feature] <= split_value`` go left. A leaf routes to itself, so every
    row can take the same number of steps. ``_child[2 * i + 1]`` is node i's
    left child and ``_child[2 * i]`` its right one, so a step is one gather."""

    kind = TREE

    def __init__(self, feature, split_value, left, right, value, depth, **kwargs):
        super().__init__(**kwargs)
        self.feature = feature
        self.split_value = split_value
        self.left = left
        self.right = right
        self.value = value
        self._depth = depth
        self._child = np.column_stack([right, left]).ravel()

    def score(self, X):
        """Descends all rows together, one tree level per step."""
        X = self._check_dim(X)
        flat = X.ravel()  # each level gathers its split values by flat index
        row_start = np.arange(X.shape[0]) * X.shape[1]
        node = np.zeros(X.shape[0], dtype=np.intp)
        for _ in range(self._depth):
            go_left = flat[row_start + self.feature[node]] <= self.split_value[node]
            node = self._child[2 * node + go_left]
        return self.value[node]

    def _parameter_tokens(self):
        tokens = ["tree"]
        nodes = zip(self.feature.tolist(), self.split_value.tolist(),
                    self.left.tolist(), self.value.tolist())
        for i, (j, cut, child, v) in enumerate(nodes):
            if child == i:
                tokens.append("leaf:" + canonical_float(v))
            else:
                tokens.append(f"split:{j}:" + canonical_float(cut))
        return tokens


def _train_tree(Xs, ys, hyper, seeds):
    depth, min_split = int(hyper["max_depth"]), int(hyper["min_samples_split"])
    return [DecisionTreeModel(*_grow_tree(X, y.astype(np.float64), depth, min_split),
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
    """_Runs with the hidden-layer buffers of width-``width`` nets. The first
    layer reads [Xs[r] | 1], so its bias is the last row of its weights."""

    def __init__(self, Xs, ys, width):
        super().__init__(ys)
        self.inputs = self.stack(Xs[0].shape[1] + 1)
        for r, x in enumerate(Xs):
            self.inputs[r, :len(x), :-1] = x
            self.inputs[r, :len(x), -1] = 1.0
        self.scaled = np.empty_like(self.inputs)  # [x | 1] * dz
        self.hidden = self.stack(width)
        self.slope = self.stack(width)  # 1 - hidden**2
        self.input_rows, self.scaled_rows, self.hidden_rows, self.slope_rows = map(
            self.own, (self.inputs, self.scaled, self.hidden, self.slope))

    def gradients(self, params, grads):
        """Fills grads (g_w1, g_w2, g_b2) at params (w1, w2, b2), each indexed
        by run first; w1[r] is (d + 1, width), its last row the hidden bias.
        g_w1[r] = (([x | 1] * dz)^T (1 - hidden**2)) * w2[r]: the backward
        product leaves w2 out, so no hidden-sized delta buffer is built."""
        w1, w2, b2 = params
        g_w1, g_w2, g_b2 = grads
        for x, w1_r, h in zip(self.input_rows, w1, self.hidden_rows):
            np.matmul(x, w1_r, out=h)
        np.tanh(self.hidden, out=self.hidden)
        self.output_step(self.hidden_rows, w2, b2, g_w2, g_b2)
        np.square(self.hidden, out=self.slope)
        np.subtract(1.0, self.slope, out=self.slope)
        np.multiply(self.inputs, self.dz[:, :, None], out=self.scaled)
        for r, (x_dz, s) in enumerate(zip(self.scaled_rows, self.slope_rows)):
            np.matmul(x_dz.T, s, out=g_w1[r])
        g_w1 *= w2[:, None, :]


def mlp_loss_and_gradients(params: dict, X: np.ndarray, y: np.ndarray):
    """(loss, grads): the mean cross-entropy loss and the trainer's own step's
    gradients (one run). ``params`` holds w1 (d, h), b1 (h,), w2 (h,), b2
    (float); the gradients are keyed like params."""
    w1 = np.vstack([params["w1"], params["b1"]])
    stacked = tuple(np.array([p], dtype=np.float64)
                    for p in (w1, params["w2"], params["b2"]))
    grads = tuple(np.empty_like(p) for p in stacked)
    runs = _MLPRuns([np.asarray(X, dtype=np.float64)], [y], w1.shape[1])
    runs.gradients(stacked, grads)
    z = runs.logits[0]  # stable binary CE on logits: mean(softplus(z) - y*z)
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    g_w1, g_w2, g_b2 = (g[0] for g in grads)
    return loss, {"w1": g_w1[:-1], "b1": g_w1[-1], "w2": g_w2, "b2": g_b2}


def _train_mlp(Xs, ys, hyper, seeds):
    """Run r draws its init from seeds[r]: w1, then w2; the hidden bias
    starts at zero."""
    width, scale = int(hyper["hidden_width"]), hyper["init_scale"]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    w1 = np.array([g.uniform(-scale, scale, size=(Xs[0].shape[1], width)) for g in rngs])
    w2 = np.array([g.uniform(-scale, scale, size=width) for g in rngs])
    params = (np.pad(w1, ((0, 0), (0, 1), (0, 0))), w2, np.zeros(len(seeds)))
    grads = tuple(np.empty_like(p) for p in params)
    runs = _MLPRuns(Xs, ys, width)
    for _ in range(int(hyper["epochs"])):
        runs.gradients(params, grads)
        for param, grad in zip(params, grads):
            param -= hyper["learning_rate"] * grad
    w1, w2, b2 = params
    return [MLPModel(w1[r, :-1], w1[r, -1], w2[r], b2[r], train_seed=seed,
                     hyperparameters=hyper) for r, seed in enumerate(seeds)]


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

    def __init__(self, plan: StackPlan, first_level, second_level):
        super().__init__(plan.X.shape[1], plan.seed, {
            "first_level": [{"kind": kind, "hyper": hyper} for kind, hyper in plan.members],
            "second_level": {"kind": second_level.kind,
                             "hyper": second_level.hyperparameters},
            "folds": plan.folds})
        self.first_level = list(first_level)
        self.second_level = second_level
        self.fold_assignment = plan.assignment

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


class StackPlan(NamedTuple):
    """A stack's checked inputs and seeded fold assignment: all that its
    member jobs and second level read. ``members`` holds (kind, merged hyper)."""

    members: list
    second: tuple
    X: np.ndarray
    y: np.ndarray
    assignment: np.ndarray
    folds: int
    seed: int


def plan_stack(first_specs, second_spec, X, y, folds: int = 5,
               seed: int = 0) -> StackPlan:
    """Check a stack's inputs and assign its folds, before any fit."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_training_inputs(X, y)
    if folds < 2 or folds > X.shape[0]:
        raise FoldTooSmall(f"folds={folds} invalid for {X.shape[0]} rows")
    if len(first_specs) < 1:
        raise ValueError("need at least one first-level model")
    members = [(kind, _merged_hyper(kind, hyper)) for kind, hyper in first_specs]
    assignment = _stratified_folds(y, folds, derive_seed(seed, "stack.folds"))
    for f in range(folds):  # the first member would train on it first
        _check_training_inputs(X[assignment != f], y[assignment != f],
                               f"fold {f} of {folds}, first-level member 0 "
                               f"({first_specs[0][0]}): ")
    return StackPlan(members, tuple(second_spec), X, y, assignment, int(folds), int(seed))


def stack_member_scores(plan: StackPlan, i: int) -> np.ndarray:
    """Member i's out-of-fold score column, from one trainer call over all
    folds; logreg and MLP fold fits share one gradient-descent loop."""
    kind, hyper = plan.members[i]
    held_out = [plan.assignment == f for f in range(plan.folds)]
    seeds = [derive_seed(plan.seed, f"stack.oof.{f}", i) for f in range(plan.folds)]
    models = _TRAINERS[kind]([plan.X[~rows] for rows in held_out],
                             [plan.y[~rows] for rows in held_out], hyper, seeds)
    column = np.empty(plan.y.size)
    for rows, model in zip(held_out, models):
        column[rows] = model.score(plan.X[rows])
    return column


def stack_member_fit(plan: StackPlan, i: int) -> TrainedModel:
    kind, hyper = plan.members[i]
    return train(kind, plan.X, plan.y, hyper, derive_seed(plan.seed, "stack.first", i))


def stack_second_level(plan: StackPlan, columns) -> TrainedModel:
    kind, hyper = plan.second
    return train(kind, np.column_stack(columns), plan.y, hyper,
                 derive_seed(plan.seed, "stack.second"))


def train_stack(first_specs, second_spec, X, y, folds: int = 5,
                seed: int = 0) -> StackedEnsemble:
    """Train a stacking ensemble with an out-of-fold second level.

    ``first_specs`` is a list of (kind, hyper); ``second_spec`` one
    (kind, hyper). First-level models train on all rows; the second level
    trains on out-of-fold first-level scores to avoid leakage. Fold
    assignment is seeded and recorded on the ensemble. Each step after
    ``plan_stack`` is a pure function of the plan, so a pool may run the
    member steps in any order.
    """
    plan = plan_stack(first_specs, second_spec, X, y, folds, seed)
    members = range(len(plan.members))
    columns = [stack_member_scores(plan, i) for i in members]
    return StackedEnsemble(plan, [stack_member_fit(plan, i) for i in members],
                           stack_second_level(plan, columns))
