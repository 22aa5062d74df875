"""Model-agnostic Shapley-value explanations and ensemble composition.

The value function is marginal (interventional): v(S) is the mean model
score over background rows with the explained instance's values imposed on
the coalition S. Exact mode enumerates all 2^d coalitions (d <= 12);
sampled mode uses seeded permutation sampling. ``basic_join_explain``
composes per-model first-level attributions with the second-level
attribution vector via a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .errors import DimensionMismatch, ExactTooLarge
from .models import StackedEnsemble

EXACT_DIMENSION_LIMIT = 12


@dataclass(frozen=True)
class Explanation:
    """Additive per-feature attribution of one model output."""

    phi: np.ndarray
    base_value: float

    def prediction(self) -> float:
        """base_value + sum(phi): the score the explanation reconstructs."""
        return float(self.base_value + self.phi.sum())


@dataclass(frozen=True)
class Background:
    """Reference rows the value function imputes absent features from."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("background needs at least one row")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    def mean(self) -> np.ndarray:
        return self.rows.mean(axis=0)


def sample_background(X: np.ndarray, size: int = 100, seed: int = 0) -> Background:
    """Seeded sample of up to ``size`` training rows (all rows if fewer)."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] <= size:
        return Background(X.copy())
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=size, replace=False)
    return Background(X[np.sort(idx)])


def _check_instance(model, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch(f"instance must be a vector, got shape {x.shape}")
    dim = getattr(model, "input_dimension", None)
    if dim is not None and x.shape[0] != dim:
        raise DimensionMismatch(f"instance has {x.shape[0]} features, model wants {dim}")
    return x


def _exact_shapley(model, x, background: Background):
    d = x.shape[0]
    n_masks = 1 << d
    bg = background.rows
    b = bg.shape[0]

    bits = ((np.arange(n_masks)[:, None] >> np.arange(d)[None, :]) & 1).astype(bool)
    # (mask, background, feature): instance value on the coalition, else background
    z = np.where(bits[:, None, :], x[None, None, :], bg[None, :, :])
    scores = model.score(z.reshape(n_masks * b, d))
    v = scores.reshape(n_masks, b).mean(axis=1)

    popcount = bits.sum(axis=1)
    weights = np.array([factorial(s) * factorial(d - s - 1) / factorial(d)
                        for s in range(d)])
    masks = np.arange(n_masks)
    phi = np.empty(d)
    for i in range(d):
        bit = 1 << i
        without = masks[(masks & bit) == 0]
        w = weights[popcount[without]]
        phi[i] = float(np.dot(w, v[without | bit] - v[without]))
    return phi, float(v[0])


def _sampled_shapley(model, x, background: Background, n_samples: int, seed: int):
    d = x.shape[0]
    bg = background.rows
    rng = np.random.default_rng(seed)

    row_idx = rng.integers(0, bg.shape[0], size=n_samples)
    perms = rng.permuted(np.tile(np.arange(d), (n_samples, 1)), axis=1)

    # prefix points per permutation: start at the background row, switch one
    # feature at a time to the instance value
    points = np.empty((n_samples, d + 1, d), dtype=np.float64)
    points[:, 0, :] = bg[row_idx]
    for k in range(d):
        points[:, k + 1, :] = points[:, k, :]
        points[np.arange(n_samples), k + 1, perms[:, k]] = x[perms[:, k]]

    scores = model.score(points.reshape(n_samples * (d + 1), d))
    scores = scores.reshape(n_samples, d + 1)
    marginals = np.diff(scores, axis=1)

    phi = np.zeros(d)
    np.add.at(phi, perms.ravel(), marginals.ravel())
    phi /= n_samples
    base = float(model.score(bg).mean())
    return phi, base


def shapley_explain(model, x, background: Background, mode: str = "auto",
                    n_samples: int = 2000, seed: int = 0) -> Explanation:
    """Shapley attribution of model.score at x against a background sample.

    ``mode`` is "exact" (full coalition enumeration, d <= 12), "sampled"
    (seeded permutation sampling of ``n_samples`` permutations), or "auto"
    (exact iff the dimension allows it). Exact mode satisfies local
    accuracy: base_value + sum(phi) equals score(x) to float precision.
    """
    x = _check_instance(model, x)
    if not isinstance(background, Background):
        raise TypeError("background must be a Background (see sample_background)")
    d = x.shape[0]
    if mode == "auto":
        mode = "exact" if d <= EXACT_DIMENSION_LIMIT else "sampled"
    if mode == "exact":
        if d > EXACT_DIMENSION_LIMIT:
            raise ExactTooLarge(
                f"exact enumeration needs d <= {EXACT_DIMENSION_LIMIT}, got {d}")
        phi, base = _exact_shapley(model, x, background)
    elif mode == "sampled":
        phi, base = _sampled_shapley(model, x, background, int(n_samples), int(seed))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return Explanation(phi=phi, base_value=base)


def join_attributions(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The basic-join composition: feature attribution = A @ w.

    Column j of A is the attribution vector of first-level model j; w is
    the second-level attribution over the first-level score inputs.
    """
    A = np.asarray(A, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if A.ndim != 2 or w.ndim != 1 or A.shape[1] != w.shape[0]:
        raise DimensionMismatch(
            f"join needs (d, m) attributions and an m-vector, got {A.shape}, {w.shape}")
    return A @ w


def basic_join_explain(ens: StackedEnsemble, x, background: Background,
                       mode: str = "auto", n_samples: int = 2000,
                       seed: int = 0) -> Explanation:
    """Compose first-level feature attributions with second-level weights.

    Each first-level model is explained on the raw features; the second
    level is explained on the first-level score vector against the
    background's score vectors. The result is A @ w with the second-level
    base value, so the first-level models' contributions to the second-level
    output distribute over the input features.
    """
    x = _check_instance(ens, x)
    m = len(ens.first_level)
    columns = []
    for sub in ens.first_level:
        sub_expl = shapley_explain(sub, x, background, mode=mode,
                                   n_samples=n_samples, seed=seed)
        columns.append(sub_expl.phi)
    A = np.column_stack(columns)

    score_background = Background(ens.first_level_scores(background.rows))
    s_x = ens.first_level_scores(x[None, :])[0]
    second_expl = shapley_explain(ens.second_level, s_x, score_background,
                                  mode=mode, n_samples=n_samples, seed=seed)
    assert second_expl.phi.shape == (m,)

    phi = join_attributions(A, second_expl.phi)
    return Explanation(phi=phi, base_value=second_expl.base_value)


def build_explainer(kind: str, mode: str = "auto", n_samples: int = 2000):
    """Bind an explainer kind to a callable (model, x, background, seed)->Explanation.

    ``kind`` is "blackbox" (whole-model Shapley) or "basic_join". The
    returned callable is the interface every explanation metric consumes.
    """
    if kind == "blackbox":
        def explain(model, x, background, seed=0):
            return shapley_explain(model, x, background, mode=mode,
                                   n_samples=n_samples, seed=seed)
    elif kind == "basic_join":
        def explain(model, x, background, seed=0):
            return basic_join_explain(model, x, background, mode=mode,
                                      n_samples=n_samples, seed=seed)
    else:
        raise ValueError(f"unknown explainer kind {kind!r}")
    return explain
