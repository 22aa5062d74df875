"""Model-agnostic Shapley-value explanations and ensemble composition.

The value function is marginal (interventional): v(S) is the mean model
score over background rows with the explained instance's values imposed on
the coalition S. Exact mode enumerates all 2^d coalitions (d <= 12), and
a row explained after the first scores only the coalitions where it
differs from the first; sampled mode uses seeded permutation sampling.
``basic_join_explain`` composes per-model first-level attributions with the
second-level attribution vector via a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def _prepare(model, x, background, mode: str) -> tuple[np.ndarray, bool, bool]:
    """The instances as a matrix, whether ``x`` was one vector, and whether exact."""
    X = np.asarray(x, dtype=np.float64)
    if X.ndim not in (1, 2):
        raise DimensionMismatch(f"instances must be a vector or matrix, got {X.shape}")
    d = X.shape[-1]
    dim = getattr(model, "input_dimension", None)
    if dim is not None and d != dim:
        raise DimensionMismatch(f"instance has {d} features, model wants {dim}")
    if not isinstance(background, Background):
        raise TypeError("background must be a Background (see sample_background)")
    if mode == "auto":
        mode = "exact" if d <= EXACT_DIMENSION_LIMIT else "sampled"
    if mode == "exact" and d > EXACT_DIMENSION_LIMIT:
        raise ExactTooLarge(
            f"exact enumeration needs d <= {EXACT_DIMENSION_LIMIT}, got {d}")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    return np.atleast_2d(X), X.ndim == 1, mode == "exact"


@lru_cache(maxsize=None)
def _coalition_tables(d: int):
    """Coalition bits and, per feature i, (S without i, S with i, Shapley weights)."""
    masks = np.arange(1 << d)
    bits = ((masks[:, None] >> np.arange(d)[None, :]) & 1).astype(bool)
    weights = np.array([factorial(s) * factorial(d - s - 1) / factorial(d)
                        for s in range(d)])
    without = [masks[~bits[:, i]] for i in range(d)]
    pairs = tuple((wo, wo | (1 << i), weights[bits[wo].sum(axis=1)])
                  for i, wo in enumerate(without))
    for array in (bits, *(a for pair in pairs for a in pair)):
        array.setflags(write=False)  # cached: every caller shares them
    return bits, pairs


def _explain_all(models, X, background: Background, exact: bool,
                 n_samples: int, seed: int) -> list[list[Explanation]]:
    """Per model, the explanation of each row of X.

    Exact mode scores all models on one coalition matrix per row; a row
    after row 0 scores only the coalitions holding a feature where it
    differs from row 0 and copies the rest from row 0, whose imputed rows
    are the same.
    """
    if not exact:
        return [[_sampled_shapley(model, x, background, n_samples, seed) for x in X]
                for model in models]
    n, d = X.shape
    bits, pairs = _coalition_tables(d)
    v = np.empty((len(models), n, 1 << d))
    for r, x in enumerate(X):
        todo = np.flatnonzero((r == 0) | bits[:, x != X[0]].any(axis=1))
        v[:, r] = v[:, 0]  # what row r shares with row 0 (row 0 rescores all)
        if todo.size:
            # (coalition, background, feature): instance value on the coalition
            z = np.where(bits[todo, None, :], x, background.rows[None, :, :]).reshape(-1, d)
            scores = np.vstack([model.score(z) for model in models])
            v[:, r, todo] = scores.reshape(len(models), todo.size, -1).mean(axis=2)
    return [[Explanation(phi=np.array([np.dot(w, v_r[with_i] - v_r[without])
                                       for without, with_i, w in pairs]),
                         base_value=float(v_r[0])) for v_r in v_model]
            for v_model in v]


def _sampled_shapley(model, x, background: Background, n_samples: int,
                     seed: int) -> Explanation:
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
    marginals = np.diff(scores.reshape(n_samples, d + 1), axis=1)

    phi = np.zeros(d)
    np.add.at(phi, perms.ravel(), marginals.ravel())
    phi /= n_samples
    return Explanation(phi=phi, base_value=float(model.score(bg).mean()))


def shapley_explain(model, x, background: Background, mode: str = "auto",
                    n_samples: int = 2000,
                    seed: int = 0) -> Explanation | list[Explanation]:
    """Shapley attribution of model.score at x against a background sample.

    ``x`` is one instance, or a matrix of instances that gives a list of
    their explanations. ``mode`` is "exact" (full coalition enumeration,
    d <= 12), "sampled" (seeded permutation sampling of ``n_samples``
    permutations, at the one seed for every row), or "auto"
    (exact iff the dimension allows it). Exact mode satisfies local
    accuracy: base_value + sum(phi) equals score(x) to float precision.
    """
    X, single, exact = _prepare(model, x, background, mode)
    explanations = _explain_all([model], X, background, exact,
                                int(n_samples), int(seed))[0]
    return explanations[0] if single else explanations


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
                       seed: int = 0) -> Explanation | list[Explanation]:
    """Compose first-level feature attributions with second-level weights.

    Each first-level model is explained on the raw features; the second
    level is explained on the first-level score vector against the
    background's score vectors. The result is A @ w with the second-level
    base value, so the first-level models' contributions to the second-level
    output distribute over the input features. ``x`` is as for
    ``shapley_explain``.
    """
    X, single, exact = _prepare(ens, x, background, mode)
    first = _explain_all(ens.first_level, X, background, exact,
                         int(n_samples), int(seed))
    score_background = Background(ens.first_level_scores(background.rows))
    # one single-row call per instance: batched rows can differ in the last bits
    S = np.array([ens.first_level_scores(row[None, :])[0] for row in X])
    second = shapley_explain(ens.second_level, S, score_background,
                             mode=mode, n_samples=n_samples, seed=seed)
    explanations = [
        Explanation(phi=join_attributions(np.column_stack([e[r].phi for e in first]),
                                          w.phi),
                    base_value=w.base_value)
        for r, w in enumerate(second)]
    return explanations[0] if single else explanations


def build_explainer(kind: str, mode: str = "auto", n_samples: int = 2000):
    """Bind an explainer kind to a callable (model, x, background, seed)->Explanation.

    ``kind`` is "blackbox" (whole-model Shapley) or "basic_join". The
    returned callable is the interface every explanation metric consumes;
    given a matrix of instances it returns a list of explanations.
    """
    explainers = {"blackbox": shapley_explain, "basic_join": basic_join_explain}
    if kind not in explainers:
        raise ValueError(f"unknown explainer kind {kind!r}")

    def explain(model, x, background, seed=0):
        return explainers[kind](model, x, background, mode=mode,
                                n_samples=n_samples, seed=seed)
    return explain
