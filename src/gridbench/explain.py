"""Model-agnostic Shapley-value explanations and ensemble composition.

Shapley players are dataset features: the ``Background`` maps each column
to its player, so a one-hot block enters or leaves a coalition whole and
every imputed row is one the preprocessing could produce. The value
function is marginal (interventional): v(S) is the mean model score over
background rows with the explained instance's values imposed on the
players in S. Exact mode enumerates all 2^G coalitions of the G players
(G <= 12), and a row explained after the first scores only the coalitions
holding a player where it differs from the first. A call's rows are
scored in batches of consecutive whole rows of at most ``_BATCH_ROWS``
imputed rows, a row with more alone, so no batch exceeds
max(``_BATCH_ROWS``, b·2^G) over b background rows. Sampled mode uses
seeded permutation sampling of the players. ``basic_join_explain``
composes per-model first-level attributions with the second-level
attribution vector via a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import DimensionMismatch, ExactTooLarge
from .models import StackedEnsemble

EXACT_DIMENSION_LIMIT = 12
_BATCH_ROWS = 8192  # imputed rows per exact-mode score call; an instance with more is alone
EXPLAINER_KINDS = ("blackbox", "basic_join")
MODES = ("auto", "exact", "sampled")


@dataclass(frozen=True)
class Explanation:
    """Additive per-player attribution of one model output."""

    phi: np.ndarray
    base_value: float

    def prediction(self) -> float:
        """base_value + sum(phi): the score the explanation reconstructs."""
        return float(self.base_value + self.phi.sum())


@dataclass(frozen=True)
class Background:
    """Reference rows the value function imputes absent players from.

    ``players`` maps each column to its Shapley player, numbered 0..G-1;
    ``numeric`` marks the columns a perturbation may move, the same for
    every column of a player. By default every column is its own numeric
    player. ``FittedPipeline.players`` gives a dataset's grouping.
    """

    rows: np.ndarray
    players: np.ndarray | None = None
    numeric: np.ndarray | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise ValueError("background needs at least one row")
        d = rows.shape[1]
        players = np.asarray(np.arange(d) if self.players is None else self.players,
                             dtype=np.intp)
        numeric = np.asarray(np.ones(d) if self.numeric is None else self.numeric,
                             dtype=bool)
        if players.shape != (d,) or numeric.shape != (d,):
            raise ValueError("players and numeric need one entry per column")
        first = np.unique(players, return_index=True)[1]
        if not np.array_equal(players[first], np.arange(first.size)):
            raise ValueError("players must be numbered 0..G-1")
        if not np.array_equal(numeric, numeric[first][players]):
            raise ValueError("a player's columns must be all numeric or all not")
        for name, array in (("rows", rows), ("players", players), ("numeric", numeric)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def size(self) -> int:
        return self.rows.shape[0]

    @property
    def n_players(self) -> int:
        return int(self.players.max(initial=-1)) + 1

    def mean(self) -> np.ndarray:
        return self.rows.mean(axis=0)

    def baseline(self) -> np.ndarray:
        """The point that removes every player: the background mean on
        numeric columns, and on each other player's columns its most
        frequent block among the rows (the first seen on ties). Computed on
        the first call and read-only."""
        if "_baseline" not in self.__dict__:
            point = self.mean()
            for player in np.unique(self.players[~self.numeric]):
                columns = self.players == player
                blocks, first, counts = np.unique(self.rows[:, columns], axis=0,
                                                  return_index=True, return_counts=True)
                point[columns] = blocks[np.lexsort((first, -counts))[0]]
            point.setflags(write=False)
            object.__setattr__(self, "_baseline", point)
        return self._baseline


def sample_background(X: np.ndarray, size: int = 50, seed: int = 0,
                      players=None, numeric=None) -> Background:
    """Seeded sample of up to ``size`` training rows (all rows if fewer),
    with the column grouping of ``Background``."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] <= size:
        return Background(X.copy(), players, numeric)
    rng = np.random.default_rng(seed)
    idx = rng.choice(X.shape[0], size=size, replace=False)
    return Background(X[np.sort(idx)], players, numeric)


def resolve_mode(mode: str, n_players: int) -> str:
    """The mode run over ``n_players`` players: "auto" is "exact" iff the count
    allows it, and "exact" beyond ``EXACT_DIMENSION_LIMIT`` raises ExactTooLarge."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if n_players <= EXACT_DIMENSION_LIMIT else "sampled"
    if mode == "exact" and n_players > EXACT_DIMENSION_LIMIT:
        raise ExactTooLarge(f"exact enumeration needs at most {EXACT_DIMENSION_LIMIT} "
                            f"players, got {n_players}")
    return mode


@lru_cache(maxsize=None)
def _coalition_tables(g: int):
    """Coalition bits, and per player i (one row each) the coalitions S
    without i, S with i, and S's Shapley weight."""
    masks = np.arange(1 << g)
    bits = ((masks[:, None] >> np.arange(g)[None, :]) & 1).astype(bool)
    factor = np.array([factorial(s) * factorial(g - s - 1) / factorial(g)
                       for s in range(g)])
    without = np.array([masks[~bits[:, i]] for i in range(g)]).reshape(g, len(masks) // 2)
    with_i = without | (1 << np.arange(g))[:, None]
    weights = factor[bits[without].sum(axis=2)]
    for array in (bits, without, with_i, weights):
        array.setflags(write=False)  # cached: every caller shares them
    return bits, without, with_i, weights


def _batches(sizes: np.ndarray):
    """(first, stop) of each run of consecutive rows whose ``sizes`` sum to
    at most ``_BATCH_ROWS``; a row larger than that is a run alone."""
    first = total = 0
    for i, size in enumerate(sizes.tolist()):
        if total and total + size > _BATCH_ROWS:
            yield first, i
            first, total = i, 0
        total += size
    if total:
        yield first, len(sizes)


def _explain_all(models, X, background: Background, exact: bool,
                 n_samples: int, seed: int, second=None):
    """φ as a (table, row, player) array and base values as (table, row):
    one table per model, and with ``second`` one more for the stack whose
    second level ``second`` scores the models' scores.

    All models are scored on the same matrices. In exact mode row 0 takes
    all 2^G coalitions, a later row only those holding a player where it
    differs from row 0 (it copies the rest from row 0, whose imputed rows
    are the same). The rows' coalitions are scored in batches of
    consecutive whole rows of at most ``_BATCH_ROWS`` imputed rows, a row
    with more alone, and φ is one BLAS dot per (table, row, player) over a
    contiguous array of coalition differences. In sampled mode each row's
    permutation points are one batch.
    """
    def score(z):
        scores = [model.score(z) for model in models]
        if second is not None:
            scores.append(second.score(np.column_stack(scores)))
        return np.vstack(scores)

    n, d = X.shape
    if not exact:
        return _sampled_shapley(score, X, background, n_samples, seed)
    g, b = background.n_players, background.size
    bits, without, with_i, weights = _coalition_tables(g)
    held = bits[:, background.players]  # (coalition, column): column's player in S
    # (row, player): the player differs from row 0; row 0 takes every coalition
    moved = (X != X[:1]) @ (background.players[:, None] == np.arange(g))
    need = (moved @ bits.T) | (np.arange(n) == 0)[:, None]  # (row, coalition)
    row, coalition = np.nonzero(need)
    counts = need.sum(axis=1)
    start = np.concatenate([[0], np.cumsum(counts)])
    values = np.empty((len(models) + (second is not None), len(row)))
    for first, stop in _batches(b * counts):
        pairs = slice(start[first], start[stop])
        # (pair, background, column): the row's values on the coalition's players
        z = np.where(held[coalition[pairs], None, :], X[row[pairs], None, :],
                     background.rows[None, :, :]).reshape(-1, d)
        values[:, pairs] = score(z).reshape(len(values), -1, b).mean(axis=2)
    v = np.empty((len(values), n, len(bits)))
    v[:, row, coalition] = values
    v = np.where(need, v, v[:, :1])  # a coalition shared with row 0: row 0's value
    D = np.ascontiguousarray(v[..., with_i] - v[..., without])
    phi = np.matmul(D[..., None, :], weights[:, :, None])[..., 0, 0]
    return phi, v[:, :, 0]


def _sampled_shapley(score, X, background: Background, n_samples: int, seed: int):
    """Per table of ``score``, the sampled φ of each row of X as a
    (table, row, player) array, and the base values as (table, row)."""
    d = X.shape[1]
    g = background.n_players
    bg = background.rows
    rng = np.random.default_rng(seed)

    row_idx = rng.integers(0, bg.shape[0], size=n_samples)
    perms = rng.permuted(np.tile(np.arange(g), (n_samples, 1)), axis=1)
    # (step, permutation, column): the columns of the step's player
    switch = background.players[None, None, :] == perms.T[:, :, None]
    base = score(bg).mean(axis=1)

    phi = np.zeros((len(base), len(X), g))
    for r, x in enumerate(X):
        # prefix points per permutation: start at the background row, switch
        # one player's columns at a time to the instance values
        points = np.empty((n_samples, g + 1, d), dtype=np.float64)
        points[:, 0, :] = bg[row_idx]
        for k in range(g):
            points[:, k + 1, :] = np.where(switch[k], x, points[:, k, :])
        scores = score(points.reshape(n_samples * (g + 1), d))
        marginals = np.diff(scores.reshape(len(base), n_samples, g + 1), axis=2)
        np.add.at(phi[:, r], (slice(None), perms.ravel()),
                  marginals.reshape(len(base), -1))
    return phi / n_samples, np.repeat(base[:, None], len(X), axis=1)


def _explain(kinds: tuple, model, x, background: Background, mode: str,
             n_samples: int, seed: int) -> list:
    """Per kind, what that kind alone returns for ``x``, from one pass.

    With "basic_join" among the kinds the stack's members are scored, and
    "blackbox" takes the stack's values from the second level over their
    scores, as ``StackedEnsemble.score`` computes them; otherwise the model
    is scored whole.
    """
    X = np.asarray(x, dtype=np.float64)
    if X.ndim not in (1, 2):
        raise DimensionMismatch(f"instances must be a vector or matrix, got {X.shape}")
    d = X.shape[-1]
    dim = getattr(model, "input_dimension", None)
    if dim is not None and d != dim:
        raise DimensionMismatch(f"instance has {d} features, model wants {dim}")
    if not isinstance(background, Background):
        raise TypeError("background must be a Background (see sample_background)")
    if background.rows.shape[1] != d:
        raise DimensionMismatch(
            f"instance has {d} features, background {background.rows.shape[1]}")
    exact = resolve_mode(mode, background.n_players) == "exact"
    single, X = X.ndim == 1, np.atleast_2d(X)
    join = "basic_join" in kinds
    models = model.first_level if join else [model]
    second = model.second_level if join and "blackbox" in kinds else None
    phi, base = _explain_all(models, X, background, exact, int(n_samples), int(seed),
                             second)
    results = {"blackbox": (phi[-1], base[-1])}
    if join:
        score_background = Background(model.first_level_scores(background.rows))
        # one single-row call per instance: batched rows can differ in the last bits
        S = np.array([model.first_level_scores(row[None, :])[0]
                      for row in X]).reshape(len(X), len(models))
        w_phi, w_base = _explain_all(
            [model.second_level], S, score_background,
            resolve_mode(mode, score_background.n_players) == "exact",
            int(n_samples), int(seed))
        results["basic_join"] = (
            [join_attributions(np.column_stack(phi[:len(models), r]), w)
             for r, w in enumerate(w_phi[0])], w_base[0])
    explained = [[Explanation(phi=p, base_value=float(b)) for p, b in zip(*results[kind])]
                 for kind in kinds]
    return [e[0] if single else e for e in explained]


def shapley_explain(model, x, background: Background, mode: str = "auto",
                    n_samples: int = 2000,
                    seed: int = 0) -> Explanation | list[Explanation]:
    """Shapley attribution of model.score at x against a background sample.

    ``x`` is one instance, or a matrix of instances that gives a list of
    their explanations; phi has one entry per player of ``background``.
    ``mode`` is "exact" (full coalition enumeration, G <= 12 players),
    "sampled" (seeded permutation sampling of ``n_samples`` permutations,
    at the one seed for every row), or "auto" (exact iff the player count
    allows it). Exact mode satisfies local accuracy: base_value + sum(phi)
    equals score(x) to float precision.
    """
    return _explain(("blackbox",), model, x, background, mode, n_samples, seed)[0]


def join_attributions(A: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The basic-join composition: feature attribution = A @ w.

    Column j of A is the per-player attribution vector of first-level
    model j; w is the second-level attribution over the first-level score
    inputs.
    """
    A = np.asarray(A, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if A.ndim != 2 or w.ndim != 1 or A.shape[1] != w.shape[0]:
        raise DimensionMismatch(
            f"join needs (G, m) attributions and an m-vector, got {A.shape}, {w.shape}")
    return A @ w


def basic_join_explain(ens: StackedEnsemble, x, background: Background,
                       mode: str = "auto", n_samples: int = 2000,
                       seed: int = 0) -> Explanation | list[Explanation]:
    """Compose first-level feature attributions with second-level weights.

    Each first-level model is explained on the players of ``background``;
    the second level is explained on the first-level score vector against
    the background's score vectors, one player per score. The result is
    A @ w with the second-level base value, so the first-level models'
    contributions to the second-level output distribute over the players.
    ``x`` is as for ``shapley_explain``.
    """
    return _explain(("basic_join",), ens, x, background, mode, n_samples, seed)[0]


def build_explainer(kinds: tuple, mode: str = "auto", n_samples: int = 2000):
    """Bind a tuple of explainer kinds to a callable (model, x, background, seed).

    Each kind is "blackbox" (whole-model Shapley) or "basic_join". The
    callable explains one model for every kind in one pass and returns a
    list with each kind's result, equal to what ``shapley_explain`` or
    ``basic_join_explain`` alone returns: an explanation, or a list of them
    for a matrix of instances. The callable is the interface every
    explanation metric consumes.
    """
    if isinstance(kinds, str) or not set(kinds) <= set(EXPLAINER_KINDS):
        raise ValueError("kinds must be a tuple of "
                         f"{'/'.join(map(repr, EXPLAINER_KINDS))}, got {kinds!r}")

    def explain(model, x, background, seed=0):
        return _explain(kinds, model, x, background, mode, n_samples, seed)
    return explain
