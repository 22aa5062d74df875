"""Classification, explainability and robustness metrics.

Explanation metrics consume an explainer callable with the signature
``explain(model, x, background, seed) -> Explanation`` (see
``explain.build_explainer``). ``explanation_metrics_suite`` explains each
instance once, in one call with its ``sens_max`` candidates; the error,
``sens_max`` (as its reference) and the MoRF order all use it. The
background's grouping decides what the perturbation metrics may touch:
``sens_max`` moves numeric columns only, and MoRF removes whole players.
Every metric is a pure function of its inputs and seeds; per-instance
seeds derive from (master seed, index) so aggregates are
schedule-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllInstancesIdentical,
    KOutOfRange,
    NoFlipFound,
    SingleClassLabels,
)
from .explain import Background
from .seeding import derive_seed
from .stats import average_ranks


@dataclass(frozen=True)
class ClassificationMetrics:
    false_positive_rate: float
    auc: float
    balanced_accuracy: float
    mcc: float
    confusion: dict[str, int]  # {"tp", "fp", "tn", "fn"}


@dataclass(frozen=True)
class ExplanationMetrics:
    explanation_error: float
    sens_max: float
    sens_radius: float
    auc_morf: float
    morf_features_evaluated: int


@dataclass(frozen=True)
class RobustnessMetrics:
    delta_adv: list[float]
    mean_delta_adv: float | None
    lipschitz_lower: float
    pairs_evaluated: int


# --- classification ---------------------------------------------------------

def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based (Mann-Whitney) AUC with ties counted as 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise SingleClassLabels("AUC needs both classes")
    ranks = average_ranks(scores)
    u = ranks[labels == 1].sum() - pos.size * (pos.size + 1) / 2.0
    return float(u / (pos.size * neg.size))


def classification_metrics(scores, labels, threshold: float = 0.5) -> ClassificationMetrics:
    """FPR, AUC, balanced accuracy, and Matthews correlation at a threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.shape != labels.shape or scores.size < 2:
        raise ValueError("scores and labels must be equal-length vectors (n >= 2)")
    if np.unique(labels).size < 2:
        raise SingleClassLabels("classification metrics need both classes")

    pred = (scores >= threshold).astype(np.int64)
    tp = int(np.sum((pred == 1) & (labels == 1)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    tn = int(np.sum((pred == 0) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))

    fpr = fp / (fp + tn)
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    balanced = (tpr + tnr) / 2.0

    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / np.sqrt(denom)

    return ClassificationMetrics(
        false_positive_rate=float(fpr),
        auc=auc_score(scores, labels),
        balanced_accuracy=float(balanced),
        mcc=float(mcc),
        confusion={"tp": tp, "fp": fp, "tn": tn, "fn": fn},
    )


# --- explanation stability ------------------------------------------------------

def _sens_points(x: np.ndarray, r: float, n_probes: int, seed: int,
                 numeric: np.ndarray) -> np.ndarray:
    """x followed by its ``sens_max`` candidates, which move only the
    ``numeric`` columns (none when r is 0 or no column is numeric)."""
    if r < 0:
        raise ValueError("perturbation radius must be >= 0")
    if r == 0.0 or not numeric.any():
        return x[None, :]
    axes = r * np.eye(x.shape[0])[numeric]
    corner = r * numeric
    probes = np.zeros((int(n_probes), x.shape[0]))
    rng = np.random.default_rng(derive_seed(seed, "sens_probes"))
    probes[:, numeric] = rng.uniform(-r, r, size=(int(n_probes), axes.shape[0]))
    return np.vstack([x, x + axes, x - axes, x + corner, x - corner, x + probes])


def _max_shift(phi: np.ndarray, explanations) -> float:
    return max([0.0] + [float(np.linalg.norm(e.phi - phi)) for e in explanations])


def sens_max(explain_fn, model, x, phi, r: float, n_probes: int = 8,
             seed: int = 0, *, background: Background) -> float:
    """Maximum observed explanation shift under inf-ball input perturbations.

    The ball spans the d_num numeric columns of ``background``; one-hot
    columns stay as they are. Candidates: the 2*d_num axis-extreme points
    x +- r*e_i, the two diagonal corners, and ``n_probes`` seeded uniform
    draws from the ball. With no numeric column there is no candidate and
    the result is 0.0, as for r = 0. ``phi`` is the reference attribution
    of x from ``explain_fn`` at ``derive_seed(seed, "sens_explain")``; x
    and every candidate are explained in one call at that seed (common
    random numbers, so sampled-mode noise does not register as
    sensitivity). The result is a lower bound on the true maximum.
    """
    points = _sens_points(np.asarray(x, dtype=np.float64), r, n_probes, seed,
                          background.numeric)
    if len(points) == 1:
        return 0.0
    explained = explain_fn(model, points, background,
                           seed=derive_seed(seed, "sens_explain"))
    return _max_shift(phi, explained[1:])


# --- degree of importance (perturbation curve) -----------------------------------

def morf_curve(model, x, K: int, background: Background,
               order: np.ndarray) -> np.ndarray:
    """Model scores along the most-relevant-first perturbation path.

    Point k removes the first k players of ``order`` (most relevant first)
    by setting their columns to ``background.baseline()``: the background
    mean for a numeric column, the most frequent block for a one-hot
    block. Point 0 is the unperturbed instance. Returns K+1 scores.
    """
    x = np.asarray(x, dtype=np.float64)
    g = background.n_players
    if not 1 <= K <= g:
        raise KOutOfRange(f"K={K} outside 1..{g}")
    baseline = background.baseline()
    points = np.tile(x, (K + 1, 1))
    for k in range(1, K + 1):
        columns = background.players == order[k - 1]
        points[k:, columns] = baseline[columns]
    return model.score(points)


def auc_morf(model, x, K: int, background: Background,
             order: np.ndarray) -> float:
    """Trapezoid area under the K-step perturbation curve (lower = more faithful)."""
    curve = morf_curve(model, x, K, background, order)
    return float(np.sum((curve[:-1] + curve[1:]) / 2.0))


# --- adversarial robustness ---------------------------------------------------

@dataclass(frozen=True)
class RobustnessProbe:
    delta: float
    witness: np.ndarray  # a point past the boundary with the flipped label


def adversarial_robustness(model, x, candidates: np.ndarray,
                           n_random_dirs: int = 4, seed: int = 0,
                           tol: float = 1e-6) -> RobustnessProbe:
    """Minimum found L2 perturbation that flips the predicted label.

    Directions: toward every opposite-labeled candidate (a flip is certain
    on that segment) plus seeded random unit directions with an expanding
    search capped at 10x the data's bounding-box diagonal. All directions
    advance together: each step of the expanding search and of the
    bisection is one ``score`` call over the directions still open. The
    probe's ``delta`` is an upper bound on the true minimal perturbation and
    its ``witness`` is the flipped point at that distance.
    """
    x = np.asarray(x, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    base_label = int(model.score(x[None, :])[0] >= model.threshold)

    extent = np.vstack([candidates, x[None, :]])
    diameter = float(np.linalg.norm(extent.max(axis=0) - extent.min(axis=0)))
    cap = 10.0 * diameter if diameter > 0 else 10.0

    # each direction's unit and the distance of a known flip (inf: none yet)
    units: list[np.ndarray] = []
    flip_at: list[float] = []
    cand_labels = (model.score(candidates) >= model.threshold).astype(np.int64)
    for c, cl in zip(candidates, cand_labels):
        if int(cl) != base_label:
            dist = float(np.linalg.norm(c - x))
            if dist > 0:
                units.append((c - x) / dist)
                flip_at.append(dist)
    rng = np.random.default_rng(derive_seed(seed, "adv_dirs"))
    for _ in range(int(n_random_dirs)):
        u = rng.normal(size=x.shape[0])
        norm = np.linalg.norm(u)
        if norm > 0:
            units.append(u / norm)
            flip_at.append(np.inf)
    U = np.array(units)
    hi = np.array(flip_at, dtype=np.float64)
    lo = np.zeros_like(hi)

    def flips(points):
        return (model.score(points) >= model.threshold).astype(np.int64) != base_label

    # expanding search for any flip along the random rays: no flip at lo
    t = tol
    while t <= cap and (rows := np.flatnonzero(np.isinf(hi))).size:
        flipped = flips(x + t * U[rows])
        hi[rows[flipped]] = t
        lo[rows[~flipped]] = t
        t = t * 2.0

    found = np.isfinite(hi)
    if not found.any():
        raise NoFlipFound("no probed direction flipped the predicted label")
    U, lo, hi = U[found], lo[found], hi[found]

    # bisect every [lo, hi] (no flip at lo, a flip at hi) down to tol
    while (rows := np.flatnonzero(hi - lo > tol)).size:
        mid = (lo[rows] + hi[rows]) / 2.0
        flipped = flips(x + mid[:, None] * U[rows])
        hi[rows[flipped]] = mid[flipped]
        lo[rows[~flipped]] = mid[~flipped]

    best = int(np.argmin(hi))  # the first of equal minima
    delta = float(hi[best])
    return RobustnessProbe(delta=delta, witness=x + delta * U[best])


# --- Lipschitz lower bound ------------------------------------------------------

def lipschitz_lower(model, instances: np.ndarray, max_pairs: int = 10000,
                    seed: int = 0) -> tuple[float, int]:
    """Max observed |score(x_i)-score(x_j)| / ||x_i-x_j||_2 over instance pairs.

    Evaluates all pairs when n(n-1)/2 <= max_pairs, else the first
    ``max_pairs`` distinct pairs of a seeded stream (prefixes are nested, so
    the bound never decreases as max_pairs grows). Returns (bound, pairs).
    """
    X = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    n = X.shape[0]
    if n < 2:
        raise AllInstancesIdentical("need >= 2 instances")
    scores = model.score(X)

    total = n * (n - 1) // 2
    if total <= max_pairs:
        pairs_i, pairs_j = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(derive_seed(seed, "lipschitz_pairs"))
        chosen: dict[tuple[int, int], None] = {}
        while len(chosen) < max_pairs:
            draw = rng.integers(0, n, size=(max_pairs, 2))
            for a, b in draw:
                if a == b:
                    continue
                key = (int(min(a, b)), int(max(a, b)))
                if key not in chosen:
                    chosen[key] = None
                    if len(chosen) == max_pairs:
                        break
        keys = list(chosen)
        pairs_i = np.array([k[0] for k in keys])
        pairs_j = np.array([k[1] for k in keys])

    dists = np.linalg.norm(X[pairs_i] - X[pairs_j], axis=1)
    valid = dists > 0
    if not valid.any():
        raise AllInstancesIdentical("all evaluated instance pairs are identical")
    ratios = np.abs(scores[pairs_i[valid]] - scores[pairs_j[valid]]) / dists[valid]
    return float(ratios.max()), int(valid.sum())


# --- aggregation helpers for study runs ------------------------------------------

def explanation_metrics_suite(explain_fn, model, instances: np.ndarray,
                              background: Background, r: float = 0.01,
                              n_probes: int = 8, K: int = 5,
                              seed: int = 0) -> ExplanationMetrics:
    """Instance-averaged explanation accuracy, stability, and importance.

    Each instance is explained once, with its ``sens_max`` candidates, for
    the error, the ``sens_max`` reference and the MoRF order (ties broken
    by lower player index). MoRF removes min(K, G) of the G players.
    """
    instances = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    scores = model.score(instances)
    errors = []
    sens_values = []
    morf_values = []
    K_eff = min(K, background.n_players)
    for i, x in enumerate(instances):
        sens_seed = derive_seed(seed, "sens", i)
        points = _sens_points(x, r, n_probes, sens_seed, background.numeric)
        expl, *candidates = explain_fn(model, points, background,
                                       seed=derive_seed(sens_seed, "sens_explain"))
        errors.append(abs(expl.prediction() - float(scores[i])))
        sens_values.append(_max_shift(expl.phi, candidates))
        order = np.argsort(-np.abs(expl.phi), kind="stable")
        morf_values.append(auc_morf(model, x, K_eff, background, order))
    return ExplanationMetrics(
        explanation_error=float(np.mean(errors)),
        sens_max=float(np.mean(sens_values)),
        sens_radius=float(r),
        auc_morf=float(np.mean(morf_values)),
        morf_features_evaluated=int(K_eff),
    )


def robustness_metrics_suite(model, instances: np.ndarray, candidates: np.ndarray,
                             n_random_dirs: int = 4, max_pairs: int = 10000,
                             seed: int = 0) -> RobustnessMetrics:
    """Per-instance minimal perturbations plus the dataset Lipschitz bound."""
    instances = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    deltas = []
    for i, x in enumerate(instances):
        try:
            deltas.append(adversarial_robustness(
                model, x, candidates, n_random_dirs,
                seed=derive_seed(seed, "adv", i)).delta)
        except NoFlipFound:
            continue
    bound, pairs = lipschitz_lower(model, instances, max_pairs,
                                   seed=derive_seed(seed, "lip"))
    return RobustnessMetrics(
        delta_adv=[float(v) for v in deltas],
        mean_delta_adv=float(np.mean(deltas)) if deltas else None,
        lipschitz_lower=bound,
        pairs_evaluated=pairs,
    )
