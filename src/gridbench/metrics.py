"""Classification, explainability and robustness metrics.

Explanation metrics consume an explainer callable with the signature
``explain(model, x, background, seed)`` that returns one result per
explainer kind (see ``explain.build_explainer``). ``sens_max`` explains x
in one call with its candidates and measures from x's explanation there;
``explanation_metrics_suite`` takes the same step for each instance, so its
error, ``sens_max`` and MoRF order all use that one explanation. The
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

def _sens_explained(explain_fn, model, x, r: float, n_probes: int, seed: int,
                    background: Background) -> list:
    """Per kind, the explanations of x and then of its ``sens_max`` candidates
    (which move numeric columns only: none when r is 0 or none is numeric),
    from one call at ``derive_seed(seed, "sens_explain")``."""
    if r < 0:
        raise ValueError("perturbation radius must be >= 0")
    points = x = np.asarray(x, dtype=np.float64)
    numeric = background.numeric
    if r > 0 and numeric.any():
        axes = r * np.eye(x.shape[0])[numeric]
        corner = r * numeric
        probes = np.zeros((int(n_probes), x.shape[0]))
        rng = np.random.default_rng(derive_seed(seed, "sens_probes"))
        probes[:, numeric] = rng.uniform(-r, r, size=(int(n_probes), axes.shape[0]))
        points = np.vstack([x, x + axes, x - axes, x + corner, x - corner, x + probes])
    return explain_fn(model, np.atleast_2d(points), background,
                      seed=derive_seed(seed, "sens_explain"))


def _max_shift(explained) -> float:
    own, *candidates = explained
    return max([0.0] + [float(np.linalg.norm(e.phi - own.phi)) for e in candidates])


def sens_max(explain_fn, model, x, r: float, n_probes: int = 8, seed: int = 0, *,
             background: Background) -> float:
    """Maximum observed explanation shift under inf-ball input perturbations.

    The ball spans the d_num numeric columns of ``background``; one-hot
    columns stay as they are. Candidates: the 2*d_num axis-extreme points
    x +- r*e_i, the two diagonal corners, and ``n_probes`` seeded uniform
    draws from the ball. With no numeric column there is no candidate and
    the result is 0.0, as for r = 0. ``explain_fn`` explains one kind, x
    and every candidate in one call at ``derive_seed(seed, "sens_explain")``
    (common random numbers, so sampled-mode noise does not register as
    sensitivity); shifts are measured from x's explanation in that call.
    The result is a lower bound on the true maximum.
    """
    (explained,) = _sens_explained(explain_fn, model, x, r, n_probes, seed, background)
    return _max_shift(explained)


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

SEARCH_TOL = 1e-6  # the width at which the flip-distance bisection stops


@dataclass(frozen=True)
class RobustnessProbe:
    delta: float
    witness: np.ndarray  # a point past the boundary with the flipped label


def _norms(A: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, through the BLAS dot ``np.linalg.norm`` uses on a row."""
    return np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0, 0])


def _probe_all(model, X: np.ndarray, candidates: np.ndarray, candidate_labels,
               n_random_dirs: int, seeds) -> list[RobustnessProbe | None]:
    """``adversarial_robustness`` for each row of X (None: no flip found),
    every row's search advancing in lockstep with one ``score`` call a step."""
    n, d = X.shape
    base = (model.score(X) >= model.threshold).astype(np.int64)
    diameter = _norms(np.maximum(candidates.max(axis=0), X)
                      - np.minimum(candidates.min(axis=0), X))
    cap = np.where(diameter > 0, 10.0 * diameter, 10.0)
    # each direction's instance, unit and the distance of a known flip (inf:
    # none yet): toward the opposite-labeled candidates, then the random rays
    owner, toward = np.nonzero(np.asarray(candidate_labels) != base[:, None])
    rays = np.array([np.random.default_rng(derive_seed(s, "adv_dirs")).normal(
        size=(int(n_random_dirs), d)) for s in seeds]).reshape(-1, d)
    steps = np.vstack([candidates[toward] - X[owner], rays])
    length = _norms(steps)
    hi = np.concatenate([length[:toward.size], np.full(len(rays), np.inf)])
    owner = np.concatenate([owner, np.repeat(np.arange(n), int(n_random_dirs))])
    order = np.argsort(owner, kind="stable")
    order = order[length[order] > 0]
    owner, hi, U = owner[order], hi[order], steps[order] / length[order, None]
    lo = np.zeros_like(hi)
    # each step, an instance whose random rays are still searching (no flip
    # at lo) doubles them, up to its cap; once none is, it bisects every
    # finite [lo, hi] (no flip at lo, a flip at hi) down to SEARCH_TOL. A
    # direction stops once its lo reaches its instance's smallest hi: past
    # it, hi > lo >= min(hi), so it cannot win
    t = SEARCH_TOL
    while True:
        smallest = np.full(n, np.inf)
        np.minimum.at(smallest, owner, hi)
        live = lo < smallest[owner]
        expand = live & np.isinf(hi) & (t <= cap[owner])
        searching = np.bincount(owner[expand], minlength=n) > 0
        bisect = live & np.isfinite(hi) & (hi - lo > SEARCH_TOL) & ~searching[owner]
        if not (rows := np.flatnonzero(expand | bisect)).size:
            break
        at = np.where(expand[rows], t, (lo[rows] + hi[rows]) / 2.0)
        flipped = (model.score(X[owner[rows]] + at[:, None] * U[rows])
                   >= model.threshold) != base[owner[rows]]
        hi[rows[flipped]] = at[flipped]
        lo[rows[~flipped]] = at[~flipped]
        t = t * 2.0

    first = np.searchsorted(owner, np.arange(n + 1))
    best = [a + int(np.argmin(hi[a:b])) if np.isfinite(hi[a:b]).any() else None
            for a, b in zip(first, first[1:])]  # argmin: the first of equal minima
    return [None if j is None else
            RobustnessProbe(delta=float(hi[j]), witness=X[i] + float(hi[j]) * U[j])
            for i, j in enumerate(best)]


def adversarial_robustness(model, x, candidates: np.ndarray,
                           n_random_dirs: int = 4, seed: int = 0,
                           candidate_labels: np.ndarray | None = None) -> RobustnessProbe:
    """Minimum found L2 perturbation that flips the predicted label.

    Directions: toward every opposite-labeled candidate (a flip is certain
    on that segment) plus seeded random unit rays, searched outward from
    ``SEARCH_TOL`` by doubling up to 10x the bounding-box diagonal of the
    candidates and x. Each flip found is bisected down to ``SEARCH_TOL``.
    Each step is one ``score`` call over the directions still open; a
    direction whose ``lo`` has reached the smallest ``hi`` cannot win, so it
    stops there. ``delta`` is an upper bound on the true minimal perturbation
    and ``witness`` the flipped point; with no flip, raises ``NoFlipFound``.
    ``candidate_labels``, when given, are the candidates' predicted labels,
    so a caller probing many instances against one candidate set scores it once.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if candidate_labels is None:
        candidate_labels = (model.score(candidates) >= model.threshold).astype(np.int64)
    (probe,) = _probe_all(model, np.asarray(x, dtype=np.float64)[None, :], candidates,
                          candidate_labels, n_random_dirs, [seed])
    if probe is None:
        raise NoFlipFound("no probed direction flipped the predicted label")
    return probe


# --- Lipschitz lower bound ------------------------------------------------------

def lipschitz_lower(model, instances: np.ndarray, max_pairs: int = 10000,
                    seed: int = 0) -> tuple[float, int]:
    """Max observed |score(x_i)-score(x_j)| / ||x_i-x_j||_2 over instance pairs.

    Evaluates all pairs when n(n-1)/2 <= max_pairs, else the first
    ``max_pairs`` distinct pairs of a seeded stream, in draw order (prefixes
    are nested, so the bound never decreases as max_pairs grows). Returns
    (bound, pairs).
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
        drawn = np.empty((0, 2), dtype=np.int64)  # the stream: sorted, i != j
        first = np.empty(0, dtype=np.intp)  # where each distinct pair first occurs
        while first.size < max_pairs:
            draw = np.sort(rng.integers(0, n, size=(max_pairs, 2)), axis=1)
            drawn = np.concatenate([drawn, draw[draw[:, 0] != draw[:, 1]]])
            first = np.unique(drawn, axis=0, return_index=True)[1]
        pairs_i, pairs_j = drawn[np.sort(first)[:max_pairs]].T

    dists = np.linalg.norm(X[pairs_i] - X[pairs_j], axis=1)
    valid = dists > 0
    if not valid.any():
        raise AllInstancesIdentical("all evaluated instance pairs are identical")
    ratios = np.abs(scores[pairs_i[valid]] - scores[pairs_j[valid]]) / dists[valid]
    return float(ratios.max()), int(valid.sum())


# --- aggregation helpers for study runs ------------------------------------------

def explanation_metrics_suite(explain_fn, model, instances: np.ndarray,
                              background: Background, r: float = 0.01,
                              n_probes: int = 8, K: int = 5, seed: int = 0):
    """Instance-averaged explanation accuracy, stability, and importance.

    Gives one ``ExplanationMetrics`` per kind of ``explain_fn``, in its
    order. Instance i is explained once, for every kind, by ``sens_max``'s
    step at ``derive_seed(seed, "sens", i)``, so its recorded ``sens_max``
    is what ``sens_max`` at that seed returns; each kind's explanation of x
    gives its error and its MoRF order (ties broken by lower player index).
    MoRF removes min(K, G) of the G players.
    """
    instances = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    scores = model.score(instances)
    K_eff = min(K, background.n_players)
    per_instance = []  # per instance, per kind: (error, sens_max, MoRF area)
    for i, x in enumerate(instances):
        explained = _sens_explained(explain_fn, model, x, r, n_probes,
                                    derive_seed(seed, "sens", i), background)
        per_instance.append([
            (abs(expls[0].prediction() - float(scores[i])), _max_shift(expls),
             auc_morf(model, x, K_eff, background,
                      np.argsort(-np.abs(expls[0].phi), kind="stable")))
            for expls in explained])
    return [ExplanationMetrics(
        explanation_error=float(np.mean(errors)),
        sens_max=float(np.mean(sens_values)),
        sens_radius=float(r),
        auc_morf=float(np.mean(morf_values)),
        morf_features_evaluated=int(K_eff),
    ) for errors, sens_values, morf_values in
        (zip(*kind) for kind in zip(*per_instance))]


def robustness_metrics_suite(model, instances: np.ndarray, candidates: np.ndarray,
                             n_random_dirs: int = 4, max_pairs: int = 10000,
                             seed: int = 0) -> RobustnessMetrics:
    """Per-instance minimal perturbations plus the dataset Lipschitz bound.

    Instance i is probed as ``adversarial_robustness`` probes it at
    ``derive_seed(seed, "adv", i)``, but all instances' searches advance in
    lockstep, one ``score`` call per step. ``delta_adv`` leaves out an
    instance with no flip; ``mean_delta_adv`` is None when none flips.
    """
    instances = np.atleast_2d(np.asarray(instances, dtype=np.float64))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    labels = (model.score(candidates) >= model.threshold).astype(np.int64)
    probes = _probe_all(model, instances, candidates, labels, n_random_dirs,
                        [derive_seed(seed, "adv", i) for i in range(len(instances))])
    deltas = [probe.delta for probe in probes if probe is not None]
    try:
        bound, pairs = lipschitz_lower(model, instances, max_pairs,
                                       seed=derive_seed(seed, "lip"))
    except AllInstancesIdentical:
        bound, pairs = 0.0, 0  # no two distinct instances: nothing measured
    return RobustnessMetrics(
        delta_adv=[float(v) for v in deltas],
        mean_delta_adv=float(np.mean(deltas)) if deltas else None,
        lipschitz_lower=bound,
        pairs_evaluated=pairs,
    )
