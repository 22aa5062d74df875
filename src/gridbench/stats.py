"""Cross-dataset statistical comparison of two algorithms.

Paired samples are metric values per dataset (sample size = number of
datasets). The toolkit is deliberately nonparametric: Wilcoxon signed-rank
with an exact small-sample p-value, Cohen's d with small/medium/large
anchors, and seeded BCa bootstrap confidence intervals for the mean
difference.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from statistics import NormalDist

import numpy as np

from .errors import AllPairsTied, ZeroDeviation

EXACT_ENUMERATION_LIMIT = 25

_NORMAL = NormalDist()

# Anchor values 0.2 / 0.5 / 0.8; buckets cut at the midpoints.
EFFECT_SIZE_BUCKETS = {"small_max": 0.35, "medium_max": 0.65}
EFFECT_LABELS = ("small", "medium", "large")
WILCOXON_METHODS = ("exact", "normal_approximation")
BOOTSTRAP_METHODS = ("bca", "percentile", "degenerate")
# the functions below return these names, so each vocabulary is written once
_SMALL, _MEDIUM, _LARGE = EFFECT_LABELS
_EXACT, _NORMAL_APPROXIMATION = WILCOXON_METHODS
_BCA, _PERCENTILE, _DEGENERATE = BOOTSTRAP_METHODS


@dataclass(frozen=True)
class WilcoxonResult:
    statistic: float
    p_value: float
    n_effective: int
    method: str  # one of WILCOXON_METHODS


@dataclass(frozen=True)
class BootstrapInterval:
    low: float
    high: float
    level: float
    n_resamples: int
    method: str  # one of BOOTSTRAP_METHODS
    seed: int


@dataclass(frozen=True)
class ComparisonResult:
    metric_name: str
    point_estimate: float
    wilcoxon: WilcoxonResult | None
    wilcoxon_incomputable: str | None
    cohens_d: float | None
    cohens_d_incomputable: str | None
    effect_label: str | None  # one of EFFECT_LABELS
    bootstrap_ci: BootstrapInterval

    def to_dict(self) -> dict:
        doc = asdict(self)
        # incomputable tests keep the object shape with null members so the
        # stored document validates against the closed schema
        if self.wilcoxon is None:
            doc["wilcoxon"] = dict.fromkeys(f.name for f in fields(WilcoxonResult))
        doc["effect_size_buckets"] = dict(EFFECT_SIZE_BUCKETS)
        return doc


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a vector, ties sharing the mean of their ranks."""
    values = np.asarray(values).ravel()
    order = np.argsort(values, kind="mergesort")
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.arange(order.size, dtype=np.intp)
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = starts.cumsum()[inverse]
    count = np.r_[np.nonzero(starts)[0], starts.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def _paired(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ValueError("need two equal-length 1-D samples with n >= 2")
    return a, b


def _exact_min_rank_sum_p(ranks: np.ndarray, statistic: float) -> float:
    """P(min(W+, W-) <= statistic) over all 2^n sign assignments.

    Computed by integer convolution over doubled ranks (midranks are
    multiples of 1/2), which enumerates the same distribution as iterating
    the 2^n assignments explicitly.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.int64)  # each count <= 2^n <= 2^25
    counts[0] = 1
    for r in doubled:
        counts[r:] = counts[r:] + counts[:counts.size - r]
    w_plus = np.arange(total + 1)
    t = 2.0 * statistic + 1e-9  # doubled-scale threshold, FP guard
    favorable = (w_plus <= t) | ((total - w_plus) <= t)
    return float(counts[favorable].sum() / 2 ** len(ranks))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; ties in |difference| get midranks. The
    statistic is min(W+, W-). For n_effective <= 25 the p-value is exact
    (P(min(W+, W-) <= observed) over equally likely sign assignments);
    beyond that a normal approximation with tie correction and continuity
    correction is used.
    """
    a, b = _paired(a, b)
    diff = a - b
    diff = diff[diff != 0.0]
    n = diff.size
    if n == 0:
        raise AllPairsTied("every pair is tied; the test cannot be computed")

    ranks = average_ranks(np.abs(diff))
    w_plus = float(ranks[diff > 0].sum())
    w_minus = float(ranks[diff < 0].sum())
    statistic = min(w_plus, w_minus)

    if n <= EXACT_ENUMERATION_LIMIT:
        p = _exact_min_rank_sum_p(ranks, statistic)
        method = _EXACT
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
        if var <= 0:
            raise AllPairsTied("tie correction removed all variance")
        z = (statistic - mean + 0.5) / np.sqrt(var)
        p = 2.0 * _NORMAL.cdf(z)
        method = _NORMAL_APPROXIMATION
    return WilcoxonResult(statistic=statistic, p_value=min(1.0, p),
                          n_effective=int(n), method=method)


def cohens_d(a, b) -> float:
    """Pooled-SD Cohen's d, (mean(a) - mean(b)) / s_pooled."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each group needs >= 2 values")
    var_a = float(np.var(a, ddof=1))
    var_b = float(np.var(b, ddof=1))
    pooled = ((a.size - 1) * var_a + (b.size - 1) * var_b) / (a.size + b.size - 2)
    if pooled <= 0.0:
        raise ZeroDeviation("both groups have zero deviation")
    return float((a.mean() - b.mean()) / np.sqrt(pooled))


def effect_label(d: float) -> str:
    """Bucket |d| by the midpoints between the 0.2/0.5/0.8 anchors."""
    magnitude = abs(d)
    if magnitude <= EFFECT_SIZE_BUCKETS["small_max"]:
        return _SMALL
    if magnitude < EFFECT_SIZE_BUCKETS["medium_max"]:
        return _MEDIUM
    return _LARGE


def bootstrap_ci_mean_diff(a, b, level: float = 0.95, n_resamples: int = 5000,
                           seed: int = 0) -> BootstrapInterval:
    """Seeded BCa bootstrap interval for mean(a) - mean(b).

    Resampling is independent per group. Falls back to the percentile
    method when the BCa corrections are undefined (all replicates on one
    side of the estimate, or zero jackknife variance); constant groups give
    a degenerate zero-width interval at the point estimate. The interval is
    widened to contain the point estimate if finite-resample corrections
    pushed it off.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each group needs >= 2 values")
    estimate = float(a.mean() - b.mean())

    rng = np.random.default_rng(seed)
    idx_a = rng.integers(0, a.size, size=(n_resamples, a.size))
    idx_b = rng.integers(0, b.size, size=(n_resamples, b.size))
    replicates = a[idx_a].mean(axis=1) - b[idx_b].mean(axis=1)

    if np.all(replicates == replicates[0]) and replicates[0] == estimate:
        return BootstrapInterval(estimate, estimate, level, n_resamples,
                                 _DEGENERATE, int(seed))

    alpha = 1.0 - level
    method, quantiles = _PERCENTILE, (alpha / 2.0, 1.0 - alpha / 2.0)
    prop_below = float(np.mean(replicates < estimate))
    if 0.0 < prop_below < 1.0:
        z0 = _NORMAL.inv_cdf(prop_below)
        # jackknife over both groups for the acceleration constant
        jack = np.concatenate([(a.sum() - a) / (a.size - 1) - b.mean(),
                               a.mean() - (b.sum() - b) / (b.size - 1)])
        deviations = jack.mean() - jack
        denom = float(np.sum(deviations ** 2))
        if denom > 0.0:
            accel = float(np.sum(deviations ** 3) / (6.0 * denom ** 1.5))
            method = _BCA
            quantiles = [_NORMAL.cdf(z0 + (z0 + z) / (1.0 - accel * (z0 + z)))
                         for z in map(_NORMAL.inv_cdf, quantiles)]
    low, high = (float(q) for q in np.quantile(replicates, quantiles))

    low = min(low, estimate)
    high = max(high, estimate)
    return BootstrapInterval(low, high, level, int(n_resamples), method, int(seed))


def compare(metric_name: str, a, b, level: float = 0.95,
            n_resamples: int = 5000, seed: int = 0) -> ComparisonResult:
    """Full two-algorithm comparison; undefined tests become reasons, not crashes."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    wilcoxon = wilcoxon_reason = None
    try:
        wilcoxon = wilcoxon_signed_rank(a, b)
    except AllPairsTied as exc:
        wilcoxon_reason = str(exc)
    d = d_reason = d_label = None
    try:
        d = cohens_d(a, b)
        d_label = effect_label(d)
    except ZeroDeviation as exc:
        d_reason = str(exc)
    ci = bootstrap_ci_mean_diff(a, b, level=level, n_resamples=n_resamples,
                                seed=seed)
    return ComparisonResult(
        metric_name=metric_name,
        point_estimate=float(a.mean() - b.mean()),
        wilcoxon=wilcoxon,
        wilcoxon_incomputable=wilcoxon_reason,
        cohens_d=d,
        cohens_d_incomputable=d_reason,
        effect_label=d_label,
        bootstrap_ci=ci,
    )
