import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import gridbench
from gridbench.errors import AllPairsTied, ZeroDeviation
from gridbench.stats import (
    average_ranks,
    bootstrap_ci_mean_diff,
    cohens_d,
    compare,
    effect_label,
    wilcoxon_signed_rank,
)


def _midranks(values):
    """Oracle-side midranks, written independently of scipy."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def wilcoxon_brute_force(a, b):
    """Independent oracle: enumerate all 2^n sign assignments explicitly."""
    diff = [x - y for x, y in zip(a, b) if x != y]
    n = len(diff)
    assert n >= 1
    ranks = _midranks([abs(d) for d in diff])
    w_plus = sum(r for r, d in zip(ranks, diff) if d > 0)
    w_minus = sum(r for r, d in zip(ranks, diff) if d < 0)
    statistic = min(w_plus, w_minus)
    favorable = 0
    total_rank = sum(ranks)
    for signs in itertools.product((0, 1), repeat=n):
        wp = sum(r for r, s in zip(ranks, signs) if s)
        if min(wp, total_rank - wp) <= statistic + 1e-9:
            favorable += 1
    return statistic, favorable / 2.0 ** n


class TestAverageRanks:
    def test_matches_scipy_rankdata_on_tied_vectors(self):
        rng = np.random.default_rng(5)
        vectors = [[3.0, 1.0, 3.0, 2.0, 1.0, 3.0], [0.0] * 7, [2.5], [-0.0, 0.0, 1.0]]
        vectors += [rng.integers(0, 4, size=n).astype(float) for n in range(1, 40)]
        vectors += [np.round(rng.normal(size=50), 1) for _ in range(20)]
        for values in vectors:
            ranks = average_ranks(values)
            assert ranks.tobytes() == rankdata(values).tobytes()
            assert ranks.tolist() == _midranks(list(values))

    # the training pool's modules are imported where the pool is built, so
    # that they add nothing to ``import gridbench``
    @pytest.mark.parametrize("package", ["scipy", "multiprocessing", "concurrent.futures"])
    def test_import_loads_no_scipy_module(self, package):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(gridbench.__file__).resolve().parents[1]))
        probe = ("import sys, gridbench; "
                 f"print(sorted(m for m in sys.modules if (m + '.').startswith('{package}.')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestNormalDistribution:
    def test_cdf_and_quantile_match_scipy_special(self):
        # independent route: scipy's ndtr/ndtri on the range the BCa
        # corrections and Wilcoxon's normal approximation reach
        from scipy.special import ndtr, ndtri

        from gridbench.stats import _NORMAL

        z = np.linspace(-8.0, 8.0, 16001)
        cdf = np.array([_NORMAL.cdf(v) for v in z])
        assert np.max(np.abs(cdf - ndtr(z))) < 1e-14
        p = np.concatenate([np.geomspace(1e-9, 1e-3, 2000),
                            np.linspace(1e-3, 1.0 - 1e-3, 9999),
                            1.0 - np.geomspace(1e-3, 1e-6, 2000)])
        quantile = np.array([_NORMAL.inv_cdf(v) for v in p])
        assert np.max(np.abs(quantile - ndtri(p))) < 1e-14


class TestWilcoxon:
    def test_all_positive_distinct_differences(self):
        a = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        b = np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        result = wilcoxon_signed_rank(a, b)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(2.0 / 64.0)
        assert result.n_effective == 6
        assert result.method == "exact"

    def test_all_tied_raises(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(AllPairsTied):
            wilcoxon_signed_rank(a, a)

    def test_equal_magnitude_opposite_signs(self):
        # midranks (1.5, 1.5); enumeration over 4 sign patterns gives p = 1
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        result = wilcoxon_signed_rank(a, b)
        assert result.statistic == pytest.approx(1.5)
        assert result.p_value == pytest.approx(1.0)

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([1.0, 1.0, 2.0, 3.0])
        result = wilcoxon_signed_rank(a, b)
        assert result.n_effective == 3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            n = int(rng.integers(2, 13))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            if trial % 2 == 0:
                a, b = np.round(a, 1), np.round(b, 1)  # force ties/zeros
            if np.all(a == b):
                continue
            got = wilcoxon_signed_rank(a, b)
            want_stat, want_p = wilcoxon_brute_force(a, b)
            assert got.statistic == pytest.approx(want_stat)
            assert got.p_value == pytest.approx(want_p), f"trial {trial}"

    def test_exact_p_at_the_enumeration_limit_matches_scipy(self):
        import scipy.stats

        rng = np.random.default_rng(25)
        a = rng.normal(loc=0.3, size=25)
        b = rng.normal(size=25)
        assert np.unique(np.abs(a - b)).size == 25  # distinct differences
        got = wilcoxon_signed_rank(a, b)
        want = scipy.stats.wilcoxon(a, b, method="exact")
        assert (got.method, got.n_effective) == ("exact", 25)
        assert got.statistic == want.statistic
        assert abs(got.p_value - want.pvalue) < 1e-12

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(b, a)
        assert r1.statistic == r2.statistic
        assert r1.p_value == r2.p_value

    def test_normal_approximation_for_large_n(self):
        rng = np.random.default_rng(5)
        a = rng.normal(loc=0.5, size=40)
        b = rng.normal(size=40)
        result = wilcoxon_signed_rank(a, b)
        assert result.method == "normal_approximation"
        assert 0.0 < result.p_value <= 1.0

    def test_normal_approximation_matches_scipy(self):
        # independent route: scipy's continuity-corrected approximation
        import scipy.stats

        rng = np.random.default_rng(0)
        checked = 0
        while checked < 20:
            n = int(rng.integers(26, 60))
            a = rng.normal(size=n)
            b = a + rng.normal(scale=0.7, size=n)
            if checked % 3 == 0:
                a, b = np.round(a, 1), np.round(b, 1)
            if np.sum(a != b) <= 25:
                continue
            mine = wilcoxon_signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, correction=True,
                                       alternative="two-sided",
                                       method="approx", zero_method="wilcox")
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-12)
            checked += 1

    def test_p_value_in_half_open_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            a = rng.normal(size=n)
            b = a + rng.normal(size=n)
            if np.all(a == b):
                continue
            p = wilcoxon_signed_rank(a, b).p_value
            assert 0.0 < p <= 1.0


class TestCohensD:
    def test_hand_computed_example(self):
        assert cohens_d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == pytest.approx(-1.0)

    def test_identical_groups_zero(self):
        a = [1.0, 2.0, 3.0]
        assert cohens_d(a, a) == 0.0

    def test_zero_deviation_raises(self):
        with pytest.raises(ZeroDeviation):
            cohens_d([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])

    def test_antisymmetry_shift_and_scale_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=12)
        b = rng.normal(loc=0.4, size=12)
        d = cohens_d(a, b)
        assert cohens_d(b, a) == pytest.approx(-d)
        assert cohens_d(a + 5.0, b + 5.0) == pytest.approx(d)
        assert cohens_d(a * 3.0, b * 3.0) == pytest.approx(d)

    def test_effect_labels_at_anchors_and_midpoints(self):
        assert effect_label(0.2) == "small"
        assert effect_label(-0.2) == "small"
        assert effect_label(0.31) == "small"
        assert effect_label(0.35) == "small"
        assert effect_label(0.5) == "medium"
        assert effect_label(-0.5) == "medium"
        assert effect_label(0.64) == "medium"
        assert effect_label(0.65) == "large"
        assert effect_label(0.8) == "large"
        assert effect_label(0.9) == "large"


class TestBootstrap:
    def test_constant_groups_degenerate_interval(self):
        ci = bootstrap_ci_mean_diff([2.0, 2.0, 2.0], [0.5, 0.5, 0.5], seed=0)
        assert ci.low == ci.high == pytest.approx(1.5)
        assert ci.method == "degenerate"

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        c1 = bootstrap_ci_mean_diff(a, b, seed=42)
        c2 = bootstrap_ci_mean_diff(a, b, seed=42)
        assert (c1.low, c1.high, c1.method) == (c2.low, c2.high, c2.method)

    def test_interval_contains_point_estimate(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            ci = bootstrap_ci_mean_diff(a, b, n_resamples=400, seed=1)
            assert ci.low <= a.mean() - b.mean() <= ci.high

    def test_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(13)
        small_a, small_b = rng.normal(size=8), rng.normal(size=8)
        big_a, big_b = rng.normal(size=200), rng.normal(size=200)
        small = bootstrap_ci_mean_diff(small_a, small_b, seed=2)
        big = bootstrap_ci_mean_diff(big_a, big_b, seed=2)
        assert (big.high - big.low) < (small.high - small.low)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5])
    def test_level_outside_unit_interval_raises(self, level):
        rng = np.random.default_rng(21)
        a, b = rng.normal(size=6), rng.normal(size=6)
        for x, y in ((a, b), ([2.0, 2.0], [1.0, 1.0])):  # bca and degenerate paths
            with pytest.raises(ValueError, match="level"):
                bootstrap_ci_mean_diff(x, y, level=level, n_resamples=50)

    def test_bca_is_default_method(self):
        rng = np.random.default_rng(15)
        ci = bootstrap_ci_mean_diff(rng.normal(size=30),
                                    rng.normal(size=30), seed=3)
        assert ci.method == "bca"

    def test_percentile_fallback_when_every_replicate_is_on_one_side(self):
        a, b = np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 0.0])
        ci = bootstrap_ci_mean_diff(a, b, n_resamples=3, seed=1)
        assert ci.method == "percentile"
        rng = np.random.default_rng(1)
        idx_a = rng.integers(0, 3, size=(3, 3))
        idx_b = rng.integers(0, 3, size=(3, 3))
        replicates = a[idx_a].mean(axis=1) - b[idx_b].mean(axis=1)
        estimate = a.mean() - b.mean()
        assert ci.low == min(np.quantile(replicates, 0.025), estimate)
        assert ci.high == max(np.quantile(replicates, 0.975), estimate)

    def test_bca_tracks_scipy_bootstrap(self):
        # independent route: scipy's BCa on the same data; endpoints differ
        # only by resampling noise, so compare relative to the width
        import scipy.stats

        rng = np.random.default_rng(3)
        for trial in range(5):
            a = rng.normal(loc=1.0, size=25)
            b = rng.normal(size=25)
            mine = bootstrap_ci_mean_diff(a, b, n_resamples=9999, seed=trial)
            ref = scipy.stats.bootstrap(
                (a, b), lambda x, y: np.mean(x) - np.mean(y),
                n_resamples=9999, method="BCa", confidence_level=0.95,
                random_state=trial)
            lo, hi = ref.confidence_interval
            width = hi - lo
            assert abs(mine.low - lo) < 0.1 * width
            assert abs(mine.high - hi) < 0.1 * width


class TestCompare:
    def test_full_comparison_finite(self):
        rng = np.random.default_rng(19)
        a = rng.normal(loc=0.6, size=6)
        b = rng.normal(size=6)
        result = compare("metric", a, b, n_resamples=500, seed=4)
        assert result.wilcoxon is not None
        assert result.cohens_d is not None
        assert result.effect_label in ("small", "medium", "large")
        assert result.bootstrap_ci.low <= result.point_estimate <= result.bootstrap_ci.high

    def test_tied_inputs_become_reasons(self):
        a = np.array([1.0, 1.0, 1.0])
        result = compare("metric", a, a, n_resamples=100, seed=0)
        assert result.wilcoxon is None
        assert result.wilcoxon_incomputable
        assert result.cohens_d is None
        assert result.cohens_d_incomputable
        assert result.bootstrap_ci.method == "degenerate"
        doc = result.to_dict()
        assert doc["wilcoxon"]["statistic"] is None
