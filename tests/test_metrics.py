import contextlib
import copy
import inspect
from dataclasses import astuple

import numpy as np
import pytest

from conftest import AxisThresholdStub, ConstantStub, LinearStub, SingleFeatureStub
from gridbench.data import SyntheticSpec, generate_synthetic
from gridbench.errors import (
    AllInstancesIdentical,
    KOutOfRange,
    NoFlipFound,
    SingleClassLabels,
)
from gridbench.explain import (
    Background,
    build_explainer,
    sample_background,
    shapley_explain,
)
from gridbench import metrics
from gridbench.metrics import (
    ExplanationMetrics,
    RobustnessProbe,
    adversarial_robustness,
    auc_morf,
    classification_metrics,
    explanation_metrics_suite,
    lipschitz_lower,
    morf_curve,
    robustness_metrics_suite,
    sens_max,
)
from gridbench.preprocess import PipelineConfig, apply_pipeline, fit_pipeline
from gridbench.seeding import derive_seed

EXACT = build_explainer(("blackbox",), mode="exact")


def _phi(model, x, bg):
    """x's own exact attribution."""
    return shapley_explain(model, x, bg, mode="exact").phi


def _order(model, x, bg):
    """Most-relevant-first removal order from x's exact attribution."""
    return np.argsort(-np.abs(_phi(model, x, bg)), kind="stable")


def _pairwise_auc_oracle(scores, labels):
    """Independent oracle: count correctly ordered cross-class pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = wins = 0.0
    for p in pos:
        for n in neg:
            total += 1
            if p > n:
                wins += 1
            elif p == n:
                wins += 0.5
    return wins / total


class TestClassificationMetrics:
    def test_perfect_classifier_boundary_values(self):
        labels = np.array([0, 1, 0, 1, 1])
        m = classification_metrics(labels.astype(float), labels)
        assert m.auc == 1.0
        assert m.false_positive_rate == 0.0
        assert m.balanced_accuracy == 1.0
        assert m.mcc == 1.0

    def test_auc_pairwise_counting_example(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        m = classification_metrics(scores, labels, threshold=0.5)
        assert m.auc == pytest.approx(0.75)
        assert m.auc == pytest.approx(_pairwise_auc_oracle(scores, labels))

    def test_auc_matches_pairwise_oracle_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 30))
            labels = np.zeros(n, dtype=int)
            labels[: max(1, n // 3)] = 1
            rng.shuffle(labels)
            scores = np.round(rng.uniform(size=n), 1)  # force some ties
            got = classification_metrics(scores, labels).auc
            assert got == pytest.approx(_pairwise_auc_oracle(scores, labels))

    def test_inverted_classifier_mcc(self):
        m = classification_metrics(np.array([1.0, 0.0]), np.array([0, 1]))
        assert m.mcc == -1.0

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 2, size=50)
        labels[:2] = [0, 1]
        scores = rng.uniform(size=50)
        m = classification_metrics(scores, labels)
        assert sum(m.confusion.values()) == 50

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassLabels):
            classification_metrics(np.array([0.2, 0.3]), np.array([1, 1]))


def _three_explanation_suite(explain_fn, model, instances, background, r,
                             n_probes, K, seed):
    """Reference: the explanation suite as three metrics that each explain x.

    The error, ``sens_max`` and the MoRF curve each compute their own
    explanation of x at their own seed; in exact mode all three are the
    same, so the one-explanation suite must reproduce these values bit for
    bit.
    """
    scores = model.score(instances)
    errors = []
    for i, x in enumerate(instances):
        (expl,) = explain_fn(model, x, background,
                             seed=derive_seed(seed, "expl_err", i))
        errors.append(abs(expl.prediction() - float(scores[i])))

    sens_values, morf_values = [], []
    K_eff = min(K, instances.shape[1])
    for i, x in enumerate(instances):
        sens_seed = derive_seed(seed, "sens", i)
        d = x.shape[0]
        candidates = [x + r * e for e in np.eye(d)] + [x - r * e for e in np.eye(d)]
        candidates.append(x + r * np.ones(d))
        candidates.append(x - r * np.ones(d))
        rng = np.random.default_rng(derive_seed(sens_seed, "sens_probes"))
        for _ in range(n_probes):
            candidates.append(x + rng.uniform(-r, r, size=d))
        expl_seed = derive_seed(sens_seed, "sens_explain")
        phi0 = explain_fn(model, x, background, seed=expl_seed)[0].phi
        worst = 0.0
        for cand in candidates:
            phi = explain_fn(model, cand, background, seed=expl_seed)[0].phi
            worst = max(worst, float(np.linalg.norm(phi - phi0)))
        sens_values.append(worst)

        morf_seed = derive_seed(seed, "morf", i)
        (expl,) = explain_fn(model, x, background, seed=derive_seed(morf_seed, "morf"))
        order = np.argsort(-np.abs(expl.phi), kind="stable")
        mean = background.mean()
        points = np.tile(x, (K_eff + 1, 1))
        for k in range(1, K_eff + 1):
            points[k:, order[k - 1]] = mean[order[k - 1]]
        curve = model.score(points)
        morf_values.append(float(np.sum((curve[:-1] + curve[1:]) / 2.0)))

    return ExplanationMetrics(
        explanation_error=float(np.mean(errors)),
        sens_max=float(np.mean(sens_values)),
        sens_radius=float(r),
        auc_morf=float(np.mean(morf_values)),
        morf_features_evaluated=int(K_eff),
    )


class TestExplanationError:
    def test_exact_mode_local_accuracy(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 12, seed=0)
        for model in trained_models.values():
            err = explanation_metrics_suite(EXACT, model, X_test[:8], bg,
                                            r=0.0)[0].explanation_error
            assert err < 1e-9

    def test_constant_model_zero_error_every_kind(self):
        bg = Background(np.zeros((3, 2)))
        model = ConstantStub(0.5)
        X = np.array([[0.1, 0.2], [0.5, 0.5]])
        for kind, mode in (("blackbox", "exact"), ("blackbox", "sampled")):
            fn = build_explainer((kind,), mode=mode, n_samples=50)
            err = explanation_metrics_suite(fn, model, X, bg,
                                            r=0.0)[0].explanation_error
            assert err == pytest.approx(0.0)

    def test_basic_join_error_matches_hand_computation(self, trained_stack,
                                                       blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 10, seed=1)
        fn = build_explainer(("basic_join",), mode="exact")
        x = X_test[4]
        (expl,) = fn(trained_stack, x, bg, seed=0)
        expected = abs(expl.base_value + expl.phi.sum()
                       - float(trained_stack.score(x[None, :])[0]))
        got = explanation_metrics_suite(fn, trained_stack, x[None, :], bg,
                                        r=0.0)[0].explanation_error
        assert got == pytest.approx(expected, abs=1e-12)


class TestSensMax:
    def test_zero_radius_is_exactly_zero(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=0)
        for model in trained_models.values():
            assert sens_max(EXACT, model, X_test[0], r=0.0,
                            background=bg) == 0.0

    def test_linear_analytic_maximum_attained_at_corner(self):
        # oracle: for f(x)=w.x the attribution shift is w*(x'-x); its norm
        # over the inf-ball is maximized at the corner sign(w)*r, giving
        # r*||w||_2
        model = LinearStub([1.0, 2.0])
        bg = Background(np.array([[0.0, 0.0], [1.0, 1.0]]))
        x = np.array([0.3, 0.4])
        got = sens_max(EXACT, model, x, r=0.01, n_probes=4, seed=0, background=bg)
        assert got == pytest.approx(0.01 * np.sqrt(5.0), abs=1e-9)

    def test_constant_model_zero(self):
        bg = Background(np.zeros((2, 3)))
        model = ConstantStub(0.9, input_dimension=3)
        x = np.zeros(3)
        assert sens_max(EXACT, model, x, r=0.05,
                        background=bg) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_radius_linear(self):
        model = LinearStub([1.5, -0.5, 2.0])
        bg = Background(np.zeros((2, 3)))
        x = np.array([0.1, 0.2, 0.3])
        values = [sens_max(EXACT, model, x, r=r, n_probes=4, seed=1,
                           background=bg) for r in (0.01, 0.02, 0.04)]
        assert values[0] <= values[1] <= values[2]

    def test_background_is_required(self):
        background = inspect.signature(sens_max).parameters["background"]
        assert background.default is inspect.Parameter.empty
        with pytest.raises(TypeError, match="background"):
            sens_max(EXACT, LinearStub([1.0, 2.0]), np.array([0.3, 0.4]), r=0.01)


class TestAucMorf:
    def test_constant_model_flat_curve(self):
        bg = Background(np.zeros((2, 6)))
        model = ConstantStub(0.5, input_dimension=6)
        x = np.ones(6)
        got = auc_morf(model, x, K=5, background=bg, order=_order(model, x, bg))
        assert got == 5 * 0.5

    def test_two_step_trapezoid_by_hand(self):
        # feature 3 carries the whole score; replacing it drops 0.9 -> 0.2
        model = SingleFeatureStub(feature=3)
        bg = Background(np.zeros((4, 5)))
        x = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        got = auc_morf(model, x, K=2, background=bg, order=_order(model, x, bg))
        assert got == pytest.approx((0.9 + 0.2) / 2 + (0.2 + 0.2) / 2)

    def test_k_out_of_range(self):
        bg = Background(np.zeros((2, 3)))
        with pytest.raises(KOutOfRange):
            model, x = ConstantStub(0.5, 3), np.zeros(3)
            auc_morf(model, x, K=4, background=bg, order=_order(model, x, bg))

    def test_morf_beats_random_orderings(self):
        # oracle: removing truly-important features first decreases the
        # curve fastest, so the MoRF area is below the random-order mean
        rng = np.random.default_rng(21)
        d, K = 6, 5
        wins = 0
        for _ in range(100):
            model = LinearStub(rng.normal(loc=1.0, scale=0.5, size=d))
            x = rng.normal(loc=1.0, scale=0.3, size=d)
            bg = Background(rng.normal(loc=0.0, scale=0.1, size=(10, d)))
            morf = auc_morf(model, x, K=K, background=bg,
                            order=_order(model, x, bg))
            randoms = [auc_morf(model, x, K=K, background=bg,
                                order=rng.permutation(d))
                       for _ in range(20)]
            wins += int(morf <= np.mean(randoms))
        assert wins >= 95


class TestAdversarialRobustness:
    def test_threshold_stub_distance(self):
        model = AxisThresholdStub(cut=0.5)
        candidates = np.array([[0.9]])
        got = adversarial_robustness(model, np.array([0.3]), candidates,
                                     n_random_dirs=0, seed=0).delta
        assert got == pytest.approx(0.2, abs=1e-5)

    def test_linear_separator_perpendicular_distance(self):
        # candidate placed across the boundary along the normal, so the ray
        # distance equals |w.x + b| / ||w||
        w = np.array([3.0, 4.0])
        b = -2.0
        model = LinearStub(w, b, threshold=0.0)
        x = np.array([0.0, 1.0])
        signed = (w @ x + b) / np.linalg.norm(w)
        assert signed == pytest.approx(0.4)
        candidate = x - 2.0 * signed * w / np.linalg.norm(w)
        got = adversarial_robustness(model, x, candidate[None, :],
                                     n_random_dirs=0, seed=0).delta
        assert got == pytest.approx(0.4, abs=1e-4)

    def test_constant_model_no_flip(self):
        model = ConstantStub(0.9, input_dimension=2)
        with pytest.raises(NoFlipFound):
            adversarial_robustness(model, np.zeros(2), np.ones((3, 2)),
                                   n_random_dirs=3, seed=0)

    def test_witness_actually_flips(self, trained_models, blob_matrices):
        X_train, _, X_test, _ = blob_matrices
        model = trained_models["logreg"]
        x = X_test[0]
        probe = adversarial_robustness(model, x, X_train,
                                       n_random_dirs=2, seed=0)
        base = int(model.score(x[None, :])[0] >= model.threshold)
        flipped = int(model.score(probe.witness[None, :])[0] >= model.threshold)
        assert flipped != base
        assert probe.delta == pytest.approx(
            float(np.linalg.norm(probe.witness - x)), abs=1e-9)

    def test_random_directions_find_boundary_without_candidates(self):
        model = AxisThresholdStub(cut=0.5)
        same_side = np.array([[0.1], [0.2]])
        got = adversarial_robustness(model, np.array([0.3]), same_side,
                                     n_random_dirs=8, seed=1).delta
        assert got == pytest.approx(0.2, abs=1e-4)


def _reference_probe(model, x, candidates, n_random_dirs=4, seed=0, tol=1e-6,
                     intervals=None, expansions=None):
    """Direction-by-direction search with single-row score calls (oracle).

    Each random ray searches up to the cap and each direction is bisected to
    the end; when ``intervals`` is a list, the (lo, hi) sequence of every
    bisected direction is appended to it, and when ``expansions`` is a list,
    every direction's (distances its expanding search tried, flip distance
    or None) is appended to it.
    """
    x = np.asarray(x, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    base_label = int(model.score(x[None, :])[0] >= model.threshold)
    extent = np.vstack([candidates, x[None, :]])
    diameter = float(np.linalg.norm(extent.max(axis=0) - extent.min(axis=0)))
    cap = 10.0 * diameter if diameter > 0 else 10.0
    directions = []
    cand_labels = (model.score(candidates) >= model.threshold).astype(np.int64)
    for c, cl in zip(candidates, cand_labels):
        if int(cl) != base_label:
            dist = float(np.linalg.norm(c - x))
            if dist > 0:
                directions.append(((c - x) / dist, dist))
    rng = np.random.default_rng(derive_seed(seed, "adv_dirs"))
    for _ in range(int(n_random_dirs)):
        u = rng.normal(size=x.shape[0])
        norm = np.linalg.norm(u)
        if norm > 0:
            directions.append((u / norm, None))

    def flips(t, unit):
        return int(model.score((x + t * unit)[None, :])[0] >= model.threshold) != base_label

    best = None
    for unit, known_flip in directions:
        lo, hi, tried = 0.0, known_flip, []
        if known_flip is None:
            t = tol
            while t <= cap:
                tried.append(t)
                if flips(t, unit):
                    hi = t
                    break
                lo, t = t, t * 2.0
        if expansions is not None:
            expansions.append((tried, hi))
        if hi is None:
            continue
        steps = [(lo, hi)]
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if flips(mid, unit):
                hi = mid
            else:
                lo = mid
            steps.append((lo, hi))
        if intervals is not None:
            intervals.append(steps)
        if best is None or hi < best.delta:
            best = RobustnessProbe(delta=float(hi), witness=x + hi * unit)
    if best is None:
        raise NoFlipFound("no probed direction flipped the predicted label")
    return best


def _lockstep_skipped_rows(intervals):
    """Bisection rows a lockstep search skips over the oracle's sequences:
    each round, a direction takes its next step only while its lo is below
    the smallest hi of the round."""
    taken = [0] * len(intervals)
    while True:
        min_hi = min(seq[k][1] for seq, k in zip(intervals, taken))
        moving = [i for i, (seq, k) in enumerate(zip(intervals, taken))
                  if k + 1 < len(seq) and seq[k][0] < min_hi]
        if not moving:
            return sum(len(seq) - 1 for seq in intervals) - sum(taken)
        for i in moving:
            taken[i] += 1


def _lockstep_skipped_ray_rows(expansions):
    """Expanding-search rows a lockstep search skips over the oracle's
    (distances tried, flip distance) of every direction: round k tries the
    k-th distance on every random ray still searching, and a ray stops once
    its lo, the distance it tried last, reaches the smallest flip distance
    known."""
    min_hi = min((flip for tried, flip in expansions if not tried), default=np.inf)
    rays = [(tried, flip) for tried, flip in expansions if tried]
    for k in range(max((len(tried) for tried, _ in rays), default=0)):
        searching = [(tried, flip) for tried, flip in rays if len(tried) > k]
        if k and searching[0][0][k - 1] >= min_hi:  # the rays try one sequence
            return sum(len(tried) - k for tried, _ in searching)
        min_hi = min([min_hi, *(flip for tried, flip in searching if flip == tried[k])])
    return 0


class _CountingModel:
    """Forwards score calls to a model, counting calls and rows."""

    def __init__(self, model):
        self.model = model
        self.threshold = model.threshold
        self.input_dimension = getattr(model, "input_dimension", None)
        self.calls = 0
        self.rows = 0
        self.max_rows = 0

    def score(self, X):
        self.calls += 1
        self.rows += len(X)
        self.max_rows = max(self.max_rows, len(X))
        return self.model.score(X)


class _BallStub:
    """Label 1 only inside a small ball around ``center``."""

    threshold = 0.5

    def __init__(self, center, radius):
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)

    def score(self, X):
        dist = np.linalg.norm(np.asarray(X, dtype=np.float64) - self.center, axis=1)
        return (dist <= self.radius).astype(np.float64)


class TestBatchedRobustnessSearch:
    @pytest.mark.parametrize("kind", ["logreg", "tree", "mlp", "stack"])
    def test_matches_reference_with_tenfold_fewer_calls(
            self, kind, trained_models, trained_stack, blob_matrices):
        X_train, _, X_test, _ = blob_matrices
        model = trained_stack if kind == "stack" else trained_models[kind]
        batched, reference = _CountingModel(model), _CountingModel(model)
        skipped = skipped_rays = 0
        for i, x in enumerate(X_test[:6]):
            probe = adversarial_robustness(batched, x, X_train,
                                           n_random_dirs=4, seed=i)
            intervals, expansions = [], []
            oracle = _reference_probe(reference, x, X_train,
                                      n_random_dirs=4, seed=i,
                                      intervals=intervals, expansions=expansions)
            assert probe.delta == oracle.delta
            assert np.array_equal(probe.witness, oracle.witness)
            skipped += _lockstep_skipped_rows(intervals)
            skipped_rays += _lockstep_skipped_ray_rows(expansions)
        # the oracle searches every ray to its flip or the cap and bisects
        # every direction to the end; the search stops a direction once its
        # lo reaches the smallest hi
        assert skipped > 0 and skipped_rays > 0
        skipped += skipped_rays
        assert batched.rows == reference.rows - skipped
        assert batched.calls * 10 <= reference.calls

    def test_no_directions_raises(self):
        model = AxisThresholdStub(cut=0.5)
        same_side = np.array([[0.1], [0.2]])
        with pytest.raises(NoFlipFound):
            adversarial_robustness(model, np.array([0.3]), same_side,
                                   n_random_dirs=0, seed=0)

    def test_equal_distances_keep_the_first_direction(self):
        # only feature 0 decides the label, so both rays flip at the same t
        model = SingleFeatureStub(0, cut=0.5, input_dimension=2)
        for first in (np.array([1.0, 1.0]), np.array([1.0, -1.0])):
            mirrored = first * [1.0, -1.0]
            probe = adversarial_robustness(model, np.zeros(2),
                                           np.array([first, mirrored]),
                                           n_random_dirs=0, seed=0)
            assert np.sign(probe.witness[1]) == np.sign(first[1])
            assert probe.witness[0] == pytest.approx(0.5, abs=1e-6)

    def test_ray_without_flip_is_skipped(self):
        # a random ray almost surely misses the ball; the candidate inside
        # it supplies delta, and a ray searches until its lo reaches the
        # candidate's flip distance, 1.0
        model = _BallStub([1.0, 0.0, 0.0], radius=0.01)
        x, candidates = np.zeros(3), np.array([[1.0, 0.0, 0.0]])
        rays, plain = _CountingModel(model), _CountingModel(model)
        probe = adversarial_robustness(rays, x, candidates,
                                       n_random_dirs=4, seed=0)
        alone = adversarial_robustness(plain, x, candidates,
                                       n_random_dirs=0, seed=0)
        assert probe.delta == alone.delta == pytest.approx(0.99, abs=1e-6)
        assert np.array_equal(probe.witness, alone.witness)
        cap, t, lo, steps = 10.0 * 1.0, 1e-6, 0.0, 0
        while t <= cap and lo < 1.0:
            steps, lo, t = steps + 1, t, t * 2.0
        assert steps == 21
        assert rays.rows - plain.rows == 4 * steps


def _reference_lipschitz(model, X, max_pairs, seed):
    """The sampled bound over a dict-and-loop ordered set of the pair stream
    (oracle): the first ``max_pairs`` distinct sorted pairs, i != j."""
    n = X.shape[0]
    rng = np.random.default_rng(derive_seed(seed, "lipschitz_pairs"))
    chosen = {}
    while len(chosen) < max_pairs:
        for a, b in rng.integers(0, n, size=(max_pairs, 2)):
            key = (int(min(a, b)), int(max(a, b)))
            if a != b and key not in chosen:
                chosen[key] = None
                if len(chosen) == max_pairs:
                    break
    i, j = np.array(list(chosen)).T
    scores = model.score(X)
    dists = np.linalg.norm(X[i] - X[j], axis=1)
    valid = dists > 0
    ratios = np.abs(scores[i[valid]] - scores[j[valid]]) / dists[valid]
    return float(ratios.max()), int(valid.sum())


class TestLipschitzLower:
    def test_linear_parallel_pair_attains_weight_norm(self):
        model = LinearStub([3.0, 4.0])
        instances = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
        got, _ = lipschitz_lower(model, instances)
        assert got == pytest.approx(5.0)

    def test_constant_model_zero(self):
        model = ConstantStub(0.5)
        instances = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert lipschitz_lower(model, instances)[0] == 0.0

    def test_cauchy_schwarz_upper_bound(self):
        # oracle: |w.(x-y)| <= ||w|| * ||x-y||, so no pair can exceed ||w||
        rng = np.random.default_rng(8)
        w = rng.normal(size=4)
        model = LinearStub(w)
        for _ in range(20):
            instances = rng.normal(size=(15, 4))
            assert lipschitz_lower(model, instances)[0] <= np.linalg.norm(w) + 1e-12

    def test_monotone_in_max_pairs(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        model = trained_models["mlp"]
        values = [lipschitz_lower(model, X_test, max_pairs=k, seed=5)[0]
                  for k in (20, 50, 100)]
        assert values[0] <= values[1] <= values[2]

    def test_identical_instances_rejected(self):
        model = LinearStub([1.0])
        with pytest.raises(AllInstancesIdentical):
            lipschitz_lower(model, np.ones((4, 1)))

    @pytest.mark.parametrize("n, max_pairs, seed",
                             [(5, 9, 0), (12, 30, 3), (40, 300, 7), (40, 779, 1)])
    def test_sampled_pairs_are_the_streams_first_distinct_pairs(self, n, max_pairs,
                                                                seed):
        rng = np.random.default_rng(n + seed)
        X = rng.normal(size=(n, 3))
        X[rng.integers(0, n, size=n // 3)] = X[0]  # repeated instances
        model = LinearStub(rng.normal(size=3))
        assert max_pairs < n * (n - 1) // 2
        assert lipschitz_lower(model, X, max_pairs=max_pairs, seed=seed) == \
            _reference_lipschitz(model, X, max_pairs, seed)


class TestSuites:
    def test_explanation_suite_fields(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 10, seed=0)
        (suite,) = explanation_metrics_suite(EXACT, trained_models["tree"],
                                             X_test[:4], bg, r=0.01, n_probes=2,
                                             K=3, seed=0)
        assert suite.explanation_error < 1e-9
        assert suite.sens_max >= 0.0
        assert suite.sens_radius == 0.01
        assert suite.morf_features_evaluated == 3
        assert np.isfinite(suite.auc_morf)

    def test_robustness_suite_fields(self, trained_models, blob_matrices):
        X_train, _, X_test, _ = blob_matrices
        suite = robustness_metrics_suite(trained_models["logreg"], X_test[:6],
                                         X_train, n_random_dirs=2,
                                         max_pairs=100, seed=0)
        assert all(d > 0 for d in suite.delta_adv)
        assert suite.mean_delta_adv is None or suite.mean_delta_adv > 0
        assert suite.lipschitz_lower >= 0.0
        assert suite.pairs_evaluated > 0

    def test_robustness_suite_labels_the_candidates_once(self, trained_models,
                                                         blob_matrices):
        X_train, _, X_test, _ = blob_matrices
        model = _CountingModel(trained_models["mlp"])
        batch_rows = []
        score = model.score
        model.score = lambda X: batch_rows.append(len(X)) or score(X)
        suite = robustness_metrics_suite(model, X_test[:4], X_train,
                                         n_random_dirs=2, seed=0)
        assert batch_rows.count(len(X_train)) == 1
        alone = [adversarial_robustness(trained_models["mlp"], x, X_train, 2,
                                        seed=derive_seed(0, "adv", i)).delta
                 for i, x in enumerate(X_test[:4])]
        assert suite.delta_adv == alone

    @pytest.mark.parametrize("n_random_dirs", [0, 3])
    def test_lockstep_suite_matches_the_oracle_in_one_call_per_step(
            self, n_random_dirs, trained_models, blob_matrices, monkeypatch):
        # every candidate is labelled 0: a label-0 instance has no candidate
        # direction, and a label-1 instance outside the candidates' box has
        # a larger cap than the others
        X_train, _, X_test, _ = blob_matrices
        model = trained_models["mlp"]
        label = lambda X: model.score(X) >= model.threshold
        candidates = X_train[~label(X_train)]
        ones, zeros = X_test[label(X_test)], X_test[~label(X_test)]
        far = ones[0] + 20.0 * (ones[0] - candidates.mean(axis=0))
        instances = np.vstack([ones[1:4], zeros[:1], far])
        assert label(instances).tolist() == [True, True, True, False, True]
        assert np.any((far > candidates.max(axis=0)) | (far < candidates.min(axis=0)))

        probes, probe_all = [], metrics._probe_all

        def recording(*args):
            found = probe_all(*args)
            probes.extend(found)
            return found

        counted = _CountingModel(model)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_probe_all", recording)
            suite = robustness_metrics_suite(counted, instances, candidates,
                                             n_random_dirs=n_random_dirs, seed=0)

        assert len(probes) == len(instances)
        steps, flipped = [], []
        for i, (x, probe) in enumerate(zip(instances, probes)):
            seed = derive_seed(0, "adv", i)
            alone = _CountingModel(model)
            with contextlib.suppress(NoFlipFound):
                adversarial_robustness(alone, x, candidates, n_random_dirs, seed,
                                       candidate_labels=label(candidates))
            steps.append(alone.calls - 1)  # all but its own label
            try:
                oracle = _reference_probe(model, x, candidates, n_random_dirs, seed)
            except NoFlipFound:
                assert probe is None
                continue
            assert probe.delta == oracle.delta
            assert np.array_equal(probe.witness, oracle.witness)
            flipped.append(probe.delta)
        if n_random_dirs == 0:
            assert probes[3] is None
        assert suite.delta_adv == flipped
        # the candidates' labels, the instances' labels, one call per step of
        # the longest search, and the Lipschitz scores
        assert counted.calls <= 3 + max(steps)

    def test_explanation_suite_explains_each_instance_once(self, trained_models,
                                                            blob_matrices):
        # one call per instance: x first, then its 2d axis points, 2 corners
        # and n_probes probes
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=0)
        calls = []

        def counting(model, x, background, seed=0):
            calls.append(np.array(x))
            return EXACT(model, x, background, seed=seed)

        n, d, n_probes = 3, X_test.shape[1], 2
        explanation_metrics_suite(counting, trained_models["logreg"], X_test[:n],
                                  bg, r=0.01, n_probes=n_probes, K=3, seed=4)
        assert len(calls) == n
        for x, batch in zip(X_test[:n], calls):
            assert batch.shape == (1 + 2 * d + 2 + n_probes, d)
            assert np.array_equal(batch[0], x)

    def test_explanation_suite_rows_scored(self, trained_models, blob_matrices):
        # one exact blackbox instance: x scores all 2^d coalitions, an axis
        # point the 2^(d-1) that hold its feature, a corner or a probe all
        # but the empty one, whose rows are the background rows x scored
        _, _, X_test, _ = blob_matrices
        b, n_probes, K = 8, 3, 3
        d = X_test.shape[1]
        model = _CountingModel(trained_models["mlp"])
        explanation_metrics_suite(EXACT, model, X_test[:1],
                                  sample_background(X_test, b, seed=0),
                                  r=0.01, n_probes=n_probes, K=K, seed=2)
        explained = b * (2**d + d * 2**d + (2 + n_probes) * (2**d - 1))
        # plus the instance's own score and its K+1 MoRF points
        assert model.rows == explained + 1 + (K + 1)
        assert model.max_rows == b * 2**d
        assert model.calls == 1 + (1 + 2 * d + 2 + n_probes) + 1

    @pytest.mark.parametrize("kind", ["blackbox", "basic_join"])
    def test_explanation_suite_matches_three_explanation_reference(
            self, kind, trained_stack, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=2)
        fn = build_explainer((kind,), mode="exact")
        args = dict(r=0.05, n_probes=3, K=3, seed=11)
        (got,) = explanation_metrics_suite(fn, trained_stack, X_test[:4], bg, **args)
        want = _three_explanation_suite(fn, trained_stack, X_test[:4], bg, **args)
        assert [float(v).hex() for v in astuple(got)] == \
            [float(v).hex() for v in astuple(want)]

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_one_suite_per_kind_from_a_joint_explainer(self, mode, trained_stack,
                                                       blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=2)
        kinds = ("blackbox", "basic_join")
        args = dict(r=0.05, n_probes=3, K=3, seed=11)
        got = explanation_metrics_suite(build_explainer(kinds, mode, n_samples=30),
                                        trained_stack, X_test[:3], bg, **args)
        want = [explanation_metrics_suite(build_explainer((kind,), mode, n_samples=30),
                                          trained_stack, X_test[:3], bg, **args)[0]
                for kind in kinds]
        assert got == want

    def test_recorded_sens_max_is_the_public_one(self, trained_stack, blob_matrices):
        # a sampled joint pass: each kind's recorded sens_max is the mean of
        # what sens_max returns for that kind alone at each instance's seed
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=2)
        kinds, instances = ("blackbox", "basic_join"), X_test[:3]
        r, n_probes, n_samples, seed = 0.05, 3, 30, 11
        suites = explanation_metrics_suite(
            build_explainer(kinds, "sampled", n_samples), trained_stack, instances,
            bg, r=r, n_probes=n_probes, K=3, seed=seed)
        for kind, suite in zip(kinds, suites):
            alone = build_explainer((kind,), "sampled", n_samples)
            want = np.mean([sens_max(alone, trained_stack, x, r, n_probes,
                                     derive_seed(seed, "sens", i), background=bg)
                            for i, x in enumerate(instances)])
            assert suite.sens_max > 0.0
            assert suite.sens_max == float(want)

    def test_robustness_suite_on_identical_instances(self):
        # no two instances differ: the bound is 0.0 over 0 pairs, not an error
        suite = robustness_metrics_suite(AxisThresholdStub(cut=0.5), np.full((3, 1), 0.2),
                                         np.array([[0.9], [0.1]]), n_random_dirs=2)
        assert suite.lipschitz_lower == 0.0 and suite.pairs_evaluated == 0
        assert suite.delta_adv == pytest.approx([0.3] * 3, abs=1e-5)

    def test_suites_schedule_independent(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=0)
        fn = build_explainer(("blackbox",), mode="sampled", n_samples=60)
        a = explanation_metrics_suite(fn, trained_models["mlp"], X_test[:3],
                                      bg, seed=7)
        b = explanation_metrics_suite(fn, trained_models["mlp"], X_test[:3],
                                      bg, seed=7)
        assert a == b


class _Recording:
    """Forwards score calls to a model and keeps a copy of every row."""

    def __init__(self, model, seen):
        self.model, self.seen = model, seen
        self.threshold = model.threshold
        self.input_dimension = model.input_dimension

    def score(self, X):
        self.seen.append(np.array(X))
        return self.model.score(X)


class TestPlayersInPerturbations:
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("kind", ["blackbox", "basic_join"])
    def test_no_invalid_onehot_row_reaches_a_model(
            self, kind, mode, categorical_data, categorical_stack):
        # value-function rows, sens_max candidates and MoRF points alike
        pipeline, X_train, _, X_test = categorical_data
        players, numeric = pipeline.players()
        seen = []
        stack = copy.copy(categorical_stack)
        stack.first_level = [_Recording(m, seen) for m in stack.first_level]
        bg = sample_background(X_train, 12, 0, players, numeric)
        fn = build_explainer((kind,), mode=mode, n_samples=40)
        explanation_metrics_suite(fn, stack, X_test[:3], bg, r=0.05,
                                  n_probes=3, K=6, seed=1)
        rows = np.vstack(seen)
        assert len(rows) > 1000
        for player in np.unique(players[~numeric]):
            columns = players == player
            valid = {tuple(block) for block in X_train[:, columns]}
            invalid = {tuple(block) for block in rows[:, columns]} - valid
            assert not invalid, f"player {player} saw blocks {sorted(invalid)}"

    def test_sens_candidates_move_numeric_columns_only(self, categorical_data):
        pipeline, X_train, _, X_test = categorical_data
        bg = sample_background(X_train, 8, 0, *pipeline.players())
        batches = []

        def recording(model, x, background, seed=0):
            batches.append(np.array(x))
            return EXACT(model, x, background, seed=seed)

        model = LinearStub(np.linspace(-1.0, 1.0, X_test.shape[1]))
        explanation_metrics_suite(recording, model, X_test[:2], bg, r=0.05,
                                  n_probes=3, K=2, seed=0)
        d_num = int(bg.numeric.sum())
        for x, batch in zip(X_test[:2], batches):
            assert batch.shape == (1 + 2 * d_num + 2 + 3, X_test.shape[1])
            assert np.array_equal(batch[:, ~bg.numeric],
                                  np.tile(x[~bg.numeric], (len(batch), 1)))

    def test_no_numeric_column_means_no_candidate(self):
        model = LinearStub([1.0, 2.0, 3.0])
        bg = Background(np.eye(3), [0, 0, 0], [False, False, False])
        x = np.array([0.0, 1.0, 0.0])
        assert sens_max(EXACT, model, x, r=0.05, background=bg) == 0.0

    def test_suite_on_categorical_only_data(self):
        ds = generate_synthetic(SyntheticSpec(n=60, d_numeric=0, d_categorical=2),
                                seed=4)
        pipeline = fit_pipeline(ds, PipelineConfig())
        X = apply_pipeline(pipeline, ds)
        bg = sample_background(X, 10, 0, *pipeline.players())
        model = LinearStub(np.linspace(0.1, 0.6, X.shape[1]))
        (suite,) = explanation_metrics_suite(EXACT, model, X[:3], bg, r=0.05,
                                             n_probes=2, K=5, seed=0)
        assert suite.sens_max == 0.0
        assert suite.morf_features_evaluated == bg.n_players == 2
        assert suite.explanation_error < 1e-12

    def test_morf_removes_whole_players(self):
        rows = np.array([[0.0, 0, 1, 0],
                         [1.0, 0, 0, 1],
                         [5.0, 0, 1, 0]])
        bg = Background(rows, [0, 1, 1, 1], [True, False, False, False])
        seen = []
        x = np.array([3.0, 1.0, 0.0, 0.0])
        morf_curve(_Recording(LinearStub(np.ones(4)), seen), x, 2, bg,
                   order=np.array([1, 0]))
        assert seen[0].tolist() == [[3.0, 1, 0, 0], [3.0, 0, 1, 0], [2.0, 0, 1, 0]]
        with pytest.raises(KOutOfRange):
            morf_curve(LinearStub(np.ones(4)), x, 3, bg, order=np.array([1, 0]))
