from math import factorial

import numpy as np
import pytest

from conftest import ConstantStub, LinearStub
from gridbench.errors import DimensionMismatch, ExactTooLarge
from gridbench.explain import (
    Background,
    Explanation,
    basic_join_explain,
    build_explainer,
    join_attributions,
    sample_background,
    shapley_explain,
)
from gridbench.data import SyntheticSpec, generate_synthetic, split
from gridbench.models import train, train_stack
from gridbench.preprocess import PipelineConfig, apply_pipeline, fit_pipeline


def _background_with_zero_mean(d=2):
    rows = np.vstack([np.eye(d), -np.eye(d)])
    return Background(rows)


class TestExactShapley:
    def test_constant_model_gets_zero_attribution(self):
        bg = _background_with_zero_mean(3)
        expl = shapley_explain(ConstantStub(0.7, input_dimension=3),
                               np.array([1.0, 2.0, 3.0]), bg, mode="exact")
        assert np.allclose(expl.phi, 0.0, atol=1e-12)
        assert expl.base_value == pytest.approx(0.7)

    def test_linear_model_closed_form(self):
        # oracle: for f(x) = w.x under the marginal value function,
        # phi_i = w_i * (x_i - mu_i) with mu the background mean
        bg = _background_with_zero_mean(2)
        model = LinearStub([2.0, -1.0])
        expl = shapley_explain(model, np.array([1.0, 1.0]), bg, mode="exact")
        assert np.allclose(expl.phi, [2.0, -1.0], atol=1e-12)
        assert expl.base_value == pytest.approx(0.0, abs=1e-12)

    def test_linear_closed_form_random_cases(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            w = rng.normal(size=d)
            x = rng.normal(size=d)
            bg = Background(rng.normal(size=(17, d)))
            expl = shapley_explain(LinearStub(w), x, bg, mode="exact")
            expected = w * (x - bg.mean())
            assert np.allclose(expl.phi, expected, atol=1e-9)

    def test_local_accuracy_many_instances(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 16, seed=0)
        rng = np.random.default_rng(9)
        for model in trained_models.values():
            for _ in range(10):
                x = X_test[rng.integers(0, X_test.shape[0])]
                expl = shapley_explain(model, x, bg, mode="exact")
                target = float(model.score(x[None, :])[0])
                assert abs(expl.prediction() - target) < 1e-9

    def test_symmetry_property(self):
        # model symmetric in features 0 and 1, instance with x0 == x1,
        # background symmetric under the same swap
        model = LinearStub([3.0, 3.0, -1.0])
        rows = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
        expl = shapley_explain(model, np.array([2.0, 2.0, 1.0]),
                               Background(rows), mode="exact")
        assert abs(expl.phi[0] - expl.phi[1]) < 1e-9

    def test_dummy_feature_gets_zero(self):
        model = LinearStub([1.5, 0.0, -2.0])
        rng = np.random.default_rng(3)
        bg = Background(rng.normal(size=(9, 3)))
        expl = shapley_explain(model, rng.normal(size=3), bg, mode="exact")
        assert abs(expl.phi[1]) < 1e-9

    def test_matches_permutation_definition_brute_force(self, blob_matrices):
        # independent oracle: average marginal contributions over all d!
        # orderings, with the same background-imputed value function
        import itertools
        import math

        X_train, y_train, _, _ = blob_matrices
        model = train("mlp", X_train, y_train, {"epochs": 100}, seed=1)
        bg = Background(X_train[:7])

        def v(S, x):
            z = bg.rows.copy()
            for i in S:
                z[:, i] = x[i]
            return float(model.score(z).mean())

        def brute_force(x):
            d = x.size
            phi = np.zeros(d)
            for perm in itertools.permutations(range(d)):
                coalition = []
                for i in perm:
                    before = v(coalition, x)
                    coalition.append(i)
                    phi[i] += v(coalition, x) - before
            return phi / math.factorial(d)

        rng = np.random.default_rng(9)
        for _ in range(3):
            x = X_train[rng.integers(0, X_train.shape[0])]
            mine = shapley_explain(model, x, bg, mode="exact").phi
            assert np.max(np.abs(mine - brute_force(x))) < 1e-9

    def test_exact_mode_dimension_cap(self):
        bg = Background(np.zeros((2, 13)))
        with pytest.raises(ExactTooLarge):
            shapley_explain(LinearStub(np.ones(13)), np.ones(13), bg,
                            mode="exact")

    def test_dimension_mismatch(self):
        bg = _background_with_zero_mean(2)
        with pytest.raises(DimensionMismatch):
            shapley_explain(LinearStub([1.0, 2.0]), np.ones(3), bg)
        with pytest.raises(DimensionMismatch):  # background of another width
            shapley_explain(LinearStub([1.0, 2.0, 3.0]), np.ones(3), bg)


class TestSampledShapley:
    def test_determinism_in_seed(self, trained_models, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 16, seed=0)
        model = trained_models["mlp"]
        a = shapley_explain(model, X_test[0], bg, mode="sampled",
                            n_samples=200, seed=42)
        b = shapley_explain(model, X_test[0], bg, mode="sampled",
                            n_samples=200, seed=42)
        assert np.array_equal(a.phi, b.phi)
        c = shapley_explain(model, X_test[0], bg, mode="sampled",
                            n_samples=200, seed=43)
        assert not np.array_equal(a.phi, c.phi)

    def test_convergence_to_exact(self, blob_matrices):
        # pinned: n_samples=2000 at d=8 stays within 0.02 mean absolute
        # deviation of the exact attribution over 20 seeded instances
        X_train, y_train, X_test, _ = blob_matrices
        rng = np.random.default_rng(12)
        d = 8
        pad = rng.normal(size=(X_train.shape[0], d - X_train.shape[1]))
        X8 = np.hstack([X_train, pad])
        model = train("mlp", X8, y_train, {"epochs": 150}, seed=1)
        bg = sample_background(X8, 25, seed=3)
        deviations = []
        for i in range(20):
            x = X8[rng.integers(0, X8.shape[0])]
            exact = shapley_explain(model, x, bg, mode="exact")
            sampled = shapley_explain(model, x, bg, mode="sampled",
                                      n_samples=2000, seed=100 + i)
            deviations.append(np.mean(np.abs(sampled.phi - exact.phi)))
        assert float(np.mean(deviations)) < 0.02


class TestBlackboxEnsemble:
    def test_constant_first_levels_give_zero(self):
        class ConstStack:
            input_dimension = 3
            threshold = 0.5

            def score(self, X):
                return np.full(np.asarray(X).shape[0], 0.4)

        bg = Background(np.zeros((4, 3)))
        expl = shapley_explain(ConstStack(), np.ones(3), bg, mode="exact")
        assert np.allclose(expl.phi, 0.0, atol=1e-12)

    def test_single_model_monotone_second_level_top_feature(self, blob_matrices):
        # derived empirically: a monotone second level mostly preserves the
        # top-attributed feature; assert top-1 agreement >= 80%
        X_train, y_train, X_test, _ = blob_matrices
        ens = train_stack([("logreg", {})], ("logreg", {}), X_train, y_train,
                          folds=5, seed=2)
        bg = sample_background(X_train, 20, seed=1)
        agree = 0
        for i in range(20):
            inner = shapley_explain(ens.first_level[0], X_test[i], bg,
                                    mode="exact")
            outer = shapley_explain(ens, X_test[i], bg, mode="exact")
            agree += int(np.argmax(np.abs(inner.phi))
                         == np.argmax(np.abs(outer.phi)))
        assert agree >= 16

    def test_determinism(self, trained_stack, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=0)
        a = shapley_explain(trained_stack, X_test[1], bg,
                            mode="sampled", n_samples=100, seed=5)
        b = shapley_explain(trained_stack, X_test[1], bg,
                            mode="sampled", n_samples=100, seed=5)
        assert np.array_equal(a.phi, b.phi)


class TestBasicJoin:
    def test_join_algebra_hand_fixtures(self):
        A = np.array([[0.5, 0.2], [0.1, 0.4]])
        assert np.allclose(join_attributions(A, np.array([1.0, 0.0])),
                           [0.5, 0.1])
        # by hand: (0.5*0.5 + 0.2*0.5, 0.1*0.5 + 0.4*0.5) = (0.25+0.10, 0.05+0.20)
        assert np.allclose(join_attributions(A, np.array([0.5, 0.5])),
                           [0.35, 0.25])

    def test_identity_join_returns_inner_column(self):
        A = np.array([[0.5], [0.1]])
        assert np.allclose(join_attributions(A, np.array([1.0])), A[:, 0])

    def test_join_linearity_of_full_pipeline(self, trained_stack, blob_matrices):
        # basic_join output must equal A @ w recomputed from its own
        # sub-explanations, exactly
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 12, seed=4)
        x = X_test[3]
        joint = basic_join_explain(trained_stack, x, bg, mode="exact")
        A = np.column_stack([
            shapley_explain(sub, x, bg, mode="exact").phi
            for sub in trained_stack.first_level])
        score_bg = Background(trained_stack.first_level_scores(bg.rows))
        s_x = np.array([float(sub.score(x[None, :])[0])
                        for sub in trained_stack.first_level])
        second = shapley_explain(trained_stack.second_level, s_x, score_bg,
                                 mode="exact")
        assert np.array_equal(joint.phi, A @ second.phi)
        assert joint.base_value == second.base_value

    def test_single_model_join_is_scaled_inner(self, blob_matrices):
        X_train, y_train, X_test, _ = blob_matrices
        ens = train_stack([("tree", {})], ("logreg", {}), X_train, y_train,
                          folds=5, seed=7)
        bg = sample_background(X_train, 10, seed=2)
        x = X_test[0]
        inner = shapley_explain(ens.first_level[0], x, bg, mode="exact")
        joint = basic_join_explain(ens, x, bg, mode="exact")
        score_bg = Background(ens.first_level_scores(bg.rows))
        s_x = np.array([float(ens.first_level[0].score(x[None, :])[0])])
        w = shapley_explain(ens.second_level, s_x, score_bg, mode="exact").phi
        assert np.allclose(joint.phi, inner.phi * w[0])

    def test_determinism(self, trained_stack, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=0)
        a = basic_join_explain(trained_stack, X_test[2], bg, mode="sampled",
                               n_samples=100, seed=9)
        b = basic_join_explain(trained_stack, X_test[2], bg, mode="sampled",
                               n_samples=100, seed=9)
        assert np.array_equal(a.phi, b.phi)


class TestBackgroundAndBuilder:
    def test_background_sampling_deterministic(self, blob_matrices):
        X_train, _, _, _ = blob_matrices
        a = sample_background(X_train, 10, seed=6)
        b = sample_background(X_train, 10, seed=6)
        assert np.array_equal(a.rows, b.rows)
        assert a.size == 10

    def test_small_source_keeps_all_rows(self):
        X = np.arange(6, dtype=np.float64).reshape(3, 2)
        assert sample_background(X, 100, seed=0).size == 3

    def test_build_explainer_kinds(self, trained_stack, blob_matrices):
        _, _, X_test, _ = blob_matrices
        bg = sample_background(X_test, 8, seed=0)
        for kind in ("blackbox", "basic_join"):
            fn = build_explainer((kind,), mode="exact")
            (expl,) = fn(trained_stack, X_test[0], bg, seed=0)
            assert expl.phi.shape == (X_test.shape[1],)
        for kinds in ("nope", ("nope",), "blackbox"):  # a bare kind is refused
            with pytest.raises(ValueError):
                build_explainer(kinds)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_no_instances_give_no_explanations(self, stacks, mode):
        ens, X = stacks[2]
        for kinds in (("blackbox",), ("basic_join",), ("blackbox", "basic_join")):
            explain = build_explainer(kinds, mode, n_samples=5)
            assert explain(ens, X[:0], Background(X[:4])) == [[]] * len(kinds)


# --- the per-point paths the batched engine replaced, kept as references ---

def _reference_exact(model, x, background):
    """Exact Shapley of one point: all 2^d coalitions scored in one call."""
    d = x.shape[0]
    n_masks = 1 << d
    bg = background.rows
    b = bg.shape[0]

    bits = ((np.arange(n_masks)[:, None] >> np.arange(d)[None, :]) & 1).astype(bool)
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
    return Explanation(phi=phi, base_value=float(v[0]))


def _reference_sampled(model, x, background, n_samples, seed):
    """Seeded permutation-sampling Shapley of one point."""
    d = x.shape[0]
    bg = background.rows
    rng = np.random.default_rng(seed)
    row_idx = rng.integers(0, bg.shape[0], size=n_samples)
    perms = rng.permuted(np.tile(np.arange(d), (n_samples, 1)), axis=1)
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


def _reference_basic_join(ens, x, background, explain_one):
    """Basic join of one point: each first-level model explained on its own."""
    A = np.column_stack([explain_one(sub, x, background).phi
                         for sub in ens.first_level])
    score_background = Background(ens.first_level_scores(background.rows))
    s_x = ens.first_level_scores(x[None, :])[0]
    second = explain_one(ens.second_level, s_x, score_background)
    return Explanation(phi=A @ second.phi, base_value=second.base_value)


def _reference(kind, model, points, background, explain_one):
    if kind == "blackbox":
        return [explain_one(model, x, background) for x in points]
    return [_reference_basic_join(model, x, background, explain_one)
            for x in points]


def _engine(kind, model, points, background, **kw):
    explain = shapley_explain if kind == "blackbox" else basic_join_explain
    return explain(model, points, background, **kw)


def _with_candidates(x, r=0.01, n_probes=3, seed=0):
    """x, its axis points, its two corners and seeded probes (as sens_max)."""
    d = x.shape[0]
    probes = x + np.random.default_rng(seed).uniform(-r, r, size=(n_probes, d))
    return np.vstack([x, x + r * np.eye(d), x - r * np.eye(d), x + r, x - r,
                      probes])


@pytest.fixture(scope="module")
def stacks():
    """A logreg/tree/mlp stack per input dimension, with its data."""
    out = {}
    for d in (1, 2, 3, 8):
        rng = np.random.default_rng(d)
        X = rng.uniform(size=(80, d))
        y = (X.sum(axis=1) + rng.normal(scale=0.2, size=80) > d / 2).astype(int)
        ens = train_stack([("logreg", {"epochs": 40}), ("tree", {}),
                           ("mlp", {"epochs": 40})],
                          ("logreg", {"epochs": 40}), X, y, folds=3, seed=d)
        out[d] = (ens, X)
    return out


class TestCoalitionEngine:
    @pytest.mark.parametrize("kind", ["blackbox", "basic_join"])
    @pytest.mark.parametrize("b", [1, 5, 40])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_exact_matches_per_point_reference(self, stacks, kind, d, b):
        ens, X = stacks[d]
        bg = Background(X[-b:])
        points = _with_candidates(X[0])
        got = _engine(kind, ens, points, bg, mode="exact")
        want = _reference(kind, ens, points, bg, _reference_exact)
        assert len(got) == len(points)
        for g, w in zip(got, want):
            assert np.max(np.abs(g.phi - w.phi)) <= 1e-12
            assert abs(g.base_value - w.base_value) <= 1e-12

    @pytest.mark.parametrize("kind", ["blackbox", "basic_join"])
    def test_exact_bitwise_at_case_study_shape(self, stacks, kind):
        ens, X = stacks[8]
        bg = Background(X[-40:])
        points = _with_candidates(X[0], n_probes=8)
        got = _engine(kind, ens, points, bg, mode="exact")
        want = _reference(kind, ens, points, bg, _reference_exact)
        for g, w in zip(got, want):
            assert g.phi.tobytes() == w.phi.tobytes()
            assert g.base_value == w.base_value

    @pytest.mark.parametrize("kind", ["blackbox", "basic_join"])
    def test_sampled_matches_per_point_reference(self, stacks, kind):
        ens, X = stacks[3]
        bg = Background(X[-10:])
        points = _with_candidates(X[0])
        got = _engine(kind, ens, points, bg, mode="sampled", n_samples=50,
                      seed=3)
        want = _reference(kind, ens, points, bg,
                          lambda m, x, bg: _reference_sampled(m, x, bg, 50, 3))
        for g, w in zip(got, want):
            assert g.phi.tobytes() == w.phi.tobytes()
            assert g.base_value == w.base_value

    def test_single_point_is_the_one_row_case(self, stacks):
        ens, X = stacks[3]
        bg = Background(X[-5:])
        for kind in ("blackbox", "basic_join"):
            one = _engine(kind, ens, X[1], bg, mode="exact")
            rows = _engine(kind, ens, X[1:2], bg, mode="exact")
            assert isinstance(one, Explanation)
            assert one.phi.tobytes() == rows[0].phi.tobytes()

    def test_candidate_scores_only_coalitions_it_changes(self):
        # an axis point shares every coalition without its feature with x;
        # a point equal to x shares all of them and scores nothing
        scored = []

        class Counting(LinearStub):
            def score(self, X):
                scored.append(len(X))
                return super().score(X)

        d, b = 3, 2
        x = np.array([0.1, 0.2, 0.3])
        points = np.vstack([x, x + 0.5 * np.eye(d)[1], x])
        shapley_explain(Counting(np.ones(d)), points, Background(np.zeros((b, d))),
                        mode="exact")
        assert scored == [b * 2**d, b * 2**(d - 1)]


class TestJointPass:
    @pytest.mark.parametrize("kinds", [("blackbox", "basic_join"),
                                       ("basic_join", "blackbox")])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_each_kind_equals_that_kind_alone(self, mode, kinds, categorical_data,
                                              categorical_stack):
        # one pass scores the members once; the stack's values come from the
        # second level over those scores, bit for bit what the stack scores
        pipeline, X_train, _, X_test = categorical_data
        bg = sample_background(X_train, 12, 0, *pipeline.players())
        joint = build_explainer(kinds, mode, n_samples=40)
        for x in (X_test[:5], X_test[6]):
            got = joint(categorical_stack, x, bg, seed=5)
            assert len(got) == len(kinds)
            for kind, explained in zip(kinds, got):
                (alone,) = build_explainer((kind,), mode, n_samples=40)(
                    categorical_stack, x, bg, seed=5)
                if isinstance(alone, Explanation):
                    explained, alone = [explained], [alone]
                assert len(explained) == len(alone)
                for g, w in zip(explained, alone):
                    assert np.array_equal(g.phi, w.phi)
                    assert np.array_equal(g.base_value, w.base_value)


def _grouped(rows, players, numeric=None):
    return Background(rows, np.array(players), numeric)


class TestPlayers:
    def test_background_defaults_to_one_numeric_player_per_column(self):
        bg = Background(np.zeros((2, 3)))
        assert bg.players.tolist() == [0, 1, 2]
        assert bg.numeric.tolist() == [True, True, True]
        assert bg.n_players == 3

    @pytest.mark.parametrize("players, numeric", [
        ([0, 2, 2], None),                 # player 1 missing
        ([0, 1], None),                    # one entry short
        ([0, 1, 1], [True, True, False]),  # a player half numeric
    ])
    def test_background_rejects_bad_grouping(self, players, numeric):
        with pytest.raises(ValueError):
            Background(np.zeros((2, 3)), players, numeric)

    def test_baseline_is_mean_and_most_frequent_block(self):
        rows = np.array([[0.0, 0, 1, 0, 1],
                         [1.0, 1, 0, 0, 0],
                         [2.0, 1, 0, 0, 1],
                         [5.0, 0, 1, 0, 0]])
        bg = _grouped(rows, [0, 1, 1, 1, 2], [True, False, False, False, True])
        # blocks (0,1,0) and (1,0,0) tie twice each: the first seen wins
        assert bg.baseline().tolist() == [2.0, 0.0, 1.0, 0.0, 0.5]
        assert np.array_equal(Background(rows).baseline(), rows.mean(axis=0))

    def test_grouped_linear_closed_form(self):
        # a player's attribution is its columns' w_c * (x_c - mu_c)
        rng = np.random.default_rng(1)
        w, x = rng.normal(size=5), rng.normal(size=5)
        bg = _grouped(rng.normal(size=(9, 5)), [0, 1, 1, 2, 2])
        phi = shapley_explain(LinearStub(w), x, bg, mode="exact").phi
        per_column = w * (x - bg.mean())
        assert np.allclose(phi, [per_column[0], per_column[1:3].sum(),
                                 per_column[3:].sum()], atol=1e-12)

    def test_grouped_exact_matches_permutation_definition(self, stacks):
        import itertools

        ens, X = stacks[8]
        players = [0, 0, 1, 2, 2, 2, 3, 4]
        bg = _grouped(X[-6:], players)
        owner = np.array(players)

        def v(S, x):
            held = np.isin(owner, list(S))
            return float(ens.score(np.where(held, x, bg.rows)).mean())

        x = X[0]
        phi = np.zeros(5)
        for perm in itertools.permutations(range(5)):
            for k, p in enumerate(perm):
                phi[p] += v(perm[:k + 1], x) - v(perm[:k], x)
        phi /= factorial(5)
        got = shapley_explain(ens, x, bg, mode="exact")
        assert np.max(np.abs(got.phi - phi)) < 1e-12
        assert abs(got.prediction() - float(ens.score(x[None, :])[0])) < 1e-12

    @pytest.mark.parametrize("kind", ["blackbox", "basic_join"])
    def test_grouped_rows_match_one_call_per_point(self, stacks, kind):
        # row reuse asks which players differ: a candidate that moves one
        # column of a player rescores every coalition holding that player
        ens, X = stacks[8]
        bg = _grouped(X[-40:], [0, 1, 2, 3, 4, 5, 5, 5],
                      [True] * 5 + [False] * 3)
        points = _with_candidates(X[0], n_probes=8)
        got = _engine(kind, ens, points, bg, mode="exact")
        for g, x in zip(got, points):
            want = _engine(kind, ens, x, bg, mode="exact")
            assert g.phi.tobytes() == want.phi.tobytes()
            assert g.base_value == want.base_value

    def test_grouped_sampling_switches_whole_players(self):
        # one background row: every permutation moves player p from bg to x
        w = np.array([1.0, -2.0, 0.5, 3.0])
        bg = _grouped(np.array([[0.2, 0.1, 0.4, 0.3]]), [0, 1, 1, 2])
        x = np.array([1.0, 1.0, 0.0, 0.0])
        got = shapley_explain(LinearStub(w), x, bg, mode="sampled", n_samples=7)
        shift = w * (x - bg.rows[0])
        assert np.allclose(got.phi, [shift[0], shift[1] + shift[2], shift[3]],
                           atol=1e-12)

    def test_players_not_columns_decide_exact_mode(self):
        # 4 numeric + 2 six-category features: 16 columns, 6 players
        spec = SyntheticSpec(n=300, d_numeric=4, d_categorical=2,
                             categories_per_feature=6, class_separation=1.0)
        pair = split(generate_synthetic(spec, seed=2), 0.7, seed=2)
        pipeline = fit_pipeline(pair.train, PipelineConfig())
        X = apply_pipeline(pipeline, pair.train)
        assert X.shape[1] == 16
        model = train("mlp", X, pair.train.labels, {"epochs": 60}, seed=1)
        rows = []

        class Recording:
            input_dimension = 16

            def score(self, Z):
                rows.append(len(Z))
                return model.score(Z)

        bg = sample_background(X, 10, 0, *pipeline.players())
        for x in X[:3]:
            expl = shapley_explain(Recording(), x, bg, mode="auto")
            assert abs(expl.prediction() - float(model.score(x[None, :])[0])) <= 1e-9
        assert rows == [10 * 2**6] * 3  # every coalition of 6 players, once
