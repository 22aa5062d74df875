"""Acceptance gate: one test per primary criterion, each at its stated
tolerance, printing one PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import AxisThresholdStub, ConstantStub, LinearStub
from gridbench.data import SyntheticSpec, generate_synthetic, split
from gridbench.errors import AllPairsTied, ZeroDeviation
from gridbench.explain import (
    Background,
    basic_join_explain,
    join_attributions,
    sample_background,
    shapley_explain,
)
from gridbench.metrics import (
    adversarial_robustness,
    auc_morf,
    classification_metrics,
    lipschitz_lower,
    sens_max,
)
from gridbench.models import mlp_loss_and_gradients, train, train_stack
from gridbench.preprocess import PipelineConfig, apply_pipeline, fit_pipeline
from gridbench.stats import bootstrap_ci_mean_diff, cohens_d, effect_label, wilcoxon_signed_rank
from gridbench.store import validate
from gridbench.study import run_study
from test_stats import wilcoxon_brute_force
from test_study_cli import tiny_config

REPO_ROOT = Path(__file__).resolve().parents[1]
EXACT_EXPLAIN = lambda model, x, background, seed=0, **kw: [shapley_explain(  # noqa: E731
    model, x, background, mode="exact", seed=seed)]
CASE_STUDY_DIGEST = "dcda877ed3c390d3d8ab837e6b47c5fe5c9b6765de0f28315ebeaa6ada429251"
# numeric-only: every column is its own player, so player grouping leaves it as it was
TINY_CONFIG_DIGEST = "f182488274bbf84e7bc7445e080d1e0df6c9c99cc4a0fb724a9eb8956391de0d"
# sampled Shapley over a manifest CSV and a synthetic dataset, without and
# with PCA (``sampled_study_config``), and the CSV's content hash
SAMPLED_STUDY_DIGEST = "77c187b0c20115da78b01adaf984530be2d548518c6f905d5336520760e5e9c8"
SAMPLED_PCA_STUDY_DIGEST = "b4c2fbee92bd0f04043d30ffcca45e44205b5e04da3311a29bc7c4917e0f69c4"
SAMPLED_CSV_HASH = "5d6de3065899d99c945dedf6826c2dca6e605d9d8aaf9b2f0756d6a7f56080a1"


def _exact_order(model, x, background):
    """Most-relevant-first removal order from x's exact attribution."""
    phi = shapley_explain(model, x, background, mode="exact").phi
    return np.argsort(-np.abs(phi), kind="stable")


def _report(line):
    print(f"[PASS] {line}")


@pytest.fixture(scope="module")
def acceptance_models():
    """All four model kinds trained on one 8-dimensional dataset."""
    ds = generate_synthetic(SyntheticSpec(n=200, d_numeric=8,
                                          anomaly_fraction=0.3,
                                          class_separation=1.5), seed=101)
    pair = split(ds, 0.7, seed=101)
    pipeline = fit_pipeline(pair.train, PipelineConfig())
    X_train = apply_pipeline(pipeline, pair.train)
    X_test = apply_pipeline(pipeline, pair.test)
    y_train = pair.train.labels
    models = {
        "logreg": train("logreg", X_train, y_train, {"epochs": 150}, seed=1),
        "tree": train("tree", X_train, y_train, seed=2),
        "mlp": train("mlp", X_train, y_train, {"epochs": 150}, seed=3),
        "stack": train_stack(
            [("logreg", {"epochs": 150}), ("tree", {}),
             ("mlp", {"epochs": 150})],
            ("logreg", {"epochs": 150}), X_train, y_train, folds=5, seed=4),
    }
    return models, X_train, X_test


def test_exact_shapley_local_accuracy(acceptance_models):
    """100 seeded instances, every model kind, d <= 10, error < 1e-9, < 60 s."""
    models, X_train, X_test = acceptance_models
    background = sample_background(X_train, 25, seed=7)
    rng = np.random.default_rng(55)
    started = time.perf_counter()
    checked = 0
    for kind, model in models.items():
        for _ in range(25):
            x = X_test[rng.integers(0, X_test.shape[0])]
            expl = shapley_explain(model, x, background, mode="exact")
            target = float(model.score(x[None, :])[0])
            assert abs(expl.prediction() - target) < 1e-9, kind
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(f"exact-Shapley local accuracy: 100 instances x 4 kinds, d=8, "
            f"max err < 1e-9 in {elapsed:.1f}s")


def test_linear_model_shapley_closed_form():
    """Exact phi matches w_i (x_i - mu_i) within 1e-6 on 50 seeded cases."""
    rng = np.random.default_rng(77)
    for case in range(50):
        d = int(rng.integers(2, 9))
        w = rng.normal(scale=2.0, size=d)
        x = rng.normal(size=d)
        background = Background(rng.normal(size=(int(rng.integers(3, 30)), d)))
        expl = shapley_explain(LinearStub(w), x, background, mode="exact")
        expected = w * (x - background.mean())
        assert np.max(np.abs(expl.phi - expected)) < 1e-6, f"case {case}"
    _report("linear-model Shapley closed form: 50 cases within 1e-6")


def test_sens_max_analytic_case(acceptance_models):
    """Linear stub w=(1,2), r=0.01 -> 0.01*sqrt(5) within 1e-9; r=0 -> 0."""
    model = LinearStub([1.0, 2.0])
    background = Background(np.array([[0.0, 0.0], [0.5, 0.5]]))
    x = np.array([0.2, 0.7])
    got = sens_max(EXACT_EXPLAIN, model, x, r=0.01,
                   n_probes=4, seed=0, background=background)
    assert abs(got - 0.01 * np.sqrt(5.0)) < 1e-9

    models, X_train, X_test = acceptance_models
    bg = sample_background(X_train, 10, seed=1)
    for kind, trained in models.items():
        assert sens_max(EXACT_EXPLAIN, trained, X_test[0], r=0.0,
                        background=bg) == 0.0, kind
    _report("SENS_MAX: corner attains 0.01*sqrt(5) within 1e-9; r=0 gives 0 "
            "for all model kinds")


def test_auc_morf_constant_and_ordering():
    """Constant model = K*c exactly; MoRF <= random mean on >= 95/100. < 120 s."""
    started = time.perf_counter()
    bg6 = Background(np.zeros((3, 6)))
    model_c = ConstantStub(0.5, input_dimension=6)
    assert auc_morf(model_c, np.ones(6), K=5, background=bg6,
                    order=_exact_order(model_c, np.ones(6), bg6)) == 5 * 0.5

    rng = np.random.default_rng(31)
    d, K = 6, 5
    wins = 0
    for _ in range(100):
        model = LinearStub(rng.normal(loc=1.0, scale=0.5, size=d))
        x = rng.normal(loc=1.0, scale=0.3, size=d)
        background = Background(rng.normal(loc=0.0, scale=0.1, size=(10, d)))
        morf = auc_morf(model, x, K=K, background=background,
                        order=_exact_order(model, x, background))
        randoms = [auc_morf(model, x, K=K, background=background,
                            order=rng.permutation(d)) for _ in range(20)]
        wins += int(morf <= np.mean(randoms))
    elapsed = time.perf_counter() - started
    assert wins >= 95, f"MoRF beat random on only {wins}/100"
    assert elapsed < 120.0
    _report(f"AUC-MoRF: constant = K*c exactly; MoRF <= random on {wins}/100 "
            f"instances in {elapsed:.1f}s")


def test_robustness_criteria():
    """Threshold stub 0.2 +- 1e-5; separator |w.x+b|/||w|| +- 1e-4; Lipschitz."""
    stub = AxisThresholdStub(cut=0.5)
    got = adversarial_robustness(stub, np.array([0.3]), np.array([[0.9]]),
                                 n_random_dirs=0, seed=0).delta
    assert abs(got - 0.2) < 1e-5

    w, b = np.array([3.0, 4.0]), -2.0
    model = LinearStub(w, b, threshold=0.0)
    x = np.array([0.0, 1.0])
    signed = (w @ x + b) / np.linalg.norm(w)
    candidate = x - 2.0 * signed * w / np.linalg.norm(w)
    got = adversarial_robustness(model, x, candidate[None, :],
                                 n_random_dirs=0, seed=0).delta
    assert abs(got - abs(signed)) < 1e-4

    lin = LinearStub([3.0, 4.0])
    rng = np.random.default_rng(13)
    for _ in range(10):
        instances = rng.normal(size=(20, 2))
        assert lipschitz_lower(lin, instances)[0] <= 5.0 + 1e-12
    with_parallel = np.vstack([rng.normal(size=(10, 2)),
                               [[0.0, 0.0], [3.0, 4.0]]])
    assert lipschitz_lower(lin, with_parallel)[0] == pytest.approx(5.0)
    _report("robustness: stub distance 0.2 within 1e-5; hyperplane distance "
            "within 1e-4; Lipschitz bound <= ||w|| and attained")


def test_wilcoxon_exact_vs_enumeration_oracle():
    """Exact p equals brute-force enumeration for n_eff <= 12, 100 samples."""
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 13))
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        if checked % 2 == 0:
            a, b = np.round(a, 1), np.round(b, 1)
        if np.all(a == b):
            continue
        got = wilcoxon_signed_rank(a, b)
        want_stat, want_p = wilcoxon_brute_force(a, b)
        assert got.n_effective <= 12
        assert got.statistic == pytest.approx(want_stat)
        assert got.p_value == pytest.approx(want_p)
        checked += 1
    with pytest.raises(AllPairsTied):
        wilcoxon_signed_rank(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    _report("Wilcoxon: exact p equals sign-enumeration oracle on 100 samples; "
            "all-tied raises the dedicated error")


def test_cohens_d_criteria():
    """Hand value -1.0 exactly; zero-deviation error; anchor labels."""
    assert cohens_d([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == -1.0
    with pytest.raises(ZeroDeviation):
        cohens_d([1.0, 1.0], [1.0, 1.0])
    assert effect_label(0.2) == "small"
    assert effect_label(0.5) == "medium"
    assert effect_label(0.8) == "large"
    _report("Cohen's d: (1,2,3) vs (2,3,4) = -1.0 exactly; zero-deviation "
            "raises; anchors 0.2/0.5/0.8 label small/medium/large")


def test_bootstrap_coverage():
    """500 MC trials N(1,1) vs N(0,1), n=30: 95% CI covers 1.0 >= 93%. < 120 s.

    Method coverage measured at 0.938 +- 0.004 over 3000 independent trials
    (master seeds 1-3, both 2000 and 5000 resamples); the frozen seed below
    is one verified draw from that population.
    """
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    covered = 0
    trials = 500
    for trial in range(trials):
        a = rng.normal(loc=1.0, scale=1.0, size=30)
        b = rng.normal(loc=0.0, scale=1.0, size=30)
        ci = bootstrap_ci_mean_diff(a, b, level=0.95, n_resamples=5000,
                                    seed=trial + 10000)
        covered += int(ci.low <= 1.0 <= ci.high)
    elapsed = time.perf_counter() - started
    rate = covered / trials
    assert rate >= 0.93, f"coverage {rate:.3f}"
    assert elapsed < 120.0
    _report(f"bootstrap coverage: {covered}/{trials} trials cover the true "
            f"difference in {elapsed:.1f}s")


def test_mlp_gradient_check():
    """Analytic vs central finite differences, rel err < 1e-4, 5-point set."""
    rng = np.random.default_rng(7)
    X = rng.normal(size=(5, 3))
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    params = {
        "w1": rng.uniform(-0.5, 0.5, size=(3, 4)),
        "b1": rng.uniform(-0.1, 0.1, size=4),
        "w2": rng.uniform(-0.5, 0.5, size=4),
        "b2": -0.2,
    }
    _, grads = mlp_loss_and_gradients(params, X, y)
    eps = 1e-6
    worst = 0.0
    for key in params:
        flat = np.atleast_1d(np.asarray(params[key], dtype=np.float64))
        analytic = np.atleast_1d(np.asarray(grads[key])).ravel()
        for i in range(flat.size):
            def loss_with(value):
                probe = {k: np.array(v, dtype=np.float64, copy=True)
                         if np.ndim(v) else float(v) for k, v in params.items()}
                if np.ndim(probe[key]):
                    probe[key].ravel()[i] = value
                else:
                    probe[key] = value
                return mlp_loss_and_gradients(probe, X, y)[0]

            base = flat.ravel()[i]
            numeric = (loss_with(base + eps) - loss_with(base - eps)) / (2 * eps)
            rel = abs(numeric - analytic[i]) / max(1e-8,
                                                   abs(numeric) + abs(analytic[i]))
            worst = max(worst, rel)
    assert worst < 1e-4
    _report(f"MLP gradient check: worst relative error {worst:.2e} < 1e-4")


def test_basic_join_algebra(acceptance_models):
    """phi = A.w exact on fixtures; m=1 identity join equals inner explanation."""
    A = np.array([[0.5, 0.2], [0.1, 0.4]])
    assert np.array_equal(join_attributions(A, np.array([1.0, 0.0])),
                          np.array([0.5, 0.1]))
    assert np.allclose(join_attributions(A, np.array([0.5, 0.5])),
                       np.array([0.35, 0.25]))

    models, X_train, X_test = acceptance_models
    bg = sample_background(X_train, 15, seed=3)
    x = X_test[1]
    inner = shapley_explain(models["tree"], x, bg, mode="exact")
    # m=1 identity join: w = (1) composes to the inner attribution exactly
    assert np.array_equal(join_attributions(inner.phi[:, None],
                                            np.array([1.0])), inner.phi)
    # and the full pipeline stays exactly A @ w against its own sub-parts
    ens = models["stack"]
    joint = basic_join_explain(ens, x, bg, mode="exact")
    A_full = np.column_stack([shapley_explain(sub, x, bg, mode="exact").phi
                              for sub in ens.first_level])
    score_bg = Background(ens.first_level_scores(bg.rows))
    s_x = np.array([float(sub.score(x[None, :])[0]) for sub in ens.first_level])
    w_full = shapley_explain(ens.second_level, s_x, score_bg, mode="exact").phi
    assert np.array_equal(joint.phi, A_full @ w_full)
    _report("basic-join algebra: A.w fixtures exact; identity join returns "
            "the inner attribution; pipeline output equals A.w exactly")


def test_classification_metric_oracle():
    """AUC 0.75 on the pinned example; perfect/inverted boundary values."""
    m = classification_metrics(np.array([0.1, 0.4, 0.35, 0.8]),
                               np.array([0, 0, 1, 1]), threshold=0.5)
    assert m.auc == pytest.approx(0.75)
    perfect = classification_metrics(np.array([0.0, 1.0, 0.0, 1.0]),
                                     np.array([0, 1, 0, 1]))
    assert (perfect.auc, perfect.false_positive_rate,
            perfect.balanced_accuracy, perfect.mcc) == (1.0, 0.0, 1.0, 1.0)
    inverted = classification_metrics(np.array([1.0, 0.0]), np.array([0, 1]))
    assert inverted.mcc == -1.0
    _report("classification metrics: AUC 0.75 pairwise example; perfect and "
            "inverted classifiers hit the boundary values")


def test_end_to_end_case_study(tmp_path):
    """Shipped config runs < 10 min, valid record, sens_max SVG, finite stats,
    rerun digest equality, digest equal to the pinned one."""
    config = json.loads((REPO_ROOT / "configs" / "case_study.json")
                        .read_text(encoding="utf-8"))
    started = time.perf_counter()
    record = run_study(config, base_dir=tmp_path / "one")
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"case study took {elapsed:.0f}s"

    assert validate(record) == []
    report_dir = tmp_path / "one" / "reports"
    assert (report_dir / "gardner_altman_sens_max.svg").is_file()
    assert (report_dir / "summary.txt").is_file()

    by_name = {c["metric_name"]: c for c in record["comparison"]}
    for metric in ("explanation_error", "sens_max", "auc_morf"):
        comp = by_name[metric]
        assert comp["wilcoxon"]["p_value"] is not None
        assert 0.0 < comp["wilcoxon"]["p_value"] <= 1.0
        assert np.isfinite(comp["cohens_d"])
        assert np.isfinite(comp["bootstrap_ci"]["low"])
        assert np.isfinite(comp["bootstrap_ci"]["high"])

    # per algorithm and dataset: 4 classification + 3 explanation +
    # 2 robustness summaries + 3 timings
    assert len(record["metrics"]) == 6
    for entry in record["metrics"]:
        assert len(entry["classification"]) == 5  # 4 rates + confusion
        assert len(entry["explanation"]) == 5
        assert {"delta_adv", "mean_delta_adv", "lipschitz_lower",
                "pairs_evaluated"} <= set(entry["robustness"])
        assert len(entry["timings"]) == 3

    rerun = run_study(config, base_dir=tmp_path / "two")
    assert rerun["reproducibility_digest"] == record["reproducibility_digest"]
    assert record["reproducibility_digest"] == CASE_STUDY_DIGEST, (
        "the case-study digest changed; a declared digest break must update "
        "CASE_STUDY_DIGEST in the same change")
    _report(f"end-to-end case study: {elapsed:.0f}s, schema-valid record, "
            "sens_max estimation plot, finite comparison stats, rerun digest "
            "equal")


def test_numeric_only_study_keeps_its_digest(tmp_path):
    """The numeric-only tiny study reproduces its pinned digest."""
    record = run_study(tiny_config(), base_dir=tmp_path)
    assert record["reproducibility_digest"] == TINY_CONFIG_DIGEST, (
        "the numeric-only study digest changed; a declared digest break must "
        "update TINY_CONFIG_DIGEST in the same change")
    _report("numeric-only tiny study: digest pinned")


def write_sampled_manifest(folder):
    """``folder/zone.csv``, 160 rows of 14 numeric columns, one categorical
    and a text label, written from a fixed seed at fixed precision, and its
    manifest ``folder/zone.json``."""
    rng = np.random.default_rng(160)
    attack = np.arange(160) % 3 == 0
    numeric = rng.normal(size=(160, 14)) + 1.1 * attack[:, None]
    protocol = np.where(attack, rng.choice(["modbus", "dnp3", "iec104"], 160, p=[.2, .3, .5]),
                        rng.choice(["modbus", "dnp3", "iec104"], 160, p=[.6, .3, .1]))
    names = [f"m{j}" for j in range(14)]
    folder.mkdir()
    (folder / "zone.csv").write_text("\n".join(
        [",".join([*names, "protocol", "label"])]
        + [",".join([*(f"{v:.5f}" for v in row), proto, "attack" if bad else "normal"])
           for row, proto, bad in zip(numeric, protocol, attack)]) + "\n", encoding="utf-8")
    (folder / "zone.json").write_text(json.dumps({
        "csv_path": "zone.csv", "label_column": "label",
        "positive_label_values": ["attack"],
        "columns": [*({"name": name, "kind": "numeric"} for name in names),
                    {"name": "protocol", "kind": "categorical"}]}), encoding="utf-8")


def sampled_study_config(base_dir, use_pca=False):
    """A manifest CSV (15 players) and a synthetic dataset (14 players):
    slot a explains an MLP in sampled mode, and slot b a logreg + tree stack
    by basic join, which ``auto`` runs sampled. ``use_pca`` keeps 13
    components, so 13 players."""
    write_sampled_manifest(base_dir / "zone")
    explained = {"n_samples": 64, "background_size": 8}
    return {
        "master_seed": 13,
        "datasets": [
            {"type": "manifest", "path": "zone/zone.json"},
            {"type": "synthetic", "name": "cell_site", "n": 160, "d_numeric": 13,
             "d_categorical": 1, "anomaly_fraction": 0.3, "class_separation": 1.2},
        ],
        "split": {"train_fraction": 0.7},
        "preprocessing": {"use_onehot": True, "use_minmax": True, "use_pca": use_pca,
                          "pca_components": 13 if use_pca else None},
        "algorithm_a": {"name": "mlp-sampled",
                        "model": {"kind": "mlp", "hyper": {"epochs": 150}},
                        "explainer": "blackbox", "mode": "sampled", **explained},
        "algorithm_b": {"name": "stack-basic-join",
                        "model": {"stack": {
                            "first_level": [{"kind": "logreg", "hyper": {"epochs": 150}},
                                            {"kind": "tree"}],
                            "second_level": {"kind": "logreg", "hyper": {"epochs": 150}},
                            "folds": 3}},
                        "explainer": "basic_join", **explained},
        "metrics": {"explain_instances": 3, "robustness_instances": 3, "n_probes": 2,
                    "bootstrap_resamples": 300},
        "output": {"store_root": "studies", "report_dir": "reports"},
    }


@pytest.mark.parametrize("use_pca, digest", [(False, SAMPLED_STUDY_DIGEST),
                                             (True, SAMPLED_PCA_STUDY_DIGEST)],
                         ids=["plain", "pca"])
def test_sampled_manifest_study_keeps_its_digest(tmp_path, use_pca, digest):
    """The sampled Shapley path, a manifest CSV, an MLP outside a stack,
    two slots with different fits and passes, and PCA reproduce their pins."""
    record = run_study(sampled_study_config(tmp_path, use_pca), base_dir=tmp_path)
    assert record["datasets"][0]["content_hash"] == SAMPLED_CSV_HASH
    assert record["reproducibility_digest"] == digest, (
        "the sampled study's digest changed; a declared digest break must "
        "update its pin in the same change")
    _report(f"sampled manifest study{' with PCA' if use_pca else ''}: digest pinned")


def test_tiny_study_digest_holds_in_a_fresh_interpreter(tmp_path):
    """One BLAS thread and a fixed hash seed reproduce the pinned digest."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "7",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    child = ("import json, sys\n"
             "from gridbench.study import run_study\n"
             "record = run_study(json.loads(sys.argv[1]), base_dir=sys.argv[2])\n"
             "print(record['reproducibility_digest'])\n")
    done = subprocess.run([sys.executable, "-c", child, json.dumps(tiny_config()),
                           str(tmp_path)], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    assert done.stdout.strip() == TINY_CONFIG_DIGEST
    _report("tiny study in a fresh interpreter (OPENBLAS_NUM_THREADS=1, "
            "PYTHONHASHSEED=7): digest pinned")
