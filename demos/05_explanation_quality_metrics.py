"""Explanation quality: accuracy, stability, and degree of importance.

Three instance-level measures, averaged over a test subset:
  - explanation error: |(base + sum(phi)) - score(x)|
  - maximum sensitivity: largest attribution shift under inf-ball input
    perturbations of radius r (corner candidates + seeded probes)
  - area under the most-relevant-first perturbation curve: lower means the
    declared importance ranking is more faithful

Both explainer kinds come from one pass: each instance and its
perturbations are explained once, the stack's members scored once per
coalition, and the suite returns one set of measures per kind.

Run:  python3 demos/05_explanation_quality_metrics.py
"""

from gridbench import (
    PipelineConfig,
    SyntheticSpec,
    apply_pipeline,
    build_explainer,
    fit_pipeline,
    generate_synthetic,
    sample_background,
    split,
    train_stack,
)
from gridbench.metrics import explanation_metrics_suite

ds = generate_synthetic(SyntheticSpec(n=300, d_numeric=5, class_separation=1.5),
                        seed=6)
pair = split(ds, 0.7, seed=6)
pipeline = fit_pipeline(pair.train, PipelineConfig())
X_train = apply_pipeline(pipeline, pair.train)
X_test = apply_pipeline(pipeline, pair.test)

ens = train_stack([("logreg", {}), ("tree", {}), ("mlp", {})], ("logreg", {}),
                  X_train, pair.train.labels, folds=5, seed=6)
background = sample_background(X_train, size=40, seed=1)
instances = X_test[:8]

kinds = ("blackbox", "basic_join")
explain_fn = build_explainer(kinds, mode="exact")
suites = explanation_metrics_suite(explain_fn, ens, instances, background,
                                   r=0.01, n_probes=8, K=5, seed=3)
for kind, suite in zip(kinds, suites):
    print(f"{kind}:")
    print(f"  explanation error: {suite.explanation_error:.2e}")
    print(f"  max sensitivity (r={suite.sens_radius}): {suite.sens_max:.4f}")
    print(f"  perturbation-curve area (K={suite.morf_features_evaluated}): "
          f"{suite.auc_morf:.4f}")
