"""Robustness: minimal adversarial perturbation and Lipschitz lower bound.

The adversarial search looks along candidate directions (toward
opposite-labeled training rows, plus seeded random rays searched outward
by doubling) and bisects each flip it finds; the result is an upper bound
on the true minimal perturbation. All directions of an instance advance
together, and the suite advances all its instances together: one ``score``
call per search step, however many instances it probes. The suite scores
its instances once, for both their labels and the Lipschitz bound.
The Lipschitz statistic is the max score-difference/input-distance ratio
over instance pairs, a lower bound on the true constant.

Run:  python3 demos/06_robustness_metrics.py
"""

import numpy as np

from gridbench import (
    PipelineConfig,
    SyntheticSpec,
    adversarial_robustness,
    apply_pipeline,
    fit_pipeline,
    generate_synthetic,
    lipschitz_lower,
    split,
    train,
)
from gridbench.metrics import robustness_metrics_suite

ds = generate_synthetic(SyntheticSpec(n=300, d_numeric=4, class_separation=1.5),
                        seed=8)
pair = split(ds, 0.7, seed=8)
pipeline = fit_pipeline(pair.train, PipelineConfig())
X_train = apply_pipeline(pipeline, pair.train)
X_test = apply_pipeline(pipeline, pair.test)

model = train("mlp", X_train, pair.train.labels, seed=8)

# Per-instance minimal found perturbation.
for i in range(3):
    probe = adversarial_robustness(model, X_test[i], X_train,
                                   n_random_dirs=4, seed=i)
    print(f"instance {i}: minimal found L2 perturbation = {probe.delta:.4f}")

# Dataset-level bound over seeded instance pairs.
bound, pairs = lipschitz_lower(model, X_test, max_pairs=2000, seed=0)
print(f"\nLipschitz lower bound over {pairs} test pairs: {bound:.4f}")

# Aggregate view used by study runs.
suite = robustness_metrics_suite(model, X_test[:10], X_train,
                                 n_random_dirs=4, max_pairs=2000, seed=0)
print("mean minimal perturbation:", np.round(suite.mean_delta_adv, 4))
print("pairs evaluated:", suite.pairs_evaluated)
