"""Explanations: exact/sampled Shapley values and the basic-join composition.

The value function is marginal: absent players are imputed from a
background sample of training rows. A player is one dataset feature: a
numeric column, or a categorical feature's whole one-hot block, as
``FittedPipeline.players`` groups them. Exact mode enumerates all 2^G
coalitions of the G players (G <= 12) and satisfies local accuracy to
float precision; the basic join explains each first-level model, explains
the second level over the score vector, and composes them as A @ w.

Run:  python3 demos/04_shapley_and_basic_join.py
"""

import numpy as np

from gridbench import (
    PipelineConfig,
    SyntheticSpec,
    apply_pipeline,
    basic_join_explain,
    fit_pipeline,
    generate_synthetic,
    sample_background,
    shapley_explain,
    split,
    train_stack,
)

ds = generate_synthetic(SyntheticSpec(n=300, d_numeric=5, d_categorical=1,
                                      class_separation=1.5), seed=2)
pair = split(ds, 0.7, seed=2)
pipeline = fit_pipeline(pair.train, PipelineConfig())
X_train = apply_pipeline(pipeline, pair.train)
X_test = apply_pipeline(pipeline, pair.test)

ens = train_stack([("logreg", {}), ("tree", {}), ("mlp", {})], ("logreg", {}),
                  X_train, pair.train.labels, folds=5, seed=2)
# 5 numeric columns and one 3-column one-hot block: 8 columns, 6 players
players, numeric = pipeline.players()
print("player of each column:", players.tolist())
background = sample_background(X_train, 50, 9, players, numeric)
x = X_test[0]

# Whole-ensemble treatment: one Shapley explanation of the composite scorer.
blackbox = shapley_explain(ens, x, background, mode="exact")
print("blackbox phi:", np.round(blackbox.phi, 4))
print("base value:", round(blackbox.base_value, 4))
print("local accuracy |base + sum(phi) - score|:",
      abs(blackbox.prediction() - float(ens.score(x[None, :])[0])))

# Basic join: G x m matrix of first-level attributions times the
# second-level attribution vector.
joined = basic_join_explain(ens, x, background, mode="exact")
print("\nbasic-join phi:", np.round(joined.phi, 4))
print("top player (blackbox):", int(np.argmax(np.abs(blackbox.phi))))
print("top player (basic join):", int(np.argmax(np.abs(joined.phi))))

# Sampled mode for more players: seeded permutation sampling of players.
sampled = shapley_explain(ens, x, background, mode="sampled",
                          n_samples=2000, seed=4)
print("\nsampled-vs-exact mean abs deviation:",
      float(np.mean(np.abs(sampled.phi - blackbox.phi))))
