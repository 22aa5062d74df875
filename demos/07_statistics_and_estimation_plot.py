"""Cross-dataset statistics: Wilcoxon signed-rank, Cohen's d, BCa bootstrap,
and a Gardner-Altman estimation plot written as SVG.

The paired samples are two algorithms' metric values across datasets
(sample size = number of datasets). All tests are nonparametric; the
Wilcoxon p-value is exact for small samples.

Run:  python3 demos/07_statistics_and_estimation_plot.py
"""

from pathlib import Path

import numpy as np

from gridbench import compare
from gridbench.report import gardner_altman_svg

# Explanation-sensitivity values for two algorithms over eight datasets.
rng = np.random.default_rng(5)
sens_a = np.round(0.05 + 0.02 * rng.random(8), 4)
sens_b = np.round(sens_a - 0.008 + 0.01 * rng.random(8), 4)

result = compare("explanation_sensitivity", sens_a, sens_b,
                 level=0.95, n_resamples=5000, seed=7)
print("paired values (a):", sens_a)
print("paired values (b):", sens_b)
print(f"\nmean difference: {result.point_estimate:+.4f}")
print(f"wilcoxon: W={result.wilcoxon.statistic} "
      f"p={result.wilcoxon.p_value:.4f} ({result.wilcoxon.method})")
print(f"cohen's d: {result.cohens_d:+.3f} ({result.effect_label})")
ci = result.bootstrap_ci
print(f"95% bootstrap CI: [{ci.low:+.4f}, {ci.high:+.4f}] ({ci.method})")

# The estimation plot shows both swarms on a shared value axis and the mean
# difference with its CI on a separate difference axis. It is drawn from the
# comparison document a study record stores (the result plus both value
# lists); algorithm_a is the blackbox ensemble and algorithm_b the basic join.
# Rendering is byte-deterministic in the document and the jitter seed.
comparison = result.to_dict()
comparison["a_values"] = sens_a.tolist()
comparison["b_values"] = sens_b.tolist()
out = Path("reports")
out.mkdir(exist_ok=True)
path = out / "demo_estimation_plot.svg"
path.write_text(gardner_altman_svg(comparison, jitter_seed=13), encoding="utf-8")
print(f"\nwrote {path}")
