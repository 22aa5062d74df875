"""Study configs for the benchmark workloads, each generated from a seed.

The seed becomes the study's ``master_seed``; nothing else about a workload
depends on it, so the same seed always yields the same config and inputs.
Every workload names its output directories relative to the directory the
benchmark passes as ``output_base``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# One line per workload: why it is in the benchmark (also listed in
# BENCHMARK.json).
WHY = {
    "case_study": "the shipped case study: exact Shapley over 8 one-hot "
                  "columns, identical slot models, serial; explanation "
                  "metrics, robustness and training dominate",
    "train_parallel": "numeric-only, balanced classes, 2000-epoch members, "
                      "different slot models, thread pool at 2 workers; "
                      "training and single-row robustness scoring "
                      "dominate, explanation is minor",
}


def _stack(*members, second="logreg", folds=5):
    return {"stack": {"first_level": list(members),
                      "second_level": {"kind": second}, "folds": folds}}


def case_study(seed: int) -> dict:
    """``configs/case_study.json`` as shipped, with ``master_seed`` = seed."""
    config = json.loads((REPO / "configs" / "case_study.json")
                        .read_text(encoding="utf-8"))
    config["master_seed"] = seed
    return config


def train_parallel(seed: int) -> dict:
    """Two numeric-only datasets, long-trained members, the study thread pool.

    The slots train different models, so nothing is shared between them;
    there are no categorical columns, so one-hot grouping has nothing to
    group. BLAS threads are deliberately left unpinned.

    The classes are balanced. The robustness search probes one direction
    per test row of the opposite predicted label, so with skewed classes an
    anomalous instance costs several times the search of a normal one, and
    the two or so instances a seed happens to pick set the study's work.
    """
    long_logreg = {"kind": "logreg", "hyper": {"epochs": 2000}}
    long_mlp = {"kind": "mlp", "hyper": {"epochs": 2000}}
    datasets = [
        {"type": "synthetic", "name": f"numeric_{i}", "n": 1200,
         "d_numeric": 6, "d_categorical": 0, "anomaly_fraction": 0.5,
         "class_separation": separation}
        for i, separation in enumerate((1.2, 1.8))
    ]
    return {
        "master_seed": seed,
        "datasets": datasets,
        "algorithm_a": {"name": "stack-logreg-mlp",
                        "model": _stack(long_logreg, long_mlp, folds=3),
                        "explainer": "blackbox", "background_size": 40},
        "algorithm_b": {"name": "stack-mlp-tree",
                        "model": _stack(long_mlp, {"kind": "tree"}, folds=2),
                        "explainer": "blackbox", "background_size": 40},
        "metrics": {"explain_instances": 2, "robustness_instances": 2},
        "output": {"store_root": "studies", "report_dir": "reports"},
        "workers": min(2, os.cpu_count() or 1),
    }


WORKLOADS = {"case_study": case_study, "train_parallel": train_parallel}
