"""Study orchestration: config validation, execution, record assembly, reports.

A study config is one JSON document (see ``validate_config``). Execution is
all-or-nothing: every dataset/algorithm cell is computed in memory and the
record is saved only when the whole study succeeded. Every random choice
derives from the master seed via ``seeding.derive_seed``. Datasets are
evaluated one after another on the calling thread, so recorded timings are
not inflated by other threads competing for the CPU.

Model-training seeds are labeled with a digest of the model spec rather
than the algorithm slot. Two slots configured with the same model share
one fit per dataset, with its test scores, classification metrics,
robustness metrics and timings, which isolates explainer differences
exactly as in a same-ensembles case study.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .canonical import canonical_json, sha256_hex
from .data import Dataset, SyntheticSpec, generate_synthetic, load_csv, split
from .errors import InvalidConfig
from .explain import build_explainer, sample_background
from .metrics import (
    classification_metrics,
    explanation_metrics_suite,
    robustness_metrics_suite,
)
from .models import DEFAULT_HYPERPARAMETERS, train, train_stack
from .preprocess import PipelineConfig, apply_pipeline, fit_pipeline
from .report import EstimationPlotSpec, gardner_altman_svg, text_summary
from .seeding import derive_seed
from .stats import compare
from .store import (
    COMPARED_METRICS,
    LD_CONTEXT,
    SCHEMA_VERSION,
    DocumentStore,
    capture_environment,
    new_study_id,
    reproducibility_digest,
    utc_timestamp,
)

METRICS_DEFAULTS = {
    "statistics": True,
    "sens_radius": 0.01,
    "morf_k": 5,
    "n_probes": 8,
    "explain_instances": 12,
    "robustness_instances": 8,
    "n_random_dirs": 4,
    "lipschitz_max_pairs": 2000,
    "bootstrap_resamples": 5000,
    "confidence_level": 0.95,
}

# Smallest value each count or radius can take; confidence_level is in (0, 1).
METRICS_MINIMA = {
    "sens_radius": 0,
    "morf_k": 1,
    "n_probes": 0,
    "explain_instances": 1,
    "robustness_instances": 2,
    "n_random_dirs": 0,
    "lipschitz_max_pairs": 1,
    "bootstrap_resamples": 1,
}

EXPLAINER_DEFAULTS = {"mode": "auto", "n_samples": 2000, "background_size": 50}


def _require(condition: bool, message: str):
    if not condition:
        raise InvalidConfig(message)


def _require_keys(obj: dict, allowed, where: str):
    for key in obj:
        _require(key in allowed, f"unknown {where} key {key!r}")


def _require_member(member, where: str):
    """One model spec: a known ``kind`` and ``hyper`` keys of that kind."""
    _require(isinstance(member, dict) and member.get("kind") in DEFAULT_HYPERPARAMETERS,
             f"{where}.kind must be one of logreg/tree/mlp")
    _require_keys(member, ("kind", "hyper"), where)
    hyper = member.get("hyper", {})
    _require(isinstance(hyper, dict), f"{where}.hyper must be an object")
    _require_keys(hyper, DEFAULT_HYPERPARAMETERS[member["kind"]], f"{where}.hyper")


def _require_count(value, minimum: int, where: str):
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
             f"{where} must be an integer >= {minimum}, got {value!r}")


def validate_config(config: dict) -> dict:
    """Check and normalize a study config; raises InvalidConfig before any work."""
    _require(isinstance(config, dict), "config must be a JSON object")
    _require(isinstance(config.get("master_seed"), int), "master_seed must be an integer")

    datasets = config.get("datasets")
    _require(isinstance(datasets, list) and len(datasets) >= 1,
             "datasets must be a non-empty list")
    names = []
    norm_datasets = []
    for i, entry in enumerate(datasets):
        _require(isinstance(entry, dict), f"datasets[{i}] must be an object")
        kind = entry.get("type")
        _require(kind in ("synthetic", "manifest"),
                 f"datasets[{i}].type must be 'synthetic' or 'manifest'")
        if kind == "synthetic":
            spec = {k: v for k, v in entry.items() if k != "type"}
            spec.setdefault("name", f"synthetic_{i}")
            try:
                SyntheticSpec(**spec).validate()
            except TypeError as exc:
                raise InvalidConfig(f"datasets[{i}]: {exc}") from exc
            norm_datasets.append({"type": "synthetic", **spec})
            names.append(spec["name"])
        else:
            _require(isinstance(entry.get("path"), str),
                     f"datasets[{i}].path must be a manifest path")
            norm_datasets.append(dict(entry))
            names.append(entry.get("name", entry["path"]))
    _require(len(set(names)) == len(names), "dataset names must be unique")

    split_cfg = dict(config.get("split", {}))
    _require_keys(split_cfg, ("train_fraction",), "split")
    fraction = split_cfg.setdefault("train_fraction", 0.7)
    _require(isinstance(fraction, (int, float)) and 0 < fraction < 1,
             "split.train_fraction must be in (0, 1)")

    try:
        prep = PipelineConfig(**config.get("preprocessing", {}))
    except TypeError as exc:
        raise InvalidConfig(f"preprocessing: {exc}") from exc
    if prep.use_pca:
        _require(isinstance(prep.pca_components, int) and prep.pca_components >= 1,
                 "preprocessing.pca_components must be >= 1 when use_pca is set")

    algorithms = {}
    for slot in ("algorithm_a", "algorithm_b"):
        algo = config.get(slot)
        _require(isinstance(algo, dict), f"{slot} must be an object")
        _require_keys(algo, ("name", "model", "explainer", *EXPLAINER_DEFAULTS), slot)
        algo = dict(algo)
        algo.setdefault("name", slot)
        model = algo.get("model")
        _require(isinstance(model, dict), f"{slot}.model must be an object")
        is_stack = "stack" in model
        if is_stack:
            _require_keys(model, ("stack",), f"{slot}.model")
            stack = model["stack"]
            _require(isinstance(stack, dict), f"{slot}.model.stack must be an object")
            _require_keys(stack, ("first_level", "second_level", "folds"),
                          f"{slot}.model.stack")
            _require(isinstance(stack.get("first_level"), list) and stack["first_level"],
                     f"{slot}.model.stack.first_level must be a non-empty list")
            for i, m in enumerate(stack["first_level"]):
                _require_member(m, f"{slot}.model.stack.first_level[{i}]")
            _require_member(stack.get("second_level"), f"{slot}.model.stack.second_level")
            _require_count(stack.get("folds", 5), 2, f"{slot}.model.stack.folds")
        else:
            _require_member(model, f"{slot}.model")
        explainer = algo.setdefault("explainer", "blackbox")
        _require(explainer in ("blackbox", "basic_join"),
                 f"{slot}.explainer must be 'blackbox' or 'basic_join'")
        _require(not (explainer == "basic_join" and not is_stack),
                 f"{slot}: basic_join needs a stacked model")
        for key, default in EXPLAINER_DEFAULTS.items():
            algo.setdefault(key, default)
        _require(algo["mode"] in ("auto", "exact", "sampled"),
                 f"{slot}.mode must be 'auto', 'exact' or 'sampled'")
        _require_count(algo["n_samples"], 1, f"{slot}.n_samples")
        _require_count(algo["background_size"], 1, f"{slot}.background_size")
        algorithms[slot] = algo

    metrics = dict(METRICS_DEFAULTS)
    user_metrics = config.get("metrics", {})
    _require(isinstance(user_metrics, dict), "metrics must be an object")
    for key, value in user_metrics.items():
        _require(key in METRICS_DEFAULTS, f"unknown metrics key {key!r}")
        default = METRICS_DEFAULTS[key]
        types = (int, float) if isinstance(default, float) else type(default)
        _require(isinstance(value, types)
                 and isinstance(value, bool) == isinstance(default, bool),
                 f"metrics.{key} must be of the type of its default "
                 f"{default!r}, got {value!r}")
    metrics.update(user_metrics)
    for key, minimum in METRICS_MINIMA.items():
        _require(metrics[key] >= minimum,
                 f"metrics.{key} must be >= {minimum}, got {metrics[key]!r}")
    _require(0 < metrics["confidence_level"] < 1,
             f"metrics.confidence_level must be in (0, 1), "
             f"got {metrics['confidence_level']!r}")
    if metrics["statistics"]:
        _require(len(norm_datasets) >= 2,
                 "statistics need >= 2 datasets (set metrics.statistics=false "
                 "for single-dataset runs)")

    output = dict(config.get("output", {}))
    _require_keys(output, ("store_root", "report_dir"), "output")
    output.setdefault("store_root", "studies")
    output.setdefault("report_dir", "reports")

    return {
        "master_seed": config["master_seed"],
        "datasets": norm_datasets,
        "split": split_cfg,
        "preprocessing": asdict(prep),
        "algorithm_a": algorithms["algorithm_a"],
        "algorithm_b": algorithms["algorithm_b"],
        "metrics": metrics,
        "output": output,
    }


def _model_digest(model_spec: dict) -> str:
    return sha256_hex(canonical_json(model_spec))[:16]


def _build_dataset(entry: dict, index: int, master_seed: int,
                   base_dir: Path) -> Dataset:
    if entry["type"] == "synthetic":
        spec = SyntheticSpec(**{k: v for k, v in entry.items() if k != "type"})
        return generate_synthetic(spec, derive_seed(master_seed, "dataset", index))
    path = Path(entry["path"])
    if not path.is_absolute():
        path = base_dir / path
    return load_csv(path)


def _train_algorithm(model_spec: dict, X, y, seed: int):
    if "stack" in model_spec:
        stack = model_spec["stack"]
        first = [(m["kind"], m.get("hyper", {})) for m in stack["first_level"]]
        second = (stack["second_level"]["kind"], stack["second_level"].get("hyper", {}))
        return train_stack(first, second, X, y, folds=stack.get("folds", 5), seed=seed)
    return train(model_spec["kind"], X, y, model_spec.get("hyper", {}), seed=seed)


@contextmanager
def _noted(note: str):
    """Add ``note`` to any exception raised in the block (Python 3.11+)."""
    try:
        yield
    except Exception as exc:
        if hasattr(exc, "add_note"):
            exc.add_note(note)
        raise


def _evaluate_dataset(index: int, entry: dict, config: dict, base_dir: Path) -> dict:
    master = config["master_seed"]
    ds = _build_dataset(entry, index, master, base_dir)
    pair = split(ds, config["split"]["train_fraction"],
                 derive_seed(master, "split", index))

    pipeline = fit_pipeline(pair.train, PipelineConfig(**config["preprocessing"]))
    X_train = apply_pipeline(pipeline, pair.train)
    X_test = apply_pipeline(pipeline, pair.test)
    y_train, y_test = pair.train.labels, pair.test.labels
    players, numeric = pipeline.players()

    mcfg = config["metrics"]
    rng_pick = np.random.default_rng(derive_seed(master, "instances", index))
    n_explain = min(mcfg["explain_instances"], X_test.shape[0])
    explain_rows = np.sort(rng_pick.choice(X_test.shape[0], n_explain, replace=False))
    n_robust = min(mcfg["robustness_instances"], X_test.shape[0])
    robust_rows = np.sort(rng_pick.choice(X_test.shape[0], n_robust, replace=False))

    result = {
        "dataset": {
            "name": ds.name,
            "content_hash": ds.content_hash,
            "purdue_level": ds.purdue_level,
            "split_seed": pair.split_seed,
            "train_fraction": pair.train_fraction,
            "synthetic_spec": ds.metadata.get("synthetic_spec"),
            "n_rows": ds.n_rows,
            "n_train": pair.train.n_rows,
            "n_test": pair.test.n_rows,
            "dropped_rows": int(ds.metadata.get("dropped_rows", 0)),
            "train_content_hash": pair.train.content_hash,
            "test_content_hash": pair.test.content_hash,
        },
        "pipeline": {
            "dataset": ds.name,
            "parameter_digest": pipeline.parameter_digest(),
            "output_dimension": pipeline.output_dimension,
        },
        "models": [],
        "explainers": [],
        "metrics": [],
    }

    fits = {}  # model digest -> (model, train_time, predict_time, cls, robust)
    for slot_key, slot in (("algorithm_a", "a"), ("algorithm_b", "b")):
        algo = config[slot_key]
        with _noted(f"while evaluating {slot_key} ({algo['name']})"):
            digest = _model_digest(algo["model"])
            train_seed = derive_seed(master, f"train:{digest}", index)
            if digest not in fits:
                t0 = time.perf_counter()
                model = _train_algorithm(algo["model"], X_train, y_train, train_seed)
                train_time = time.perf_counter() - t0

                t0 = time.perf_counter()
                test_scores = model.score(X_test)
                predict_time = time.perf_counter() - t0
                cls = classification_metrics(test_scores, y_test, model.threshold)

                robust = robustness_metrics_suite(
                    model, X_test[robust_rows], X_train,
                    n_random_dirs=mcfg["n_random_dirs"],
                    max_pairs=mcfg["lipschitz_max_pairs"],
                    seed=derive_seed(master, f"robust:{digest}", index))
                fits[digest] = (model, train_time, predict_time, cls, robust)
            model, train_time, predict_time, cls, robust = fits[digest]

            background_seed = derive_seed(master, "background", index)
            background = sample_background(X_train, algo["background_size"],
                                           background_seed, players, numeric)
            explain_fn = build_explainer(algo["explainer"], algo["mode"],
                                         algo["n_samples"])
            t0 = time.perf_counter()
            expl = explanation_metrics_suite(
                explain_fn, model, X_test[explain_rows], background,
                r=mcfg["sens_radius"], n_probes=mcfg["n_probes"], K=mcfg["morf_k"],
                seed=derive_seed(master, f"explain:{slot}", index))
            explain_time = time.perf_counter() - t0

        result["models"].append({
            "algorithm": slot,
            "dataset": ds.name,
            "kind": model.kind,
            "hyperparameters": model.hyperparameters,
            "train_seed": train_seed,
            "threshold": model.threshold,
            "parameter_digest": model.parameter_digest(),
        })
        result["explainers"].append({
            "algorithm": slot,
            "dataset": ds.name,
            "kind": algo["explainer"],
            "mode": algo["mode"],
            "n_samples": algo["n_samples"],
            "background_size": background.size,
            "background_seed": background_seed,
        })
        result["metrics"].append({
            "algorithm": slot,
            "dataset": ds.name,
            "classification": asdict(cls),
            "explanation": asdict(expl),
            "robustness": asdict(robust),
            "timings": {"train_time": train_time, "predict_time": predict_time,
                        "explain_time": explain_time},
        })
    return result


def _comparison_block(config: dict, metric_entries: list[dict],
                      dataset_names: list[str]) -> list[dict]:
    mcfg = config["metrics"]
    master = config["master_seed"]
    by_key = {(m["algorithm"], m["dataset"]): m for m in metric_entries}

    comparisons = []
    for family, name in COMPARED_METRICS:
        a_values, b_values = [], []
        complete = True
        for ds_name in dataset_names:
            va = by_key[("a", ds_name)][family].get(name)
            vb = by_key[("b", ds_name)][family].get(name)
            if va is None or vb is None:
                complete = False
                break
            a_values.append(float(va))
            b_values.append(float(vb))
        if not complete or len(a_values) < 2:
            continue
        result = compare(name, a_values, b_values,
                         level=mcfg["confidence_level"],
                         n_resamples=mcfg["bootstrap_resamples"],
                         seed=derive_seed(master, f"bootstrap:{name}"))
        doc = result.to_dict()
        doc["a_values"] = a_values
        doc["b_values"] = b_values
        comparisons.append(doc)
    return comparisons


def run_study(config: dict, base_dir=".", output_base=None) -> dict:
    """Execute a validated study config end-to-end; returns the saved record.

    Work per dataset: build, split, fit the pipeline on train, train each
    distinct model spec once, compute all enabled metrics on test.
    Cross-dataset statistics run afterwards; the record is saved atomically
    and reports are rendered from the record alone. Relative manifest paths resolve
    against ``base_dir`` (the config's home); relative output paths against
    ``output_base`` (defaults to ``base_dir``).
    """
    config = validate_config(config)
    base_dir = Path(base_dir)
    output_base = base_dir if output_base is None else Path(output_base)

    started = time.perf_counter()
    results = []
    for i, entry in enumerate(config["datasets"]):
        with _noted(f"while evaluating datasets[{i}] "
                    f"({entry.get('name', entry.get('path', '?'))})"):
            results.append(_evaluate_dataset(i, entry, config, base_dir))

    record = {
        "study_id": new_study_id(),
        "created_at": utc_timestamp(),
        "schema_version": SCHEMA_VERSION,
        "ld_context": dict(LD_CONTEXT),
        "master_seed": config["master_seed"],
        "datasets": [r["dataset"] for r in results],
        "preprocessing": {
            "config": dict(config["preprocessing"]),
            "fitted": [r["pipeline"] for r in results],
        },
        "models": [m for r in results for m in r["models"]],
        "explainers": [e for r in results for e in r["explainers"]],
        "metrics_config": {k: config["metrics"][k] for k in METRICS_DEFAULTS},
        "metrics": [m for r in results for m in r["metrics"]],
        "comparison": [],
        "environment": asdict(capture_environment()),
        "timings": {"total_seconds": 0.0},
    }
    if config["metrics"]["statistics"]:
        record["comparison"] = _comparison_block(
            config, record["metrics"],
            [r["dataset"]["name"] for r in results])
    record["timings"]["total_seconds"] = time.perf_counter() - started
    record["reproducibility_digest"] = reproducibility_digest(record)

    store_root = os.environ.get("GRIDBENCH_STORE") or config["output"]["store_root"]
    store_root = Path(store_root)
    if not store_root.is_absolute():
        store_root = output_base / store_root
    store = DocumentStore(store_root)
    store.save(record)

    report_dir = Path(config["output"]["report_dir"])
    if not report_dir.is_absolute():
        report_dir = output_base / report_dir
    write_reports(record, report_dir)
    return record


def write_reports(record: dict, report_dir) -> list[Path]:
    """Render the text summary and one estimation plot per compared metric."""
    report_dir = Path(report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    written = []

    summary_path = report_dir / "summary.txt"
    summary_path.write_text(text_summary(record), encoding="utf-8")
    written.append(summary_path)

    for comp in record.get("comparison", []):
        spec = EstimationPlotSpec(
            metric_name=comp["metric_name"],
            group_a_name="algorithm_a",
            group_b_name="algorithm_b",
            a_values=tuple(comp["a_values"]),
            b_values=tuple(comp["b_values"]),
            comparison=comp,
            jitter_seed=derive_seed(record["master_seed"],
                                    f"plot:{comp['metric_name']}"),
        )
        path = report_dir / f"gardner_altman_{comp['metric_name']}.svg"
        path.write_text(gardner_altman_svg(spec), encoding="utf-8")
        written.append(path)
    return written
