"""Study orchestration: config validation, execution, record assembly, reports.

A study config is one JSON document (see ``STUDY_CONFIG_SCHEMA``). Execution is
all-or-nothing: every dataset/algorithm cell is computed in memory and the
record is saved only when the whole study succeeded. Every random choice
derives from the master seed via ``seeding.derive_seed``. A study runs in
three phases: once every manifest is read and every dataset name checked,
every dataset is built, split and preprocessed in the calling process;
every distinct (dataset, model spec) is trained in forked worker processes;
then, once the workers have exited, every dataset is scored, explained and
probed one after another on the calling thread.

Model-training seeds are labeled with a digest of the model spec rather
than the algorithm slot. ``_shared_work`` states which work the two slots
share: slots with the same model spec share one fit per dataset, with its
test scores, classification metrics, robustness metrics and timings, which
isolates explainer differences exactly as in a same-ensembles case study;
slots that also explain against the same background size, mode and
``n_samples`` share one explanation pass.
"""

from __future__ import annotations

import collections
import os
import time
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .canonical import (_INT, _NUMBER, _STR, _TYPED, _obj, _violations, canonical_json,
                        sha256_hex)
from .data import (
    SYNTHETIC_SPEC_SCHEMA,
    Dataset,
    SplitPair,
    SyntheticSpec,
    _read_manifest,
    generate_synthetic,
    load_csv,
    split,
)
from .errors import InvalidConfig
from .explain import build_explainer, resolve_mode, sample_background
from .metrics import (
    classification_metrics,
    explanation_metrics_suite,
    robustness_metrics_suite,
)
from .models import (DEFAULT_HYPERPARAMETERS, StackedEnsemble, plan_stack,
                     stack_member_fit, stack_member_scores, stack_second_level, train)
from .preprocess import FittedPipeline, PipelineConfig, apply_pipeline, fit_pipeline
from .report import write_reports
from .seeding import derive_seed
from .stats import compare
from .store import (
    COMPARED_METRICS,
    EXPLAINER_KIND_SCHEMA,
    EXPLAINER_MODE_SCHEMA,
    LD_CONTEXT,
    METRICS_CONFIG_SCHEMA,
    METRICS_DEFAULTS,
    PREPROCESSING_CONFIG_SCHEMA,
    SCHEMA_VERSION,
    DocumentStore,
    capture_environment,
    new_study_id,
    reproducibility_digest,
    utc_timestamp,
)

EXPLAINER_DEFAULTS = {"explainer": "blackbox", "mode": "auto", "n_samples": 2000,
                      "background_size": 50}

SLOTS = (("algorithm_a", "a"), ("algorithm_b", "b"))


def _optional(schema: dict, **bounds) -> dict:
    """``schema``'s closed object with every key optional and ``bounds`` added."""
    return _obj({key: {**value, **bounds.get(key, {})}
                 for key, value in schema["properties"].items()}, required=[])


# One model spec: a known kind, and hyper keys typed like the kind's defaults,
# a count or scale bounded by the smallest value that completes. The spec is
# a closed object, so each kind's branch only narrows its hyper.
_MEMBER = {
    **_obj({"kind": {"enum": list(DEFAULT_HYPERPARAMETERS)},
            "hyper": {"type": "object"}}, ["kind"]),
    "allOf": [{
        "if": {"properties": {"kind": {"const": kind}}, "required": ["kind"]},
        "then": {"properties": {"hyper": _optional(
            _obj({key: _TYPED[type(default).__name__] for key, default in hyper.items()}),
            hidden_width={"minimum": 0}, init_scale={"minimum": 0})}},
    } for kind, hyper in DEFAULT_HYPERPARAMETERS.items()],
}

_SLOT = _obj({
    "name": _STR,
    "model": {
        "if": {"required": ["stack"]},
        "then": _obj({"stack": _obj({
            "first_level": {"type": "array", "minItems": 1, "items": _MEMBER},
            "second_level": _MEMBER,
            "folds": {**_INT, "minimum": 2},
        }, ["first_level", "second_level"])}),
        "else": _MEMBER,
    },
    "explainer": EXPLAINER_KIND_SCHEMA,
    "mode": EXPLAINER_MODE_SCHEMA,
    "n_samples": {**_INT, "minimum": 1},
    "background_size": {**_INT, "minimum": 1},
}, ["model"])

# Every key, type and range of a study config; ``validate_config`` fills in
# the defaults and checks the rules that span fields.
STUDY_CONFIG_SCHEMA = _obj({
    "master_seed": _INT,
    "datasets": {"type": "array", "minItems": 1, "items": {
        "if": {"properties": {"type": {"const": "synthetic"}}},
        "then": _obj({"type": {"const": "synthetic"},
                      **SYNTHETIC_SPEC_SCHEMA["properties"]}, ["type", "n"]),
        "else": _obj({"type": {"enum": ["synthetic", "manifest"]},
                      "path": _STR, "name": _STR}, ["type", "path"]),
    }},
    "split": _obj({"train_fraction": {**_NUMBER, "exclusiveMinimum": 0,
                                      "exclusiveMaximum": 1}}, []),
    "preprocessing": _optional(PREPROCESSING_CONFIG_SCHEMA),
    "algorithm_a": _SLOT,
    "algorithm_b": _SLOT,
    "metrics": _optional(
        METRICS_CONFIG_SCHEMA,
        sens_radius={"minimum": 0}, morf_k={"minimum": 1}, n_probes={"minimum": 0},
        explain_instances={"minimum": 1}, robustness_instances={"minimum": 2},
        n_random_dirs={"minimum": 0}, lipschitz_max_pairs={"minimum": 1},
        bootstrap_resamples={"minimum": 1},
        confidence_level={"exclusiveMinimum": 0, "exclusiveMaximum": 1}),
    "output": _obj({"store_root": _STR, "report_dir": _STR}, []),
    # accepted with any value and ignored: the training phase sizes its pool
    "workers": {},
}, ["master_seed", "datasets", "algorithm_a", "algorithm_b"])


def _require(condition: bool, message: str):
    if not condition:
        raise InvalidConfig(message)


def validate_config(config: dict) -> dict:
    """Check and normalize a study config; raises InvalidConfig before any work.

    All of the config's ``STUDY_CONFIG_SCHEMA`` violations make one message.
    """
    violations = _violations(STUDY_CONFIG_SCHEMA, config)
    _require(not violations, "; ".join(violations))

    datasets = [dict(entry) for entry in config["datasets"]]
    for i, entry in enumerate(datasets):
        if entry["type"] == "synthetic":
            entry.setdefault("name", f"synthetic_{i}")
            SyntheticSpec(**{k: v for k, v in entry.items() if k != "type"}).validate()
    names = [entry.get("name", entry.get("path")) for entry in datasets]
    _require(len(set(names)) == len(names), "dataset names must be unique")

    prep = PipelineConfig(**config.get("preprocessing", {}))
    _require(not prep.use_pca or (prep.pca_components or 0) >= 1,
             "preprocessing.pca_components must be >= 1 when use_pca is set")

    algorithms = {slot: {"name": slot, **EXPLAINER_DEFAULTS, **config[slot]}
                  for slot, _ in SLOTS}
    for slot, algo in algorithms.items():
        _require(algo["explainer"] != "basic_join" or "stack" in algo["model"],
                 f"{slot}: basic_join needs a stacked model")

    metrics = {**METRICS_DEFAULTS, **config.get("metrics", {})}
    _require(not metrics["statistics"] or len(datasets) >= 2,
             "statistics need >= 2 datasets (set metrics.statistics=false "
             "for single-dataset runs)")

    return {
        "master_seed": config["master_seed"],
        "datasets": datasets,
        "split": {"train_fraction": 0.7, **config.get("split", {})},
        "preprocessing": asdict(prep),
        **algorithms,
        "metrics": metrics,
        "output": {"store_root": "studies", "report_dir": "reports",
                   **config.get("output", {})},
    }


def _shared_work(config: dict) -> tuple[dict, dict]:
    """The study's distinct fits, ``{model digest: slot keys}``, and passes,
    ``{(model digest, background_size, mode, n_samples): slot keys}``, each
    in slot order; with two slots, the passes' slot keys in turn are the
    slots in order. Each fit and each pass serves every dataset."""
    fits, passes = {}, {}
    for slot_key, _ in SLOTS:
        algo = config[slot_key]
        digest = sha256_hex(canonical_json(algo["model"]))[:16]
        fits.setdefault(digest, []).append(slot_key)
        passes.setdefault((digest, algo["background_size"], algo["mode"],
                           algo["n_samples"]), []).append(slot_key)
    return fits, passes


def _build_dataset(entry: dict, index: int, master_seed: int,
                   base_dir: Path) -> Dataset:
    if entry["type"] == "synthetic":
        spec = SyntheticSpec(**{k: v for k, v in entry.items() if k != "type"})
        return generate_synthetic(spec, derive_seed(master_seed, "dataset", index))
    return load_csv(base_dir / entry["path"])


def _train_algorithm(model_spec: dict, X, y, seed: int):
    return train(model_spec["kind"], X, y, model_spec.get("hyper", {}), seed=seed)


@contextmanager
def _noted(*notes: str):
    """Add ``notes`` to any exception raised in the block."""
    try:
        yield
    except Exception as exc:
        for note in notes:
            exc.add_note(note)
        raise


def _dataset_note(index: int, entry: dict) -> str:
    return (f"while evaluating datasets[{index}] "
            f"({entry.get('name', entry.get('path', '?'))})")


def _slot_note(slot_key: str, config: dict) -> str:
    return f"while evaluating {slot_key} ({config[slot_key]['name']})"


class _Prepared(NamedTuple):
    """A dataset split and preprocessed, ready for training and evaluation."""

    ds: Dataset
    pair: SplitPair
    pipeline: FittedPipeline
    X_train: np.ndarray
    X_test: np.ndarray


def _prepare_dataset(index: int, entry: dict, config: dict,
                     base_dir: Path) -> _Prepared:
    master = config["master_seed"]
    ds = _build_dataset(entry, index, master, base_dir)
    pair = split(ds, config["split"]["train_fraction"],
                 derive_seed(master, "split", index))
    pipeline = fit_pipeline(pair.train, PipelineConfig(**config["preprocessing"]))
    for slot_key, _ in SLOTS:  # refuse exact over too many players before training
        with _noted(_slot_note(slot_key, config)):
            resolve_mode(config[slot_key]["mode"], len(set(pipeline.players()[0])))
    return _Prepared(ds, pair, pipeline, apply_pipeline(pipeline, pair.train),
                     apply_pipeline(pipeline, pair.test))


def _one_blas_thread():
    """Training-pool initializer: cap the worker's BLAS at one thread.

    A forked worker inherits the calling process's BLAS thread count, so two
    workers would oversubscribe the cores, and ``OPENBLAS_NUM_THREADS`` is
    read only when numpy is first imported. Where numpy bundles no
    scipy-openblas with this setter (another BLAS, or a system library),
    nothing is capped and each worker keeps the BLAS's own count.
    """
    import ctypes  # here, so that ``import gridbench`` does not pay for it

    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        # the library is loaded already, so this is numpy's own handle
        setter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _train_job(step, *args):
    """One training-pool job: ``step(*args)`` and the worker seconds it took."""
    t0 = time.perf_counter()
    result = step(*args)
    return result, time.perf_counter() - t0


def _estimate(spec: dict, rows: int, columns: int) -> int:
    """The static cost the pool orders its jobs by: rows x epochs (x hidden
    width for an MLP), and rows x depth x columns for a tree."""
    hyper = {**DEFAULT_HYPERPARAMETERS[spec["kind"]], **spec.get("hyper", {})}
    if spec["kind"] == "tree":
        return rows * hyper["max_depth"] * columns
    return rows * hyper["epochs"] * hyper.get("hidden_width", 1)


def _train_models(config: dict, prepared: list[_Prepared]) -> dict:
    """Train each of ``_shared_work``'s fits once per dataset, in parallel.

    A plain fit is one job. A stack is planned here; each member's fold
    batch and full-data fit is a job, and its second level a job once all
    its out-of-fold columns are in. The jobs go to the pool longest first
    by ``_estimate``. The workers are forked, so they inherit the calling
    process's modules as they are (patched names included) and start
    without re-importing. A fork copies only the calling thread, so a
    caller must not run other threads that could hold a lock the workers
    need. Returns ``{(index, digest): (model, train_time)}``, the time
    summing the fit's job seconds. An error is re-raised here with the
    notes of the first slot that names the model and of its dataset; jobs
    not yet started are cancelled.
    """
    # Imported here: the pool modules add to every ``import gridbench``.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    master = config["master_seed"]
    fits, _ = _shared_work(config)
    keys = [(i, digest) for i in range(len(prepared)) for digest in fits]
    notes = {(i, digest): (_slot_note(fits[digest][0], config),
                           _dataset_note(i, config["datasets"][i])) for i, digest in keys}
    plans, jobs = {}, []  # jobs: (estimate, key, step, member, args)
    for i, digest in keys:
        spec = config[fits[digest][0]]["model"]
        seed = derive_seed(master, f"train:{digest}", i)
        X, y = prepared[i].X_train, prepared[i].pair.train.labels
        if "stack" not in spec:
            jobs.append((_estimate(spec, *X.shape), (i, digest), _train_algorithm, 0,
                         (spec, X, y, seed)))
            continue
        stack = spec["stack"]
        with _noted(*notes[i, digest]):
            plan = plans[i, digest] = plan_stack(
                [(member["kind"], member.get("hyper", {})) for member in stack["first_level"]],
                (stack["second_level"]["kind"], stack["second_level"].get("hyper", {})),
                X, y, folds=stack.get("folds", 5), seed=seed)
        for m, member in enumerate(stack["first_level"]):  # a row is in folds - 1 fold fits
            jobs += [(_estimate(member, (plan.folds - 1) * len(y), X.shape[1]),
                      (i, digest), stack_member_scores, m, (plan, m)),
                     (_estimate(member, *X.shape), (i, digest), stack_member_fit, m,
                      (plan, m))]
    jobs.sort(key=lambda job: -job[0])  # stable: ties keep the dataset order
    # the CPUs this process may run on: os.cpu_count() ignores the affinity mask
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    pool = ProcessPoolExecutor(min(cpus, len(jobs)),
                               mp_context=multiprocessing.get_context("fork"),
                               initializer=_one_blas_thread)
    try:
        futures = [pool.submit(_train_job, step, *args) for *_, step, _, args in jobs]
        done, seconds, second = collections.defaultdict(dict), collections.Counter(), {}
        for (_, key, step, m, _), future in zip(jobs, futures):
            with _noted(*notes[key]):
                done[key, step][m], job_seconds = future.result()
            seconds[key] += job_seconds
            columns = done[key, step]
            if step is stack_member_scores and len(columns) == len(plans[key].members):
                second[key] = pool.submit(_train_job, stack_second_level, plans[key],
                                          [columns[j] for j in range(len(columns))])
        trained = {}
        for key in keys:
            if key not in plans:
                trained[key] = (done[key, _train_algorithm][0], seconds[key])
                continue
            with _noted(*notes[key]):
                second_level, job_seconds = second[key].result()
            fitted = done[key, stack_member_fit]
            trained[key] = (StackedEnsemble(plans[key], [fitted[j] for j in range(len(fitted))],
                                            second_level), seconds[key] + job_seconds)
        return trained
    finally:
        pool.shutdown(cancel_futures=True)


def _evaluate_dataset(index: int, prep: _Prepared, config: dict,
                      trained: dict) -> dict:
    master = config["master_seed"]
    ds, pair, pipeline, X_train, X_test = prep
    y_test = pair.test.labels
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

    fits, passes = _shared_work(config)
    scored = {}  # model digest -> (model, timings, classification, robustness)
    for digest, slot_keys in fits.items():
        model, train_time = trained[index, digest]
        with _noted(_slot_note(slot_keys[0], config)):
            t0 = time.perf_counter()
            test_scores = model.score(X_test)
            timings = {"train_time": train_time,
                       "predict_time": time.perf_counter() - t0}
            cls = classification_metrics(test_scores, y_test, model.threshold)

            robust = robustness_metrics_suite(
                model, X_test[robust_rows], X_train,
                n_random_dirs=mcfg["n_random_dirs"],
                max_pairs=mcfg["lipschitz_max_pairs"],
                seed=derive_seed(master, f"robust:{digest}", index))
        scored[digest] = (model, timings, cls, robust)

    # Each instance and its probes are explained once for all of a pass's
    # kinds, and every slot of the pass records its wall time as its
    # explain_time. The passes hold the slots in order (``_shared_work``),
    # so each cell is written as its pass ends.
    background_seed = derive_seed(master, "background", index)
    for (digest, size, mode, n_samples), slot_keys in passes.items():
        model, timings, cls, robust = scored[digest]
        with _noted(*[_slot_note(slot_key, config) for slot_key in slot_keys]):
            background = sample_background(X_train, size, background_seed,
                                           players, numeric)
            explain_fn = build_explainer(
                tuple(config[slot_key]["explainer"] for slot_key in slot_keys),
                mode, n_samples)
            t0 = time.perf_counter()
            suites = explanation_metrics_suite(
                explain_fn, model, X_test[explain_rows], background,
                r=mcfg["sens_radius"], n_probes=mcfg["n_probes"], K=mcfg["morf_k"],
                seed=derive_seed(master, "explain", index))
            explain_time = time.perf_counter() - t0
        for slot_key, expl in zip(slot_keys, suites):
            cell = {"algorithm": dict(SLOTS)[slot_key], "dataset": ds.name}
            result["models"].append({
                **cell,
                "kind": model.kind,
                "hyperparameters": model.hyperparameters,
                "train_seed": model.train_seed,
                "threshold": model.threshold,
                "parameter_digest": model.parameter_digest(),
            })
            result["explainers"].append({
                **cell,
                "kind": config[slot_key]["explainer"],
                "mode": mode,
                "n_samples": n_samples,
                "background_size": background.size,
                "background_seed": background_seed,
            })
            result["metrics"].append({
                **cell,
                "classification": asdict(cls),
                "explanation": asdict(expl),
                "robustness": asdict(robust),
                "timings": {**timings, "explain_time": explain_time},
            })
    return result


def _comparison_block(config: dict, results: list[dict]) -> list[dict]:
    """Compare the slots per metric over the datasets, from each dataset's
    metric cells, which ``_evaluate_dataset`` writes in slot order."""
    mcfg = config["metrics"]
    master = config["master_seed"]
    comparisons = []
    for family, name in COMPARED_METRICS:
        pairs = [tuple(cell[family][name] for cell in r["metrics"]) for r in results]
        if any(None in pair for pair in pairs):
            continue  # a cell could not compute it (mean_delta_adv with no flip)
        a_values, b_values = ([float(v) for v in side] for side in zip(*pairs))
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

    Every manifest is read and checked, and every dataset's name settled
    (unique, and agreeing with its config name), before any dataset is
    built; then every dataset is built, split and preprocessed (the
    pipeline is fit on train) before any training. Each distinct model spec
    is trained once per dataset in forked worker processes; then every
    enabled metric is computed on test in the calling process. Cross-dataset
    statistics run afterwards; the record is saved atomically and reports
    are rendered from the record alone. Relative manifest paths resolve
    against ``base_dir`` (the config's home); relative output paths against
    ``output_base`` (defaults to ``base_dir``).
    """
    config = validate_config(config)
    base_dir = Path(base_dir)
    output_base = base_dir if output_base is None else Path(output_base)

    started = time.perf_counter()
    entries = config["datasets"]
    loaded = {}  # dataset name -> index; every name, before any dataset is built
    for i, entry in enumerate(entries):
        with _noted(_dataset_note(i, entry)):
            name = (entry["name"] if entry["type"] == "synthetic"
                    else _read_manifest(base_dir / entry["path"])["name"])
            _require(entry.get("name", name) == name,
                     f"datasets[{i}] is named {entry.get('name')!r} in the config "
                     f"but loads as {name!r}; drop its config name or make the "
                     f"two agree")
            _require(name not in loaded,
                     f"datasets[{loaded.get(name)}] and datasets[{i}] both load "
                     f"as {name!r}; dataset names must be unique")
        loaded[name] = i
    prepared = []
    for i, entry in enumerate(entries):
        with _noted(_dataset_note(i, entry)):
            prepared.append(_prepare_dataset(i, entry, config, base_dir))
    fits = _train_models(config, prepared)
    results = []
    for i, entry in enumerate(entries):
        with _noted(_dataset_note(i, entry)):
            results.append(_evaluate_dataset(i, prepared[i], config, fits))

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
        record["comparison"] = _comparison_block(config, results)
    record["timings"]["total_seconds"] = time.perf_counter() - started
    record["reproducibility_digest"] = reproducibility_digest(record)

    # joining an absolute path to output_base gives the absolute path
    store_root = os.environ.get("GRIDBENCH_STORE") or config["output"]["store_root"]
    DocumentStore(output_base / store_root).save(record)
    write_reports(record, output_base / config["output"]["report_dir"])
    return record

