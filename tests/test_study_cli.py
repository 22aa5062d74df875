import collections
import concurrent.futures
import ctypes
import importlib.util
import inspect
import json
import multiprocessing
import os
import runpy
import shutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gridbench.explain
import gridbench.metrics
import gridbench.models
import gridbench.stats
import gridbench.study
from gridbench.cli import main
from gridbench.errors import GridBenchError, InvalidConfig, SingleClassTrainingSet
from gridbench.explain import build_explainer
from gridbench.metrics import explanation_metrics_suite
from gridbench.models import (DecisionTreeModel, LogisticRegressionModel, MLPModel, train,
                              train_stack)
from gridbench.seeding import derive_seed
from gridbench.store import METRICS_DEFAULTS, DocumentStore, reproducibility_digest, validate
from gridbench.study import EXPLAINER_DEFAULTS, run_study, validate_config
from record_fixture import minimal_record


def tiny_config(store_root="studies", report_dir="reports", master_seed=7):
    return {
        "master_seed": master_seed,
        "datasets": [
            {"type": "synthetic", "name": "tiny_a", "n": 120, "d_numeric": 3,
             "anomaly_fraction": 0.3, "class_separation": 1.5},
            {"type": "synthetic", "name": "tiny_b", "n": 120, "d_numeric": 3,
             "anomaly_fraction": 0.25, "class_separation": 2.5},
        ],
        "split": {"train_fraction": 0.7},
        "preprocessing": {"use_onehot": True, "use_minmax": True},
        "algorithm_a": {
            "name": "plain-logreg",
            "model": {"kind": "logreg", "hyper": {"epochs": 120}},
            "explainer": "blackbox",
            "background_size": 16,
        },
        "algorithm_b": {
            "name": "small-stack",
            "model": {"stack": {
                "first_level": [{"kind": "logreg", "hyper": {"epochs": 120}},
                                {"kind": "tree"}],
                "second_level": {"kind": "logreg", "hyper": {"epochs": 120}},
                "folds": 3}},
            "explainer": "basic_join",
            "background_size": 16,
        },
        "metrics": {"explain_instances": 4, "robustness_instances": 3,
                    "n_probes": 2, "morf_k": 2, "bootstrap_resamples": 300,
                    "lipschitz_max_pairs": 150},
        "output": {"store_root": store_root, "report_dir": report_dir},
    }


class InlineExecutor:
    """Runs each submitted call at once in the calling process (test double)."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def write_manifest(folder, period=3, **extra):
    """``folder/data.csv`` and a manifest that does not name the dataset,
    with ``extra`` keys added to the manifest."""
    folder.mkdir()
    (folder / "data.csv").write_text(
        "f1,f2,label\n" + "\n".join(
            f"{i % 7}.{i % 3},{(i * 13) % 11},"
            f"{'attack' if i % period == 0 else 'normal'}"
            for i in range(90)))
    (folder / "manifest.json").write_text(json.dumps({
        "csv_path": "data.csv",
        "label_column": "label",
        "positive_label_values": ["attack"],
        "columns": [{"name": "f1", "kind": "numeric"},
                    {"name": "f2", "kind": "numeric"}],
        **extra,
    }))


def shared_stack_config():
    """``tiny_config`` whose slots hold one logreg/tree/MLP stack, explained
    by the blackbox in slot a and by the basic join in slot b."""
    config = tiny_config()
    config["algorithm_b"]["model"]["stack"]["first_level"].append(
        {"kind": "mlp", "hyper": {"epochs": 120}})
    config["algorithm_a"].update(name="stack-blackbox",
                                 model=config["algorithm_b"]["model"])
    return config


def no_training(*args, **kwargs):
    raise AssertionError("a model was trained")


# Stand-in training steps. A training job pickles its step by reference
# (module and name), so a step patched in for the forked workers must be a
# module-level function.

def single_class(*args, **kwargs):
    raise SingleClassTrainingSet("training labels hold one class")


def worker_blas_threads(*args):
    """The BLAS thread count of the process it runs in."""
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    return ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_()


def job_estimate(step, args):
    """The static cost a first-wave training job is ordered by (oracle):
    rows trained x epochs (x hidden width for an MLP), and rows x depth x
    columns for a tree."""
    if step is gridbench.study._train_algorithm:
        spec, X = args[0], args[1]
        kind, rows = spec["kind"], X.shape[0]
        hyper = {**gridbench.models.DEFAULT_HYPERPARAMETERS[kind], **spec.get("hyper", {})}
    else:
        plan, member = args
        (kind, hyper), X = plan.members[member], plan.X
        rows = X.shape[0] * (plan.folds - 1 if step is gridbench.study.stack_member_scores
                             else 1)
    if kind == "tree":
        return rows * hyper["max_depth"] * X.shape[1]
    return rows * hyper["epochs"] * hyper.get("hidden_width", 1)


def two_stacks_config():
    """``tiny_config`` with a different stack in each slot, one with an MLP."""
    config = tiny_config()
    config["algorithm_a"].update(name="mlp-stack", model={"stack": {
        "first_level": [{"kind": "mlp", "hyper": {"epochs": 60}},
                        {"kind": "tree", "hyper": {"max_depth": 3}}],
        "second_level": {"kind": "logreg", "hyper": {"epochs": 50}},
        "folds": 4}})
    return config


def no_building(*args, **kwargs):
    raise AssertionError("a dataset was built")


# One mistake per case, applied to ``mistake_base()``: where it sits, the key
# the error must name, its value.
CONFIG_MISTAKES = [
    (("algorithm_b",), "explaner", "basic_join"),
    (("algorithm_a",), "backgroud_size", 8),
    (("algorithm_a", "model"), "hyperr", {}),
    (("algorithm_a", "model", "hyper"), "epoch", 10),
    (("algorithm_b", "model"), "kind", "logreg"),
    (("algorithm_b", "model", "stack"), "fold", 3),
    (("algorithm_b", "model", "stack", "first_level", 0), "hypr", {}),
    (("algorithm_b", "model", "stack", "second_level", "hyper"), "max_depth", 3),
    (("algorithm_b", "model", "stack", "second_level"), "knd", "tree"),
    (("split",), "train_fracton", 0.5),
    (("output",), "store_rot", "elsewhere"),
    (("metrics",), "confidence_level", 1.0),
    (("metrics",), "bootstrap_resamples", 0),
    (("metrics",), "explain_instances", 0),
    (("metrics",), "sens_radius", -0.01),
    (("metrics",), "n_probes", -1),
    (("metrics",), "morf_k", 0),
    (("metrics",), "robustness_instances", 1),
    (("metrics",), "lipschitz_max_pairs", 0),
    (("algorithm_a",), "mode", "fast"),
    (("algorithm_a",), "background_size", 0),
    (("algorithm_a",), "background_size", 1.5),
    (("algorithm_a",), "n_samples", 0),
    ((), "metric", {"morf_k": 2}),
    ((), "preprocesing", {"use_pca": True, "pca_components": 2}),
    ((), "master_seed", True),
    (("algorithm_a", "model", "hyper"), "epochs", "120"),
    (("algorithm_b", "model", "stack", "first_level", 1, "hyper"), "max_depth", "x"),
    (("algorithm_a", "model", "hyper"), "learning_rate", float("nan")),
    (("datasets", 0), "d_numeric", 2.5),
    (("preprocessing",), "use_onehot", "no"),
    (("output",), "store_root", 5),
    ((), "split", [0.7]),
    (("algorithm_b", "model", "stack", "first_level", 2, "hyper"), "hidden_width", -2),
    (("algorithm_b", "model", "stack", "first_level", 2, "hyper"), "init_scale", -1.0),
    (("algorithm_b", "model", "stack"), "folds", 3.0),
    ((), "metrics", {"morf_k": 2.0}),
    (("datasets", 1), "purdue_level", 9),
]


def mistake_base():
    """``tiny_config`` with a tree ``hyper`` and an MLP member, so that a
    mistake can sit in the hyperparameters of every model kind."""
    config = tiny_config()
    first_level = config["algorithm_b"]["model"]["stack"]["first_level"]
    first_level[1]["hyper"] = {"max_depth": 5}
    first_level.append({"kind": "mlp", "hyper": {"epochs": 120}})
    return config


class TestValidateConfig:
    def test_defaults_applied(self):
        config = validate_config(tiny_config())
        assert config["metrics"]["sens_radius"] == 0.01
        assert config["metrics"]["morf_k"] == 2
        assert config["algorithm_a"]["mode"] == "auto"

    def test_library_defaults_match_the_config_defaults(self):
        # a library call without the keyword computes what a study computes
        # without the key; each keyword a study config sets, and its key
        keys = {"r": "sens_radius", "n_probes": "n_probes", "K": "morf_k",
                "n_random_dirs": "n_random_dirs", "max_pairs": "lipschitz_max_pairs",
                "size": "background_size", "mode": "mode", "n_samples": "n_samples",
                "n_resamples": "bootstrap_resamples", "level": "confidence_level"}
        defaults = {**METRICS_DEFAULTS, **EXPLAINER_DEFAULTS}
        found = {}  # (function, keyword): (its default, the config's default)
        for module in (gridbench.explain, gridbench.stats, gridbench.metrics):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if fn.__module__ != module.__name__:
                    continue
                for param in inspect.signature(fn).parameters.values():
                    if param.name in keys and param.default is not param.empty:
                        found[name, param.name] = (param.default,
                                                   defaults[keys[param.name]])
        assert {keyword for _, keyword in found} == set(keys)
        assert {at: pair for at, pair in found.items() if pair[0] != pair[1]} == {}

    def test_single_dataset_with_statistics_rejected_before_training(self):
        config = tiny_config()
        config["datasets"] = config["datasets"][:1]
        with pytest.raises(InvalidConfig, match="statistics"):
            validate_config(config)

    def test_single_dataset_without_statistics_allowed(self):
        config = tiny_config()
        config["datasets"] = config["datasets"][:1]
        config["metrics"]["statistics"] = False
        assert validate_config(config)["metrics"]["statistics"] is False

    def test_basic_join_needs_stack(self):
        config = tiny_config()
        config["algorithm_a"]["explainer"] = "basic_join"
        with pytest.raises(InvalidConfig, match="basic_join"):
            validate_config(config)

    def test_duplicate_dataset_names_rejected(self):
        config = tiny_config()
        config["datasets"][1]["name"] = "tiny_a"
        with pytest.raises(InvalidConfig, match="unique"):
            validate_config(config)

    def test_unknown_model_kind_rejected(self):
        config = tiny_config()
        config["algorithm_a"]["model"] = {"kind": "svm"}
        with pytest.raises(InvalidConfig):
            validate_config(config)


@pytest.fixture(scope="module")
def study_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("study")
    record = run_study(tiny_config(), base_dir=base)
    return base, record


class TestRunStudy:
    def test_record_is_schema_valid(self, study_dirs):
        _, record = study_dirs
        assert validate(record) == []

    def test_record_saved_and_loadable(self, study_dirs):
        base, record = study_dirs
        store = DocumentStore(base / "studies")
        assert store.load(record["study_id"])["reproducibility_digest"] == \
            record["reproducibility_digest"]

    def test_reports_written(self, study_dirs):
        base, record = study_dirs
        report_dir = base / "reports"
        assert (report_dir / "summary.txt").is_file()
        svgs = sorted(p.name for p in report_dir.glob("gardner_altman_*.svg"))
        assert "gardner_altman_sens_max.svg" in svgs

    def test_rerun_same_seed_equal_digest(self, study_dirs, tmp_path):
        _, record = study_dirs
        again = run_study(tiny_config(), base_dir=tmp_path)
        assert again["reproducibility_digest"] == record["reproducibility_digest"]
        assert again["study_id"] != record["study_id"]

    def test_different_seed_different_digest(self, study_dirs, tmp_path):
        _, record = study_dirs
        other = run_study(tiny_config(master_seed=8), base_dir=tmp_path)
        assert other["reproducibility_digest"] != record["reproducibility_digest"]

    def test_study_evaluates_in_the_calling_process_and_thread(self, tmp_path,
                                                              monkeypatch):
        # a leftover "workers" key is accepted and ignored
        calls = []
        for name in ("explanation_metrics_suite", "robustness_metrics_suite"):
            def recorded(*args, _original=getattr(gridbench.study, name), **kwargs):
                calls.append((os.getpid(), threading.get_ident()))
                return _original(*args, **kwargs)

            monkeypatch.setattr(gridbench.study, name, recorded)

        def no_thread_pool(self, *args, **kwargs):
            raise AssertionError("run_study built a thread pool")

        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__",
                            no_thread_pool)
        config = tiny_config()
        config["workers"] = 2
        forked = run_study(config, base_dir=tmp_path / "forked")
        # 2 datasets x 2 distinct model specs, each explained and probed
        assert calls == [(os.getpid(), threading.get_ident())] * 8

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlineExecutor)
        serial = run_study(config, base_dir=tmp_path / "serial")
        assert forked["reproducibility_digest"] == serial["reproducibility_digest"]

    def test_pool_is_sized_by_the_cpus_the_process_may_run_on(self, tmp_path,
                                                               monkeypatch):
        workers = []

        class Recording(InlineExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                workers.append(max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        run_study(tiny_config(), base_dir=tmp_path)  # 2 datasets x 2 fits
        assert workers == [1]

    @pytest.mark.parametrize("make_config", [tiny_config, two_stacks_config])
    def test_pool_trained_fits_equal_serial_training(self, make_config, tmp_path):
        config = validate_config(make_config())
        prepared = [gridbench.study._prepare_dataset(i, entry, config, tmp_path)
                    for i, entry in enumerate(config["datasets"])]
        fits, _ = gridbench.study._shared_work(config)
        trained = gridbench.study._train_models(config, prepared)
        assert list(trained) == [(i, digest) for i in range(2) for digest in fits]
        for (i, digest), (model, train_time) in trained.items():
            spec = config[fits[digest][0]]["model"]
            X, y = prepared[i].X_train, prepared[i].pair.train.labels
            seed = derive_seed(config["master_seed"], f"train:{digest}", i)
            if "stack" in spec:
                stack = spec["stack"]
                serial = train_stack(
                    [(m["kind"], m.get("hyper", {})) for m in stack["first_level"]],
                    (stack["second_level"]["kind"], stack["second_level"].get("hyper", {})),
                    X, y, folds=stack["folds"], seed=seed)
                assert np.array_equal(model.fold_assignment, serial.fold_assignment)
            else:
                serial = train(spec["kind"], X, y, spec.get("hyper", {}), seed=seed)
            assert model.parameter_digest() == serial.parameter_digest()
            assert (model.hyperparameters, model.train_seed) == \
                (serial.hyperparameters, serial.train_seed)
            assert train_time > 0

    @pytest.mark.parametrize("make_config", [tiny_config, two_stacks_config])
    def test_jobs_go_longest_first_then_the_second_levels(self, make_config, tmp_path,
                                                          monkeypatch):
        submitted = []

        class Recording(InlineExecutor):
            def submit(self, fn, step, *args):
                submitted.append((step, args))
                return super().submit(fn, step, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        config = validate_config(make_config())
        prepared = [gridbench.study._prepare_dataset(i, entry, config, tmp_path)
                    for i, entry in enumerate(config["datasets"])]
        gridbench.study._train_models(config, prepared)

        models = [config[slot]["model"] for slot in ("algorithm_a", "algorithm_b")]
        members = sum(len(m["stack"]["first_level"]) for m in models if "stack" in m)
        stacks = sum("stack" in m for m in models)
        first_wave = 2 * len(prepared) * members + len(prepared) * (2 - stacks)
        assert collections.Counter(step.__name__ for step, _ in submitted[:first_wave]) == \
            collections.Counter(_train_algorithm=len(prepared) * (2 - stacks),
                                stack_member_scores=len(prepared) * members,
                                stack_member_fit=len(prepared) * members)
        estimates = [job_estimate(step, args) for step, args in submitted[:first_wave]]
        assert estimates == sorted(estimates, reverse=True)
        assert estimates[0] > estimates[-1]
        assert [step for step, _ in submitted[first_wave:]] == \
            [gridbench.study.stack_second_level] * (len(prepared) * stacks)

    @pytest.mark.parametrize("same_spec, background_b", [(True, None), (False, None),
                                                        (True, 8)],
                             ids=["True", "False", "True-other_background"])
    def test_one_fit_per_dataset_and_model_spec(self, same_spec, background_b,
                                                tmp_path, monkeypatch):
        # each training job is one _train_job call, counted by step as the
        # forked pool is handed it
        jobs = collections.Counter()

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, step, *args):
                assert fn is gridbench.study._train_job
                jobs[step.__name__] += 1
                return super().submit(fn, step, *args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        calls = {name: multiprocessing.Value("i", 0)
                 for name in ("robustness_metrics_suite", "explanation_metrics_suite")}
        for name, count in calls.items():
            original = getattr(gridbench.study, name)

            def counted(*args, _count=count, _original=original, **kwargs):
                with _count.get_lock():
                    _count.value += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gridbench.study, name, counted)
        config = tiny_config()
        if same_spec:
            config["algorithm_a"]["model"] = config["algorithm_b"]["model"]
        if background_b:
            config["algorithm_b"]["background_size"] = background_b
        record = run_study(config, base_dir=tmp_path)

        fits = 1 if same_spec else 2
        passes = 1 if same_spec and not background_b else 2
        n_datasets = len(config["datasets"])
        assert {name: count.value for name, count in calls.items()} == \
            {"robustness_metrics_suite": fits * n_datasets,
             "explanation_metrics_suite": passes * n_datasets}
        # the stack has 2 members: each a fold batch and a full fit, then
        # one second level; the plain logreg is one job
        assert jobs == collections.Counter(
            _train_algorithm=(fits - 1) * n_datasets,
            stack_member_scores=2 * n_datasets, stack_member_fit=2 * n_datasets,
            stack_second_level=n_datasets)
        if same_spec:
            for ds in config["datasets"]:
                a, b = (next(m for m in record["metrics"]
                             if m["algorithm"] == slot and m["dataset"] == ds["name"])
                        for slot in ("a", "b"))
                for section in ("classification", "robustness"):
                    assert a[section] == b[section]
                # and, when both slots explain against one background, one pass
                shared = ["train_time", "predict_time"] + ["explain_time"] * (passes == 1)
                for timing in shared:
                    assert a["timings"][timing] == b["timings"][timing]
        assert [e["background_size"] for e in record["explainers"]] == \
            [16, background_b or 16] * n_datasets

    def test_shared_fit_scores_each_coalition_row_once(self, tmp_path, monkeypatch):
        # Rows each first-level member scores in the study's explanation
        # suites. One pass serves both slots, so a member scores its coalition
        # rows once, as the basic join alone does; the blackbox adds only the
        # rows of its own MoRF curves.
        rows = collections.Counter()
        counting = [False]
        for cls in (LogisticRegressionModel, DecisionTreeModel, MLPModel):
            def score(self, X, _original=cls.score):
                if counting[0]:
                    rows[id(self)] += len(X)
                return _original(self, X)

            monkeypatch.setattr(cls, "score", score)
        suites = {}  # id(model) -> the suite's model, instances, background, kwargs

        def counted(explain_fn, model, instances, background, _original=(
                gridbench.study.explanation_metrics_suite), **kwargs):
            suites[id(model)] = (model, instances, background, kwargs)
            counting[0] = True
            try:
                return _original(explain_fn, model, instances, background, **kwargs)
            finally:
                counting[0] = False

        monkeypatch.setattr(gridbench.study, "explanation_metrics_suite", counted)
        run_study(shared_stack_config(), base_dir=tmp_path)
        in_study = collections.Counter(rows)

        rows.clear()
        members = []
        for model, instances, background, kwargs in suites.values():
            counting[0] = True
            explanation_metrics_suite(build_explainer(("basic_join",)), model,
                                      instances, background, **kwargs)
            counting[0] = False
            morf_rows = len(instances) * (min(kwargs["K"], background.n_players) + 1)
            for member in model.first_level:
                rows[id(member)] += morf_rows
                members.append(id(member))
        assert len(suites) == 2 and len(members) == 6
        assert {m: in_study[m] for m in members} == {m: rows[m] for m in members}

    def test_perfbench_tracer_sees_the_layers_it_divides_by(self, tmp_path):
        # perfbench/run.py's layer_metrics divides by these spans' counts
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", Path(__file__).parents[1] / "perfbench" / "tracer.py")
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        owners = [gridbench.study, gridbench.models, DocumentStore,
                  *tracing.SCORED_CLASSES.values()]
        before = [dict(vars(owner)) for owner in owners]
        tracer = tracing.Tracer()
        with tracer.installed():
            assert gridbench.study._build_dataset is not before[0]["_build_dataset"]
            run_study(tiny_config(), base_dir=tmp_path)
        names = collections.Counter(span.name for span in tracer.spans)
        assert names["data.build"] == 2
        assert names["explain.call"] > 0 and names["metrics.robustness"] > 0
        assert sum(span.score_calls for span in tracer.spans
                   if span.name == "metrics.robustness") > 0
        assert all(vars(owner).get(name) is value
                   for owner, saved in zip(owners, before) for name, value in saved.items())

    def test_explanation_metrics_get_finite_statistics(self, study_dirs):
        _, record = study_dirs
        by_name = {c["metric_name"]: c for c in record["comparison"]}
        comp = by_name["sens_max"]
        assert comp["wilcoxon"]["p_value"] is not None
        assert np.isfinite(comp["cohens_d"])
        assert np.isfinite(comp["bootstrap_ci"]["low"])

    def test_manifest_dataset_and_pca_path(self, tmp_path):
        (tmp_path / "flows.csv").write_text(
            "f1,f2,f3,label\n" + "\n".join(
                f"{i % 7}.{i % 3},{(i * 13) % 11},{(i * 7) % 5},"
                f"{'attack' if i % 3 == 0 else 'normal'}"
                for i in range(90)))
        (tmp_path / "flows.json").write_text(json.dumps({
            "csv_path": "flows.csv",
            "label_column": "label",
            "positive_label_values": ["attack"],
            "columns": [{"name": "f1", "kind": "numeric"},
                        {"name": "f2", "kind": "numeric"},
                        {"name": "f3", "kind": "numeric"}],
            "purdue_level": 2,
            "name": "flows",
        }))
        config = tiny_config()
        config["datasets"][0] = {"type": "manifest", "path": "flows.json",
                                 "name": "flows"}
        config["preprocessing"] = {"use_pca": True, "pca_components": 2}
        record = run_study(config, base_dir=tmp_path)
        assert validate(record) == []
        flows = next(d for d in record["datasets"] if d["name"] == "flows")
        assert flows["purdue_level"] == 2
        assert flows["synthetic_spec"] is None
        assert all(f["output_dimension"] == 2
                   for f in record["preprocessing"]["fitted"])

    def test_high_dimension_switches_to_sampled_mode(self, tmp_path):
        # post-pipeline dimension 14 > exact cap, auto mode must fall back
        config = tiny_config()
        for entry in config["datasets"]:
            entry["d_numeric"] = 14
        config["metrics"].update({"explain_instances": 2,
                                  "robustness_instances": 2, "n_probes": 1,
                                  "bootstrap_resamples": 100})
        for slot in ("algorithm_a", "algorithm_b"):
            config[slot]["n_samples"] = 150
        record = run_study(config, base_dir=tmp_path)
        assert validate(record) == []
        for entry in record["metrics"]:
            assert np.isfinite(entry["explanation"]["explanation_error"])


class TestCli:
    def test_run_and_report_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tiny_config()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 0
        err = capsys.readouterr().err
        assert "saved study" in err
        study_id = err.split("saved study ")[1].split()[0]

        out_a = tmp_path / "regen_a"
        out_b = tmp_path / "regen_b"
        store_arg = ["--store", str(tmp_path / "studies")]
        assert main(["report", study_id, "--out", str(out_a)] + store_arg) == 0
        assert main(["report", study_id, "--out", str(out_b)] + store_arg) == 0
        originals = tmp_path / "reports"
        for path in sorted(out_a.iterdir()):
            assert (out_b / path.name).read_bytes() == path.read_bytes()
            assert (originals / path.name).read_bytes() == path.read_bytes()

        assert main(["compare", study_id, "sens_max"] + store_arg) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "metric: sens_max"
        summary = (originals / "summary.txt").read_text(encoding="utf-8")
        sens_max_line = next(line for line in summary.splitlines()
                             if line.startswith("  sens_max: diff="))
        assert sens_max_line in out

        assert main(["datasets", "list", str(tmp_path / "studies")]) == 0
        out = capsys.readouterr().out
        assert "tiny_a" in out and "tiny_b" in out

    def test_run_missing_config_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["run", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_run_missing_manifest_exits_1(self, tmp_path, capsys):
        config = tiny_config()
        config["datasets"][0] = {"type": "manifest",
                                 "path": "does/not/exist.json"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 1
        assert "exist.json" in capsys.readouterr().err

    def test_run_error_names_the_dataset(self, tmp_path, capsys):
        (tmp_path / "flows.json").write_text(json.dumps({
            "csv_path": "missing.csv",
            "label_column": "label",
            "positive_label_values": ["attack"],
            "columns": [{"name": "f1", "kind": "numeric"}],
            "name": "flows",
        }))
        config = tiny_config()
        config["datasets"][1] = {"type": "manifest", "path": "flows.json",
                                 "name": "flows"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "missing.csv" in err
        assert "datasets[1] (flows)" in err

    def test_run_error_names_the_dataset_and_slot(self, tmp_path, capsys,
                                                  monkeypatch):
        def failing_suite(*args, **kwargs):
            raise GridBenchError("explainer failed")

        monkeypatch.setattr(gridbench.study, "explanation_metrics_suite",
                            failing_suite)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "explainer failed" in err
        assert "while evaluating algorithm_a (plain-logreg)" in err
        assert "while evaluating datasets[0] (tiny_a)" in err

    def test_joint_pass_error_names_both_slots_and_the_dataset(
            self, tmp_path, capsys, monkeypatch):
        def failing_suite(*args, **kwargs):
            raise GridBenchError("explainer failed")

        monkeypatch.setattr(gridbench.study, "explanation_metrics_suite",
                            failing_suite)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(shared_stack_config()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "explainer failed" in err
        assert "while evaluating algorithm_a (stack-blackbox)" in err
        assert "while evaluating algorithm_b (small-stack)" in err
        assert "while evaluating datasets[0] (tiny_a)" in err

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        config = tiny_config()
        config["datasets"] = config["datasets"][:1]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 1

    def _assert_rejected_before_work(self, config, tmp_path, capsys, match):
        with pytest.raises(InvalidConfig, match=match):
            validate_config(config)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_manifest_entry_typo_exits_1(self, tmp_path, capsys):
        config = tiny_config()
        config["datasets"][0] = {"type": "manifest", "path": "flows.json",
                                 "nmae": "flows"}
        self._assert_rejected_before_work(config, tmp_path, capsys, "nmae")

    def test_datasets_loading_with_one_name_exit_1(self, tmp_path, capsys,
                                                   monkeypatch):
        # both CSVs are data.csv and neither manifest names its dataset
        write_manifest(tmp_path / "one", period=3)
        write_manifest(tmp_path / "two", period=4)
        monkeypatch.setattr(gridbench.study, "_build_dataset", no_building)
        monkeypatch.setattr(gridbench.study, "_train_job", no_training)
        config = tiny_config()
        config["datasets"] = [{"type": "manifest", "path": "one/manifest.json"},
                              {"type": "manifest", "path": "two/manifest.json"}]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert "datasets[0] and datasets[1]" in err and "'data'" in err
        assert not any(tmp_path.glob("studies/records/*.json"))

    def test_manifest_loading_under_another_name_exits_1(self, tmp_path, capsys,
                                                         monkeypatch):
        write_manifest(tmp_path / "one")
        monkeypatch.setattr(gridbench.study, "_build_dataset", no_building)
        monkeypatch.setattr(gridbench.study, "_train_job", no_training)
        config = tiny_config()
        config["datasets"][0] = {"type": "manifest", "path": "one/manifest.json",
                                 "name": "substation_7"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 1
        error = capsys.readouterr().err.splitlines()[0]
        assert "datasets[0]" in error
        assert "'substation_7'" in error and "'data'" in error

    @pytest.mark.parametrize("key, value", [
        ("purdue_level", "3"),
        ("purdue_level", True),
        ("name", 5),
        ("positive_label_values", "1x"),
    ], ids=["purdue_level_string", "purdue_level_bool", "name_int",
            "positive_label_values_string"])
    def test_mistyped_manifest_exits_1_before_training(self, tmp_path, capsys,
                                                       monkeypatch, key, value):
        write_manifest(tmp_path / "one", **{key: value})
        monkeypatch.setattr(gridbench.study, "_train_job", no_training)
        config = tiny_config()
        config["datasets"][1] = {"type": "manifest", "path": "one/manifest.json"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest ") and f"/{key}: " in err
        assert "datasets[1] (one/manifest.json)" in err
        assert not any(tmp_path.glob("studies/records/*.json"))

    def test_bad_manifest_exits_1_before_any_dataset_is_built(
            self, tmp_path, capsys, monkeypatch):
        write_manifest(tmp_path / "one", purdue_level="3")
        monkeypatch.setattr(gridbench.study, "_build_dataset", no_building)
        config = tiny_config()
        config["datasets"][1] = {"type": "manifest", "path": "one/manifest.json"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: manifest ") and "/purdue_level: " in err
        assert "datasets[1] (one/manifest.json)" in err

    def test_unreadable_csv_exits_1(self, tmp_path, capsys, monkeypatch):
        write_manifest(tmp_path / "one")
        (tmp_path / "one" / "data.csv").write_bytes(b"f1,f2,label\n1.0,2,caf\xe9\n")
        config = tiny_config()
        config["datasets"][1] = {"type": "manifest", "path": "one/manifest.json"}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CSV ") and "data.csv cannot be read" in err
        assert "datasets[1] (one/manifest.json)" in err
        assert not any(tmp_path.glob("studies/records/*.json"))

    def test_training_workers_run_one_blas_thread(self, tmp_path, monkeypatch):
        libs = sorted((Path(np.__file__).parents[1] / "numpy.libs")
                      .glob("libscipy_openblas64_*.so"))
        blas = ctypes.CDLL(str(libs[0])) if libs else None
        if not hasattr(blas, "scipy_openblas_set_num_threads64_"):
            pytest.skip("numpy bundles no scipy-openblas thread-count setter")

        monkeypatch.setattr(gridbench.study, "_train_algorithm", worker_blas_threads)
        config = tiny_config()
        config["algorithm_b"]["model"] = {"kind": "tree"}  # 2 plain fits per dataset
        config["algorithm_b"]["explainer"] = "blackbox"
        config = validate_config(config)
        prepared = [gridbench.study._prepare_dataset(i, entry, config, tmp_path)
                    for i, entry in enumerate(config["datasets"])]
        # two threads in the calling process, whatever the host's core count
        threads = blas.scipy_openblas_get_num_threads64_()
        blas.scipy_openblas_set_num_threads64_(2)
        try:
            fits = gridbench.study._train_models(config, prepared)
            assert blas.scipy_openblas_get_num_threads64_() == 2
        finally:
            blas.scipy_openblas_set_num_threads64_(threads)
        assert [worker_threads for worker_threads, _ in fits.values()] == [1] * 4

    @pytest.mark.parametrize("fails", [False, True])
    def test_no_process_outlives_a_run(self, fails, tmp_path, capsys,
                                       monkeypatch):
        if fails:
            monkeypatch.setattr(gridbench.study, "_train_algorithm", single_class)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(tiny_config()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == (2 if fails else 0)
        assert multiprocessing.active_children() == []
        if fails:
            err = capsys.readouterr().err
            assert "training labels hold one class" in err
            assert "while evaluating algorithm_a (plain-logreg)" in err
            assert "while evaluating datasets[0] (tiny_a)" in err

    def test_failing_member_job_fails_the_run_like_a_fit(self, tmp_path, capsys,
                                                         monkeypatch):
        mlp = gridbench.models._TRAINERS["mlp"]

        def failing_fold_batch(Xs, *args):
            if len(Xs) > 1:  # the fold batch; the full-data fit trains one run
                raise SingleClassTrainingSet("an MLP fold batch failed")
            return mlp(Xs, *args)

        # the forked workers inherit the patched trainer table
        monkeypatch.setitem(gridbench.models._TRAINERS, "mlp", failing_fold_batch)
        shutdowns = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append(cancel_futures)
                super().shutdown(wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(shared_stack_config()), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 2
        assert multiprocessing.active_children() == []
        assert shutdowns == [True]  # the jobs not yet started are cancelled
        err = capsys.readouterr().err
        assert err.startswith("error: an MLP fold batch failed")
        assert "while evaluating algorithm_a (stack-blackbox)" in err
        assert "while evaluating datasets[0] (tiny_a)" in err
        assert not any(tmp_path.glob("studies/records/*.json"))

    def test_refused_stack_plan_fails_before_any_job(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a training pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        config = tiny_config()
        config["algorithm_b"]["model"]["stack"]["folds"] = 100  # 84 training rows
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: folds=100 invalid for 84 rows")
        assert "while evaluating algorithm_b (small-stack)" in err
        assert "while evaluating datasets[0] (tiny_a)" in err
        assert not any(tmp_path.glob("studies/records/*.json"))

    def test_preprocessing_typo_exits_1(self, tmp_path, capsys):
        config = tiny_config()
        config["preprocessing"]["use_pcaa"] = True
        self._assert_rejected_before_work(config, tmp_path, capsys, "use_pcaa")

    def test_metrics_typo_or_wrong_type_exits_1(self, tmp_path, capsys):
        config = tiny_config()
        config["metrics"]["explain_instances"] = "ten"
        self._assert_rejected_before_work(config, tmp_path, capsys,
                                          "explain_instances")
        for key, value in (("explain_instance", 10), ("statistics", 1),
                           ("morf_k", True), ("sens_radius", "0.01")):
            config = tiny_config()
            config["metrics"][key] = value
            with pytest.raises(InvalidConfig, match=key):
                validate_config(config)

    @pytest.mark.parametrize("path, key, value", CONFIG_MISTAKES,
                             ids=[".".join(map(str, (*path, key)))
                                  for path, key, _ in CONFIG_MISTAKES])
    def test_config_mistake_exits_1_before_training(self, tmp_path, capsys,
                                                    monkeypatch, path, key, value):
        monkeypatch.setattr(gridbench.study, "_build_dataset", no_building)
        monkeypatch.setattr(gridbench.study, "_train_job", no_training)
        config = mistake_base()
        validate_config(config)
        section = config
        for step in path:
            section = section[step]
        section[key] = value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 1
        error_lines = [line for line in capsys.readouterr().err.splitlines()
                       if line.startswith("error:")]
        assert error_lines and key in error_lines[0]

    @pytest.mark.parametrize("case", ["exact_over_13_players", "no_input_column"])
    def test_fitted_pipeline_refusals_exit_1_before_training(self, tmp_path, capsys,
                                                             monkeypatch, case):
        # the datasets are built for real; the refusal needs the fitted pipeline
        monkeypatch.setattr(gridbench.study, "_train_job", no_training)
        config = tiny_config()
        if case == "exact_over_13_players":
            for entry in config["datasets"]:
                entry["d_numeric"] = 13
            config["algorithm_a"]["mode"] = "exact"
            message, notes = "at most 12 players, got 13", ["algorithm_a (plain-logreg)"]
        else:
            config["datasets"][0].update(d_numeric=0, d_categorical=2)
            config["preprocessing"]["use_onehot"] = False
            message, notes = "no input column survives", []
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err.splitlines()[0]
        for note in [*notes, "datasets[0] (tiny_a)"]:
            assert note in err
        assert not any(tmp_path.glob("studies/records/*.json"))

    def test_synthetic_range_mistakes_exit_1_with_pointers(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setattr(gridbench.study, "_build_dataset", no_building)
        config = tiny_config()
        config["datasets"][0]["n"] = 5
        config["datasets"][1]["anomaly_fraction"] = 1.5
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 1
        error_lines = [line for line in capsys.readouterr().err.splitlines()
                       if line.startswith("error:")]
        assert len(error_lines) == 1
        assert "/datasets/0/n: " in error_lines[0]
        assert "/datasets/1/anomaly_fraction: " in error_lines[0]

    def test_validate_fixture_exits_0(self, tmp_path):
        record_path = tmp_path / "record.json"
        record_path.write_text(json.dumps(minimal_record()), encoding="utf-8")
        assert main(["validate", str(record_path)]) == 0

    def test_python_dash_m_runs_the_cli(self, monkeypatch):
        record_path = Path(__file__).parent / "fixtures" / "example_record.json"
        monkeypatch.setattr(sys, "argv", ["gridbench", "validate", str(record_path)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("gridbench", run_name="__main__")
        assert exc.value.code == 0

    def test_validate_bad_record_exits_1(self, tmp_path, capsys):
        record = minimal_record()
        del record["master_seed"]
        record_path = tmp_path / "bad.json"
        record_path.write_text(json.dumps(record), encoding="utf-8")
        assert main(["validate", str(record_path)]) == 1
        assert "master_seed" in capsys.readouterr().err

    def test_validate_refuses_an_unknown_compared_metric(self, tmp_path, capsys):
        record = minimal_record()
        record["comparison"][0]["metric_name"] = "../x"
        record["reproducibility_digest"] = reproducibility_digest(record)
        record_path = tmp_path / "unknown.json"
        record_path.write_text(json.dumps(record), encoding="utf-8")
        assert main(["validate", str(record_path)]) == 1
        error_line = capsys.readouterr().err.splitlines()[0]
        assert error_line.startswith("error: ")
        assert str(record_path) in error_line and "'../x'" in error_line

    def test_validate_refuses_an_edited_auc(self, tmp_path, capsys):
        fixture = Path(__file__).parent / "fixtures" / "example_record.json"
        record = json.loads(fixture.read_text(encoding="utf-8"))
        stored = record["reproducibility_digest"]
        record["metrics"][0]["classification"]["auc"] = 0.123
        record_path = tmp_path / "edited.json"
        record_path.write_text(json.dumps(record), encoding="utf-8")
        assert main(["validate", str(record_path)]) == 1
        error_line = capsys.readouterr().err.splitlines()[0]
        assert error_line.startswith("error: ")
        assert stored in error_line and reproducibility_digest(record) in error_line

    def test_compare_refuses_an_edited_record_exits_1(self, tmp_path, capsys):
        store = DocumentStore(tmp_path / "studies")
        record = minimal_record()
        store.save(record)
        record["metrics"][0]["classification"]["auc"] = 0.5
        (store.records_dir / f"{record['study_id']}.json").write_text(
            json.dumps(record), encoding="utf-8")
        assert main(["compare", record["study_id"], "sens_max",
                     "--store", str(tmp_path / "studies")]) == 1
        assert record["reproducibility_digest"] in capsys.readouterr().err

    def test_datasets_list_refuses_an_edited_record_exits_1(self, tmp_path, capsys):
        store = DocumentStore(tmp_path / "studies")
        record = minimal_record()
        store.save(record)
        record["datasets"][0]["name"] = "renamed"
        (store.records_dir / f"{record['study_id']}.json").write_text(
            json.dumps(record), encoding="utf-8")
        assert main(["datasets", "list", str(tmp_path / "studies")]) == 1
        captured = capsys.readouterr()
        assert "renamed" not in captured.out
        error_line = captured.err.splitlines()[0]
        assert error_line.startswith("error: ")
        assert record["reproducibility_digest"] in error_line

    @pytest.mark.parametrize("content", [b"[]", b"{bad", b"\xff\xfe", "no_created_at",
                                         "unknown_metric"],
                             ids=["array", "not_json", "not_utf8", "no_created_at",
                                  "unknown_metric"])
    @pytest.mark.parametrize("command", [["datasets", "list", "{store}"],
                                         ["compare", "x", "auc", "--store", "{store}"],
                                         ["report", "x", "--out", "{store}/out",
                                          "--store", "{store}"]],
                             ids=["datasets_list", "compare", "report"])
    def test_record_that_is_not_an_object_exits_1(self, tmp_path, capsys, command,
                                                  content):
        store = DocumentStore(tmp_path / "studies")
        if isinstance(content, str):
            record = minimal_record()
            if content == "no_created_at":
                # created_at lies outside the digest, so only the schema refuses it
                del record["created_at"]
            else:
                # the schema takes any name, and the digest is recomputed to match
                record["comparison"][0]["metric_name"] = "a/b"
                record["reproducibility_digest"] = reproducibility_digest(record)
            content = json.dumps(record).encode("utf-8")
        (store.records_dir / "x.json").write_bytes(content)
        # datasets list skips a file that does not parse
        skipped = command[0] == "datasets" and content in (b"{bad", b"\xff\xfe")
        assert main([arg.format(store=store.root) for arg in command]) == \
            (0 if skipped else 1)
        captured = capsys.readouterr()
        if skipped:
            assert captured.out == captured.err == ""
        else:
            error_line = captured.err.splitlines()[0]
            assert error_line.startswith("error: ") and "'x'" in error_line
        assert "Traceback" not in captured.err
        assert not (store.root / "out").exists()

    def test_compare_unknown_metric_exits_2(self, tmp_path):
        store = DocumentStore(tmp_path / "studies")
        record = minimal_record()
        store.save(record)
        assert main(["compare", record["study_id"], "not_a_metric",
                     "--store", str(tmp_path / "studies")]) == 2

    def test_env_var_overrides_store_root(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        env_store = tmp_path / "env_store"
        monkeypatch.setenv("GRIDBENCH_STORE", str(env_store))
        config = tiny_config()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(config_path)]) == 0
        assert any(env_store.glob("records/*.json"))
        assert not (tmp_path / "studies").exists()

    @pytest.mark.parametrize("command", [["datasets", "list", "{store}"],
                                         ["compare", "{id}", "sens_max", "--store", "{store}"],
                                         ["report", "{id}", "--out", "{out}",
                                          "--store", "{store}"]],
                             ids=["datasets_list", "compare", "report"])
    def test_read_commands_leave_an_existing_store_as_it_is(self, tmp_path, command):
        store = DocumentStore(tmp_path / "studies")
        study_id = store.save(minimal_record())
        shutil.rmtree(store.root / "schema")

        def tree():
            return {p: p.is_file() and p.read_bytes() for p in store.root.rglob("*")}
        before = tree()
        assert main([arg.format(store=store.root, id=study_id, out=tmp_path / "out")
                     for arg in command]) == 0
        assert tree() == before

    def test_datasets_list_missing_store_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "no_such_store"
        assert main(["datasets", "list", str(missing)]) == 1
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    def test_datasets_list_honours_env_store(self, tmp_path, monkeypatch, capsys):
        env_store = tmp_path / "env_store"
        DocumentStore(env_store).save(minimal_record())
        monkeypatch.setenv("GRIDBENCH_STORE", str(env_store))
        other = tmp_path / "other"
        assert main(["datasets", "list", str(other)]) == 0
        out = capsys.readouterr().out
        assert "ds_one" in out and "ds_two" in out
        assert not other.exists()
