"""Benchmark of ``gridbench.study.run_study``, the layer under ``gridbench run``.

Usage (from the repository root):

    python3 perfbench/run.py --workload case_study --seed 1 --seconds 52 --trace 0

With ``--trace 0`` it runs the workload's study, untraced, back to back and
stops at the study end nearest to ``--seconds`` (at least one study), and
reports the end-to-end metrics: ``study_s`` (wall time of one study, config
to saved record and reports: the mean of the run's two slowest),
``setup_s`` (median time for a fresh interpreter to import gridbench and
validate the config, sampled before each study and topped up to three
samples at the end), ``peak_rss_mb`` and ``success_frac``.
With ``--trace 1`` it runs one untraced and two traced studies and reports
the per-layer metrics of the traced ones. Every study's outputs are checked
(see ``check_study``); the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Host facts, the
result and the spans of traced studies are written under
``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "_out"

SETUP_REPEATS = 3
TRACED_STUDIES = 2
EXACT_ERROR_LIMIT = 1e-9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# Work counts that must repeat exactly across traced studies of one seed.
WORK_COUNTS = ("models.fits", "explain.calls", "explain.rows_scored",
               "models.score_calls", "models.score_rows",
               "metrics.robustness_score_calls")

# Per-layer metrics of the traced run and their units.
LAYER_METRICS = {
    "models.fits": "count",
    "models.train_s": "s",
    "models.score_calls": "count",
    "models.score_rows": "rows",
    "models.rows_per_score_call": "rows/call",
    "models.score_s": "s",
    "models.score_s.tree": "s",
    "models.score_s.mlp": "s",
    "models.score_s.logreg": "s",
    "explain.calls": "count",
    "explain.s": "s",
    "explain.self_s": "s",
    "explain.rows_scored": "rows",
    "explain.rows_per_call": "rows/call",
    "metrics.explanation_s": "s",
    "metrics.explanation_self_s": "s",
    "metrics.robustness_s": "s",
    "metrics.robustness_score_calls": "count",
    "metrics.robustness_rows_per_call": "rows/call",
    "metrics.classification_s": "s",
    "study.traced_s": "s",
    "study.dataset_s": "s",
    "study.parallelism": "ratio",
    "study.recorded_train_s": "s",
    "study.span_coverage": "ratio",
    "trace.overhead_s": "s",
    "data.build_s": "s",
    "data.rows": "rows",
    "preprocess.fit_s": "s",
    "preprocess.apply_s": "s",
    "stats.compare_s": "s",
    "stats.compare_calls": "count",
    "store.save_s": "s",
    "store.record_bytes": "bytes",
    "store.load_s": "s",
    "store.validate_s": "s",
    "report.write_s": "s",
    "report.files": "count",
}

SETUP_CODE = """
import json, sys
import gridbench
gridbench.validate_config(json.loads(sys.argv[1]))
"""


def _log(message: str):
    print(message, file=sys.stderr, flush=True)


def _import_gridbench():
    """Import gridbench from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import gridbench
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gridbench from {SRC}: {exc}")
    if Path(gridbench.__file__).resolve().parent != SRC / "gridbench":
        raise SystemExit(f"perfbench: gridbench imported from "
                         f"{gridbench.__file__}, not from {SRC}")


# --- host facts ---------------------------------------------------------------

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridbench").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (REPO / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _blas() -> str:
    import numpy as np
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def host_facts() -> dict:
    import numpy as np
    from gridbench.store import capture_environment
    return {
        "nproc": os.cpu_count(),
        "cpu_model": capture_environment().cpu_model,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# --- measurements ---------------------------------------------------------------

def measure_setup(config: dict) -> float:
    """Wall seconds for a fresh interpreter to import and validate."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(config)]
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, cwd=REPO, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def slow_study_s(times: list[float]) -> float:
    """Mean wall time of the run's two slowest studies (or its only one).

    On a shared host, neighbours going idle speed some studies up by as
    much as 1.6x, in bursts of seconds to minutes. The slowest studies of a
    run are the ones those bursts helped least, and their mean varies less
    from run to run than the median does.
    """
    return statistics.mean(sorted(times)[-2:])


def run_one(config: dict, workdir: Path, tracer=None) -> tuple[dict, float]:
    from gridbench.study import run_study
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        record = run_study(config, base_dir=REPO, output_base=workdir)
        return record, time.perf_counter() - t0
    with tracer.installed(), tracer.span("study") as root:
        record = run_study(config, base_dir=REPO, output_base=workdir)
    return record, root.duration


# --- output checks --------------------------------------------------------------

def _cli(*argv) -> int:
    from gridbench.cli import main
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


class CheckFailed(Exception):
    """A study's output failed one of the benchmark's checks."""


def _check(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def check_study(record: dict, config: dict, workdir: Path) -> dict:
    """Read the saved record back through the store and CLI and check it.

    Raises CheckFailed on the first failed check. Returns the read-path
    timings and the record size, which the traced run reports.
    """
    from gridbench.canonical import canonical_json
    from gridbench.explain import EXACT_DIMENSION_LIMIT
    from gridbench.store import DocumentStore, reproducibility_digest, validate

    store_root = workdir / config["output"]["store_root"]
    report_dir = workdir / config["output"]["report_dir"]
    study_id = record["study_id"]
    store = DocumentStore(store_root)

    t0 = time.perf_counter()
    raw = store.load_bytes(study_id)
    loaded = json.loads(raw.decode("utf-8"))
    load_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    violations = validate(loaded)
    validate_s = time.perf_counter() - t0
    _check(not violations, f"saved record violates the schema: {violations[:3]}")
    _check(canonical_json(loaded) == canonical_json(record),
           "saved record differs from the returned one")
    _check(loaded["reproducibility_digest"] == reproducibility_digest(loaded),
           "stored digest does not match the record's content")
    _check(len(loaded["metrics"]) == 2 * len(config["datasets"]),
           "missing metric cells")

    dims = {f["dataset"]: f["output_dimension"]
            for f in loaded["preprocessing"]["fitted"]}
    # Local accuracy holds for Shapley values of the whole model; the basic
    # join composes per-model attributions and is not locally accurate.
    for explainer, cell in zip(loaded["explainers"], loaded["metrics"]):
        exact = explainer["mode"] == "exact" or (
            explainer["mode"] == "auto"
            and dims[explainer["dataset"]] <= EXACT_DIMENSION_LIMIT)
        if explainer["kind"] == "blackbox" and exact:
            error = cell["explanation"]["explanation_error"]
            _check(error <= EXACT_ERROR_LIMIT,
                   f"exact explanation_error {error} on "
                   f"{cell['dataset']}/{cell['algorithm']}")

    comparisons = [c["metric_name"] for c in loaded["comparison"]]
    _check(comparisons, "the study compared no metrics")
    expected = {"summary.txt"} | {f"gardner_altman_{m}.svg" for m in comparisons}
    written = {p.name for p in report_dir.iterdir()}
    _check(written == expected, f"reports {sorted(written ^ expected)} differ")

    record_path = store_root / "records" / f"{study_id}.json"
    _check(_cli("validate", str(record_path)) == 0, "gridbench validate failed")
    for metric in comparisons:
        _check(_cli("compare", study_id, metric, "--store", str(store_root)) == 0,
               f"gridbench compare {metric} failed")
    rerendered = workdir / "rerendered"
    _check(_cli("report", study_id, "--out", str(rerendered),
                "--store", str(store_root)) == 0, "gridbench report failed")
    for name in expected:
        _check((rerendered / name).read_bytes() == (report_dir / name).read_bytes(),
               f"regenerated {name} differs from the run's")
    return {"store.load_s": load_s, "store.validate_s": validate_s,
            "store.record_bytes": len(raw)}


# --- per-layer metrics --------------------------------------------------------------

def layer_metrics(tracer, record: dict, checks: dict) -> dict:
    spans, root = tracer.spans, tracer.root
    self_s = tracer.self_times()

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def named(name):
        return [s for s in spans if s.name == name]

    explain = named("explain.call")
    robust = named("metrics.robustness")
    score_spans = spans + [tracer.unattributed]
    score_calls = sum(s.score_calls for s in score_spans)
    score_rows = sum(s.score_rows for s in score_spans)
    by_kind = tracer.score_s_by_kind()
    robust_calls = sum(s.score_calls for s in robust)
    dataset_s = total("study.dataset")
    m = {
        "models.fits": tracer.fits,
        "models.train_s": total("models.train"),
        "models.score_calls": score_calls,
        "models.score_rows": score_rows,
        "models.rows_per_score_call": score_rows / score_calls,
        "models.score_s": sum(s.score_s for s in score_spans),
        "models.score_s.tree": by_kind["tree"],
        "models.score_s.mlp": by_kind["mlp"],
        "models.score_s.logreg": by_kind["logreg"],
        "explain.calls": len(explain),
        "explain.s": total("explain.call"),
        "explain.self_s": sum(self_s[s.id] for s in explain),
        "explain.rows_scored": sum(s.score_rows for s in explain),
        "explain.rows_per_call": sum(s.score_rows for s in explain) / len(explain),
        "metrics.explanation_s": total("metrics.explanation"),
        "metrics.explanation_self_s": sum(self_s[s.id]
                                          for s in named("metrics.explanation")),
        "metrics.robustness_s": total("metrics.robustness"),
        "metrics.robustness_score_calls": robust_calls,
        "metrics.robustness_rows_per_call":
            sum(s.score_rows for s in robust) / robust_calls,
        "metrics.classification_s": total("metrics.classification"),
        "study.dataset_s": dataset_s,
        "study.parallelism": dataset_s / root.duration,
        "study.recorded_train_s": sum(c["timings"]["train_time"]
                                      for c in record["metrics"]),
        "study.span_coverage": tracer.coverage(),
        "data.build_s": total("data.build") + total("data.split"),
        "data.rows": sum(s.result.n_rows for s in named("data.build")),
        "preprocess.fit_s": total("preprocess.fit"),
        "preprocess.apply_s": total("preprocess.apply"),
        "stats.compare_s": total("stats.compare"),
        "stats.compare_calls": len(named("stats.compare")),
        "store.save_s": total("store.save"),
        "report.write_s": total("report.write"),
        "report.files": sum(len(s.result) for s in named("report.write")),
    }
    m.update(checks)
    return m


# --- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    _import_gridbench()
    import tracer as tracing

    # Runs are made from this checkout alone; an inherited store root would
    # send records elsewhere.
    os.environ.pop("GRIDBENCH_STORE", None)
    config = workloads.WORKLOADS[args.workload](args.seed)
    host = host_facts()
    print(json.dumps({"host": host}, sort_keys=True))

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)

    plan = ["untraced"] + ["traced"] * TRACED_STUDIES if args.trace else None
    times, traced, digests, setup_samples = [], [], [], []
    attempted = failed = 0
    spent = 0.0  # study and check time; set-up samples are not counted
    while True:
        kind = plan[attempted] if plan else "untraced"
        if not plan:
            # Set-up samples are spread over the run, one before each study,
            # so that their median, like the studies', covers all of it.
            setup_samples.append(measure_setup(config))
        started = time.perf_counter()
        attempted += 1
        workdir = run_dir / f"study{attempted}"
        tracer = tracing.Tracer() if kind == "traced" else None
        try:
            record, elapsed = run_one(config, workdir, tracer)
            checks = check_study(record, config, workdir)
        except Exception:  # a failed study is counted, not fatal
            failed += 1
            _log(f"study {attempted} failed:\n{traceback.format_exc()}")
        else:
            digests.append(record["reproducibility_digest"])
            if tracer is None:
                times.append(elapsed)
            else:
                traced.append((tracer, layer_metrics(tracer, record, checks)))
            _log(f"study {attempted} ({kind}): {elapsed:.3f} s")
        shutil.rmtree(workdir, ignore_errors=True)
        spent += time.perf_counter() - started
        if plan:
            if attempted == len(plan):
                break
        elif spent + 0.5 * spent / attempted >= args.seconds:
            # Stop at whichever study end lies nearest to --seconds.
            break
    while not plan and len(setup_samples) < SETUP_REPEATS:
        setup_samples.append(measure_setup(config))

    correct = failed == 0 and len(set(digests)) == 1
    if len(set(digests)) > 1:
        _log(f"studies of one seed disagree on the digest: {sorted(set(digests))}")
    summary = {"workload": args.workload, "seed": args.seed,
               "reproducibility_digest": digests[0] if digests else None,
               "study_s": times, "studies": attempted,
               "study_s_median": statistics.median(times) if times else None}
    print(json.dumps(summary, sort_keys=True))

    if args.trace:
        metrics, work_ok = _traced_result(traced, times)
        correct = correct and work_ok
    else:
        metrics = {
            "study_s": (slow_study_s(times) if times else None, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "success_frac": ((attempted - failed) / attempted, "ratio"),
        }
    result = {
        "correct": bool(correct and all(v is not None for v, _ in metrics.values())),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    _write_out(run_dir, host, summary, result, traced)
    print(json.dumps(result))
    return 0


def _traced_result(traced, untraced_times) -> tuple[dict, bool]:
    """Per-layer metrics: work counts from the first traced study (they must
    repeat exactly in the others), everything else the median over them."""
    runs = [m for _, m in traced]
    if not runs:
        return {name: (None, unit) for name, unit in LAYER_METRICS.items()}, False
    work_ok = True
    for name in WORK_COUNTS:
        values = [m[name] for m in runs]
        print(json.dumps({"work_count": name, "values": values}))
        if len(set(values)) != 1:
            work_ok = False
            _log(f"work count {name} differs across traced studies: {values}")
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if name == "study.traced_s":
            value = statistics.median(t.root.duration for t, _ in traced)
        elif name == "trace.overhead_s":
            value = (statistics.median(t.root.duration for t, _ in traced)
                     - statistics.median(untraced_times)) if untraced_times else None
        elif name in WORK_COUNTS:
            value = runs[0][name]
        else:
            values = [m[name] for m in runs]
            value = statistics.median_low(values) if isinstance(values[0], int) \
                else statistics.median(values)
        metrics[name] = (value, unit)
    return metrics, work_ok


def _write_out(run_dir: Path, host: dict, summary: dict, result: dict, traced):
    """Write host facts, the result and every traced study's spans, which
    were kept in memory until now."""
    studies = [{"spans": [s.to_dict(t.root.start)
                          for s in sorted(t.spans, key=lambda s: s.start)],
                "metrics": metrics}
               for t, metrics in traced]
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "result.json"
    path.write_text(json.dumps({"host": host, **summary, "result": result,
                                "traced_studies": studies}, indent=1),
                    encoding="utf-8")
    _log(f"result written to {path}")


if __name__ == "__main__":
    sys.exit(main())
