"""Command-line front-end.

Subcommands: ``run <config>``, ``compare <study_id> <metric>``,
``report <study_id> --out <dir>``, ``datasets list <store>``, and
``validate <record.json>``. Exit codes: 0 success, 1 validation error,
2 runtime error. Diagnostics go to stderr; machine output goes to files.
The GRIDBENCH_STORE environment variable overrides the store root; the
read commands (``compare``, ``report``, ``datasets list``) need an existing
store and never create one. ``validate``, ``compare``, ``report`` and
``datasets list`` read a record through ``store.read_record``: each refuses
a record that is not a JSON object, breaks the record schema or whose
``reproducibility_digest`` does not match its content, and all but
``datasets list``, which skips it, refuse a file that is not UTF-8 JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import GridBenchError, ValidationError
from .report import comparison_text, write_reports
from .store import DocumentStore, read_record
from .study import run_study


def _open_store(explicit: str | None) -> DocumentStore:
    """The existing store at GRIDBENCH_STORE or the given root; a read
    never creates one."""
    root = os.environ.get("GRIDBENCH_STORE") or explicit
    if not root:
        raise ValidationError("no store root given (argument or GRIDBENCH_STORE)")
    root = Path(root)
    if not (root / "records").is_dir():
        raise ValidationError(f"no study store at {root} (no records/ directory)")
    return DocumentStore(root)


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        raise ValidationError(f"config file not found: {config_path}")
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValidationError(f"config {config_path} is not valid JSON: {exc}") from exc
    record = run_study(config, base_dir=config_path.parent,
                       output_base=Path.cwd())
    print(f"saved study {record['study_id']} "
          f"(digest {record['reproducibility_digest'][:16]})", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    store = _open_store(args.store)
    record = store.load(args.study_id)
    for comp in record.get("comparison", []):
        if comp["metric_name"] == args.metric:
            print(comparison_text(comp))
            return 0
    raise GridBenchError(
        f"metric {args.metric!r} not in the comparison block of {args.study_id}")


def _cmd_report(args) -> int:
    store = _open_store(args.store)
    record = store.load(args.study_id)
    written = write_reports(record, Path(args.out))
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_datasets_list(args) -> int:
    store = _open_store(args.store)
    seen = {}
    for summary in store.query():
        for name, digest in zip(summary["dataset_names"], summary["dataset_hashes"]):
            seen.setdefault((name, digest), []).append(summary["study_id"])
    for (name, digest), ids in sorted(seen.items()):
        print(f"{name}  {digest[:16]}  studies={len(ids)}")
    return 0


def _cmd_validate(args) -> int:
    path = Path(args.record)
    if not path.is_file():
        raise ValidationError(f"record file not found: {path}")
    read_record(path.read_bytes(), str(path))
    print(f"{path} is a valid study record", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridbench",
        description="Benchmark harness for anomaly-detection classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a study config")
    p_run.add_argument("config", help="path to a study config JSON file")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="print one metric's comparison")
    p_cmp.add_argument("study_id")
    p_cmp.add_argument("metric")
    p_cmp.add_argument("--store", default=None, help="store root")
    p_cmp.set_defaults(func=_cmd_compare)

    p_rep = sub.add_parser("report", help="regenerate reports from a record")
    p_rep.add_argument("study_id")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.add_argument("--store", default=None, help="store root")
    p_rep.set_defaults(func=_cmd_report)

    p_ds = sub.add_parser("datasets", help="dataset inventory commands")
    ds_sub = p_ds.add_subparsers(dest="datasets_command", required=True)
    p_ds_list = ds_sub.add_parser("list", help="list datasets across stored studies")
    p_ds_list.add_argument("store", help="store root")
    p_ds_list.set_defaults(func=_cmd_datasets_list)

    p_val = sub.add_parser("validate", help="validate a record file against the schema")
    p_val.add_argument("record")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def _print_error(exc: Exception):
    """The message, then any notes (such as the dataset a run failed on)."""
    print(f"error: {exc}", file=sys.stderr)
    for note in getattr(exc, "__notes__", ()):
        print(f"  {note}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        _print_error(exc)
        return 1
    except GridBenchError as exc:
        _print_error(exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
