"""Command-line interface.

Exit codes: 0 on success, 1 on configuration errors and on output paths that
cannot be written or name one file twice (checked before the run), 2 on
numerical failures and on running out of memory; a run that fails writes no
records.
"""

import argparse
import os
import sys

from .config import load_config
from .errors import AmpLabError, ConfigError
from .experiments import run_experiment
from .reporting import ensure_parent, write_records_csv, write_summary_json
from .selftest import run_selftest

_THREADS_ENV = "AMPLAB_THREADS"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="amplab",
        description="AMP universality experiments on spiked symmetric random matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON configuration")
    run.add_argument("--out-dir", default=None, help="directory for records CSV and summary JSON")
    run.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
    run.add_argument("--threads", type=int, default=None, help="concurrent trial workers")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")

    sub.add_parser("selftest", help="run the built-in oracle suite")
    return parser


def _output_paths(cfg, out_dir):
    records, summary = f"{cfg.experiment}_records.csv", f"{cfg.experiment}_summary.json"
    if out_dir is not None:
        return os.path.join(out_dir, records), os.path.join(out_dir, summary)
    return cfg.records_csv or records, cfg.summary_json or summary


def _cmd_run(args):
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    try:
        if args.threads is not None:
            overrides["threads"] = args.threads
        elif os.environ.get(_THREADS_ENV):
            raw = os.environ[_THREADS_ENV]
            try:
                overrides["threads"] = int(raw)
            except ValueError:
                raise ConfigError(f"{_THREADS_ENV} must be an integer, got {raw!r}") from None
        cfg = load_config(args.config, **overrides)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.dry_run:
        print(cfg.canonical_json())
        return 0

    records_path, summary_path = _output_paths(cfg, args.out_dir)
    if os.path.abspath(records_path) == os.path.abspath(summary_path):
        print(f"error: records and summary are both {records_path}", file=sys.stderr)
        return 1
    try:
        for path in (records_path, summary_path):
            ensure_parent(path)  # the writers make no directory; an unwritable path fails before the run
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    try:
        columns, rows, summary = run_experiment(cfg)
    except AmpLabError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2

    summary["master_seed"] = cfg.master_seed
    try:
        write_records_csv(records_path, columns, rows)
        try:
            write_summary_json(summary_path, summary)
        except OSError:
            os.remove(records_path)  # a run that fails writes no records
            raise
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    ok_rows = sum(1 for r in rows if r["status"] == "ok")
    print(f"{cfg.experiment}: {ok_rows}/{len(rows)} rows ok")
    for entry in summary["groups"]:
        print(
            f"  {summary['group_by']}={entry['group']} {entry['field']}: "
            f"mean={entry['mean']:.6g} std={entry['std']:.3g} n={entry['count']}"
        )
    for key, value in summary["extras"].items():
        print(f"  {key}: {value}")
    print(f"records: {records_path}")
    print(f"summary: {summary_path}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "selftest":
        failures = run_selftest()
        return 0 if failures == 0 else 2
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
