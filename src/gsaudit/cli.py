"""Command-line runner: declarative experiment configs in, reports out.

Exit codes: 0 all audited inequalities passed, 1 an inequality failed (the
report names the failing step), 2 invalid config, 3 numerical
non-convergence. Outputs are deterministic for a fixed seed: report.json is
sorted-key JSON and summary.csv uses LF line endings with repr floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .experiments import EXPERIMENT_KINDS, ConfigError, run_experiment
from .hermite import NumericalError

EXIT_OK = 0
EXIT_INEQUALITY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_outputs(result, out_dir: str) -> tuple:
    """Write report.json and summary.csv; returns their paths."""
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    csv_path = os.path.join(out_dir, "summary.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_csv_cell(row.get(column)) for column in result.columns])
    return report_path, csv_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gsaudit",
        description="Numerical audits of smoothing, uncertainty, and observability estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment config")
    run_parser.add_argument("config", help="path to a JSON experiment config")
    run_parser.add_argument(
        "--out", default=".", help="directory for report.json and summary.csv"
    )
    run_parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="ignored, so that existing command lines still parse: every run"
        " uses this one process",
    )
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_parser("list-experiments", help="list experiment kinds")
    args = parser.parse_args(argv)

    if args.command == "list-experiments":
        for kind, blurb in EXPERIMENT_KINDS.items():
            print(f"{kind}: {blurb}")
        return EXIT_OK

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:  # bad JSON, too many digits, or not UTF-8
        print(f"config error: {args.config} is not valid JSON: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed

    try:
        result = run_experiment(raw)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    report_path, csv_path = write_outputs(result, args.out)
    failed = result.report.get("failed_step")
    suffix = f" (failing step: {failed})" if failed else ""
    print(f"{result.kind}: {'passed' if result.passed else 'FAILED'}{suffix}")
    print(f"report: {report_path}")
    print(f"summary: {csv_path}")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
