#!/usr/bin/env python3
"""Run every example config in scripts/configs and summarize the outcomes.

Each config gets its own output directory under --out (default: out/),
holding report.json and summary.csv. The summary table gives each config's
outcome, wall time and the first 8 hex digits of its report.json's sha256
("-" when the run wrote no report: exit 2 and 3 write none). The script
exits with the worst exit code seen, so it can gate CI.
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from gsaudit.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def report_digest(out_dir: Path) -> str:
    """First 8 hex digits of the sha256 of out_dir/report.json."""
    return hashlib.sha256((out_dir / "report.json").read_bytes()).hexdigest()[:8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out", help="root directory for per-config outputs")
    parser.add_argument(
        "--only", default=None, help="substring filter on config file names"
    )
    args = parser.parse_args(argv)

    configs = sorted(CONFIG_DIR.glob("*.json"))
    if args.only is not None:
        configs = [p for p in configs if args.only in p.stem]
    if not configs:
        print("no configs matched", file=sys.stderr)
        return 2

    worst = 0
    outcomes = []
    for path in configs:
        out_dir = Path(args.out) / path.stem
        started = time.perf_counter()
        code = cli_main(["run", str(path), "--out", str(out_dir)])
        elapsed = time.perf_counter() - started
        digest = report_digest(out_dir) if code <= 1 else "-"
        outcomes.append((path.stem, code, elapsed, digest))
        worst = max(worst, code)

    width = max(len(name) for name, _, _, _ in outcomes)
    print()
    for name, code, elapsed, digest in outcomes:
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{name:<{width}}  {status:<7} {elapsed:7.1f}s  {digest}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
