#!/usr/bin/env python3
"""Run the byte-identity matrix and print one digest line per run.

The matrix is every config in scripts/configs at its committed seed and at
seeds 0-10, plus five variants of uncertainty.json and three of
smoothing_validate.json, each at its committed seed and at seeds 1 and 3:
84 runs. The smoothing variants take the Galerkin flow off its diagonal
k = m = theta = 1 case. Each run goes through gsaudit.cli.main into a
temporary directory. A line reads `run exit digest`: the first 16 hex digits
of the sha256 of report.json and summary.csv, or of the run's stderr when it
wrote neither (exit 2 and 3). Two trees that print the same lines produce
the same bytes on the whole matrix. It takes about 10 s.

    PYTHONPATH=src python scripts/digest_sweep.py
"""

import contextlib
import copy
import hashlib
import io
import json
import tempfile
from pathlib import Path

from gsaudit.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
SEEDS = [None, *range(11)]
VARIANT_SEEDS = [None, 1, 3]
# per config, its variants: the fields replaced, a dict updating its section
VARIANTS = {
    "uncertainty": {
        "t30": {"function": {"t": 30.0}},
        "deg40-t0": {"function": {"degree": 40, "t": 0.0}},
        "R2-r02": {"profile": {"R": 2.0, "r0": 2.0}},
        "delta05": {"profile": {"delta": 0.5}},
        "deg24-delta05": {"function": {"degree": 24}, "profile": {"delta": 0.5}},
    },
    "smoothing_validate": {
        "k2m1": {"k": 2, "m": 1},
        "k1m2": {"k": 1, "m": 2},
        "theta075": {"theta": 0.75},
    },
}


def matrix() -> list:
    """(run name, config dict, seed or None) for every run, in order."""
    runs = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = json.loads(path.read_text())
        runs += [(path.stem, config, seed) for seed in SEEDS]
    for stem, variants in VARIANTS.items():
        base = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
        for name, changes in variants.items():
            config = copy.deepcopy(base)
            for field, value in changes.items():
                if isinstance(value, dict):
                    config[field].update(value)
                else:
                    config[field] = value
            runs += [(f"{stem}-{name}", config, seed) for seed in VARIANT_SEEDS]
    return runs


def run_digest(config: dict, seed, scratch: Path) -> tuple:
    """(exit code, digest) of one CLI run of config in the directory scratch."""
    path = scratch / "config.json"
    path.write_text(json.dumps(config))
    argv = ["run", str(path), "--out", str(scratch / "out")]
    if seed is not None:
        argv += ["--seed", str(seed)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    outputs = [scratch / "out" / name for name in ("report.json", "summary.csv")]
    if code <= 1:
        data = b"".join(p.read_bytes() for p in outputs)
    else:
        data = stderr.getvalue().encode()
    for p in outputs:
        p.unlink(missing_ok=True)
    return code, hashlib.sha256(data).hexdigest()[:16]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, seed in matrix():
            code, digest = run_digest(config, seed, Path(tmp))
            label = name if seed is None else f"{name}@{seed}"
            print(f"{label} {code} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
