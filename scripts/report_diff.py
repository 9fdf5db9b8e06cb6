#!/usr/bin/env python3
"""Compare what two source trees report on the digest-sweep matrix.

    python scripts/report_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts. Each tree
runs every run of digest_sweep.matrix() through gsaudit.cli.main in its own
interpreter, with PYTHONPATH set to the tree, into a temporary directory.
Per run the script prints the two exit codes and whether the outputs are the
same, then the largest relative move |new - old| / max(|old|, |new|) of the
numbers on each JSON path of report.json (list indices folded to []), and
every value that becomes or stops being 0, whose type changes, such as
"-inf" becoming a float, or that only one side has. A run that wrote no report (exit 2 and 3) is compared by
its stderr. It takes about 30 s.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
MISSING = "<missing>"


def collect(out: Path):
    """Run the matrix with the gsaudit on sys.path: run `label` writes its
    outputs and a run.json of its exit code and stderr to out/label, and
    out/runs.json lists the labels in order."""
    sys.path.insert(0, str(SCRIPTS))
    from digest_sweep import matrix
    from gsaudit.cli import main as cli_main

    labels = []
    for name, config, seed in matrix():
        labels.append(name if seed is None else f"{name}@{seed}")
        run = out / labels[-1]
        run.mkdir(parents=True)
        (run / "config.json").write_text(json.dumps(config))
        argv = ["run", str(run / "config.json"), "--out", str(run)]
        argv += [] if seed is None else ["--seed", str(seed)]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        (run / "run.json").write_text(json.dumps({"code": code, "stderr": stderr.getvalue()}))
    (out / "runs.json").write_text(json.dumps(labels))


def diff(old, new) -> tuple:
    """(moves, changes) from the JSON value old to new. moves maps each path
    whose nonzero numbers move, list indices folded to [], to the largest
    relative move on it; changes lists (path, old, new) for every number that
    becomes or stops being 0, every value whose type, or for a non-number
    whose value, differs, and every key or list that only one side has
    (MISSING on the other)."""
    moves, changes = {}, []

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def walk(a, b, p):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(a.keys() | b.keys()):
                if key in a and key in b:
                    walk(a[key], b[key], f"{p}.{key}")
                else:
                    changes.append((f"{p}.{key}", a.get(key, MISSING), b.get(key, MISSING)))
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{p}[{i}]")
        elif number(a) and number(b) and a != 0 and b != 0:
            if a != b:
                folded = re.sub(r"\[\d+\]", "[]", p)
                moves[folded] = max(moves.get(folded, 0.0), abs(b - a) / max(abs(a), abs(b)))
        elif type(a) is not type(b) or a != b:
            # a number to or from 0, a type change or a changed string
            changes.append((p, a, b))

    walk(old, new, "$")
    return moves, changes


def _outputs(run: Path) -> tuple:
    # (exit code, parsed report or stderr text, output bytes) of one run
    meta = json.loads((run / "run.json").read_text())
    if meta["code"] > 1:
        return meta["code"], meta["stderr"], meta["stderr"].encode()
    files = [run / "report.json", run / "summary.csv"]
    return meta["code"], json.loads(files[0].read_text()), b"".join(p.read_bytes() for p in files)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--collect"]:
        collect(Path(argv[1]))
        return 0
    if len(argv) != 2:
        print("usage: report_diff.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for i, src in enumerate(argv):
            outs.append(Path(tmp) / str(i))
            env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
            subprocess.run([sys.executable, __file__, "--collect", str(outs[-1])], env=env, check=True)
        largest, same = 0.0, 0
        labels = json.loads((outs[0] / "runs.json").read_text())
        for label in labels:
            (code_a, a, bytes_a), (code_b, b, bytes_b) = (_outputs(out / label) for out in outs)
            same += bytes_a == bytes_b
            print(f"{label} exit {code_a} -> {code_b} {'same bytes' if bytes_a == bytes_b else 'differs'}")
            moves, changes = diff(a, b)
            for path, rel in sorted(moves.items(), key=lambda item: -item[1]):
                print(f"  move {rel:.3g} {path}")
            for path, x, y in changes:
                print(f"  change {path}: {str(x)[:60]} -> {str(y)[:60]}")
            largest = max([largest, *moves.values()])
        print(f"{same} of {len(labels)} runs with the same bytes; largest relative move {largest:.3g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
