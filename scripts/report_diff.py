#!/usr/bin/env python3
"""Compare what two source trees report on the digest-sweep matrix.

    python scripts/report_diff.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts. Each tree
runs every run of digest_sweep.matrix() through gsaudit.cli.main in its own
interpreter, with PYTHONPATH set to the tree, into a temporary directory.
Per run the script prints the two exit codes and, for report.json and
summary.csv each, whether its bytes are the same. Then come the largest
relative move |new - old| / max(|old|, |new|) of the numbers on each JSON
path of report.json, and each path with a value that becomes or stops being
0, whose type changes, such as "-inf" becoming a float, or that only one side
has, once with its count and its first pair of values; both fold list
indices to []. A run that wrote no report (exit 2 and 3) is compared by its
stderr. It takes about 30 s.
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


def _folded(path: str) -> str:
    return re.sub(r"\[\d+\]", "[]", path)


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
                folded = _folded(p)
                moves[folded] = max(moves.get(folded, 0.0), abs(b - a) / max(abs(a), abs(b)))
        elif type(a) is not type(b) or a != b:
            # a number to or from 0, a type change or a changed string
            changes.append((p, a, b))

    walk(old, new, "$")
    return moves, changes


def fold(changes) -> list:
    """(path, count, old, new) per path of changes, list indices folded to
    [], in first-seen order, with the first pair of values on the path."""
    folded = {}
    for path, a, b in changes:
        key = _folded(path)
        count, x, y = folded.get(key, (0, a, b))
        folded[key] = (count + 1, x, y)
    return [(path, *rest) for path, rest in folded.items()]


def _outputs(run: Path) -> tuple:
    # (exit code, parsed report or stderr text, bytes per output) of one run
    meta = json.loads((run / "run.json").read_text())
    if meta["code"] > 1:
        return meta["code"], meta["stderr"], {"stderr": meta["stderr"].encode()}
    files = {name: (run / name).read_bytes() for name in ("report.json", "summary.csv")}
    return meta["code"], json.loads(files["report.json"]), files


def compare(label: str, run_a: Path, run_b: Path) -> tuple:
    """(printed lines, moves, bytes same per output) of one run of both trees."""
    (code_a, a, files_a), (code_b, b, files_b) = _outputs(run_a), _outputs(run_b)
    same = {name: files_a.get(name) == files_b.get(name) for name in sorted(files_a | files_b)}
    verdicts = ", ".join(f"{name} {'same' if ok else 'differs'}" for name, ok in same.items())
    lines = [f"{label} exit {code_a} -> {code_b}: {verdicts}"]
    moves, changes = diff(a, b)
    for path, rel in sorted(moves.items(), key=lambda item: -item[1]):
        lines.append(f"  move {rel:.3g} {path}")
    for path, count, x, y in fold(changes):
        lines.append(f"  change {count}x {path}: {str(x)[:60]} -> {str(y)[:60]}")
    return lines, moves, same


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
        largest, same_runs, wrote_csv, same_csv = 0.0, 0, 0, 0
        labels = json.loads((outs[0] / "runs.json").read_text())
        for label in labels:
            lines, moves, same = compare(label, *(out / label for out in outs))
            print("\n".join(lines))
            same_runs += all(same.values())
            wrote_csv += "summary.csv" in same
            same_csv += same.get("summary.csv", False)
            largest = max([largest, *moves.values()])
        print(
            f"{same_runs} of {len(labels)} runs with the same bytes; summary.csv the same in "
            f"{same_csv} of the {wrote_csv} runs that write it; largest relative move {largest:.3g}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
