"""One `gsaudit` process, run the way the console script runs it.

    python3 perfbench/child.py SIDECAR {run,setup,trace} -- <gsaudit arguments>

It imports gsaudit from this checkout's `src/` and calls `gsaudit.cli.main`
with the arguments after `--`. The only hook in every mode is a wrapper on
`experiments.resolve_config` that notes the moment set-up ends: interpreter
start, imports, config read and resolved. Modes:

- `run`: the plain audit.
- `setup`: stop right after the config is resolved; no audit runs.
- `trace`: the audit with every layer function in `tracer.LAYERS` wrapped.

The sidecar JSON gets the set-up end on the system-wide monotonic clock, the
exit code and, when tracing, the spans. The process exits with gsaudit's code.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]


class SetupDone(Exception):
    """Raised in `setup` mode once the config is resolved."""


def main() -> int:
    sidecar, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit("usage: child.py SIDECAR {run,setup,trace} -- ARGS")
    import gsaudit
    from gsaudit import cli, experiments

    if not Path(gsaudit.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gsaudit imported from {gsaudit.__file__}, not from {SRC}")
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marks = {}
    resolve = experiments.resolve_config

    def resolve_config(data):
        resolved = resolve(data)
        marks.setdefault("setup_end", time.monotonic())
        if mode == "setup":
            raise SetupDone
        return resolved

    experiments.resolve_config = resolve_config
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    marks["exit"] = code
    if tracer is not None:
        marks["spans"] = tracer.spans
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
