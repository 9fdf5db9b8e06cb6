#!/usr/bin/env python3
"""Benchmark for gsaudit: end-to-end timings of `gsaudit run`, and a traced
per-layer breakdown.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--pipeline-seed N]

Each workload launches one fresh `gsaudit run` process per config, the way a
user runs the console script, from this checkout's `src/`. With `--trace 0`
it repeats the workload while one more run is expected to end within
`--seconds` (at least once), and reports the end-to-end metrics of
BENCHMARK.json as medians over the repeats. With
`--trace 1` it runs the workload once untraced and once traced, and reports
the per-layer metrics of BENCHMARK.json from the traced run's spans.

Every process's outputs are checked: report.json must agree with the exit
code and the seed, summary.csv must hold the report's rows, and every run of
the same config and seed, traced or not, must write a byte-identical
report.json. A run whose process exits non-zero, or whose report differs,
is failed: it counts in `failed`, is never retried, and is left out of the
timing metrics. The benchmark exits 1 when an output check fails, and 2
without a result when it cannot find the program.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "scripts" / "configs"
WORK = ROOT / ".bench_build" / "perfbench"
CHILD = HERE / "child.py"
SPEC_PATH = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from tracer import LAYERS, self_times  # noqa: E402

# Set-up time is reported as a median over at least this many processes per
# config; set-up-only processes make up the count.
SETUP_SAMPLES = 5
# Every process is killed once a workload has run this long, so the
# benchmark ends within its 180 s allowance.
WORKLOAD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    configs: tuple
    threads: int
    # True: --seed reaches gsaudit. False: the config's committed seed is
    # timed, because the uncertainty pipelines' run time jumps between seeds
    # (series_bound costs 0 s on some functions and ~7 s on others), which
    # would swamp any code change; --pipeline-seed overrides it.
    seeded: bool


WORKLOADS = {
    "uncertainty-t1": Workload(("uncertainty.json",), 1, False),
    "decay-t2": Workload(("uncertainty_decay.json",), 2, False),
    "side-audits": Workload(
        ("lemma_suite.json", "smoothing_validate.json", "observability.json"), 1, True
    ),
}


@dataclass
class Proc:
    config: str
    seed: int
    mode: str
    out: Path
    code: int
    launched: float
    exited: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    spans: list | None
    rows: int = 0


@dataclass
class Execution:
    """One run of a workload: one process per config, in sequence."""

    procs: list
    failed: bool = False

    @property
    def wall(self) -> float:
        return self.procs[-1].exited - self.procs[0].launched

    @property
    def setup(self) -> float:
        return sum(p.setup_s for p in self.procs)


def launch(config: str, seed: int, threads: int, out: Path, mode: str, deadline: float) -> Proc:
    """Run one child process to completion and collect its resource usage."""
    out.mkdir(parents=True, exist_ok=True)
    sidecar = out / "sidecar.json"
    argv = [
        sys.executable, str(CHILD), str(sidecar), mode, "--",
        "run", str(CONFIGS / config), "--out", str(out),
        "--threads", str(threads), "--seed", str(seed),
    ]
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        launched = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - launched), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        exited = time.monotonic()
        timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    marks = {}
    if sidecar.exists():
        marks = json.loads(sidecar.read_text(encoding="utf-8"))
    setup_end = marks.get("setup_end")
    return Proc(
        config=config,
        seed=seed,
        mode=mode,
        out=out,
        code=code,
        launched=launched,
        exited=exited,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=None if setup_end is None else setup_end - launched,
        spans=marks.get("spans"),
    )


def check(proc: Proc, digests: dict) -> tuple:
    """Output checks for one audit process: (failure or None, check errors)."""
    where = f"{proc.config} seed={proc.seed} ({proc.mode})"
    if proc.code not in (0, 1):
        lines = (proc.out / "stderr.txt").read_text(encoding="utf-8", errors="replace").splitlines()
        return f"{where}: exit {proc.code}: {lines[-1] if lines else 'no message'}", []
    report_path = proc.out / "report.json"
    if not report_path.exists():
        return f"{where}: exit {proc.code}", [f"{where}: exit {proc.code} without report.json"]
    raw = report_path.read_bytes()
    report = json.loads(raw)
    errors = []
    if report["passed"] != (proc.code == 0):
        errors.append(f"{where}: exit {proc.code} but report passed={report['passed']}")
    if report["config"]["seed"] != proc.seed:
        errors.append(f"{where}: report seed {report['config']['seed']}")
    proc.rows = max(len((proc.out / "summary.csv").read_bytes().splitlines()) - 1, 0)
    if proc.rows != len(report["summary_rows"]):
        errors.append(f"{where}: summary.csv rows differ from report summary_rows")
    digest = hashlib.sha256(raw).hexdigest()
    first = digests.setdefault((proc.config, proc.seed), digest)
    if digest != first:
        errors.append(f"{where}: report.json sha256 {digest} differs from {first}")
    failure = None
    if proc.code == 1:
        failure = f"{where}: exit 1 (failing step: {report['failed_step']})"
    elif errors:
        failure = errors[0]
    return failure, errors


class Runner:
    """Runs one workload and gathers its processes, failures and checks."""

    def __init__(self, name: str, seed: int | None, pipeline_seed: int | None):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.deadline = time.monotonic() + WORKLOAD_LIMIT_S
        chosen = seed if self.workload.seeded else pipeline_seed
        self.seeds = {
            config: chosen if chosen is not None else committed_seed(config)
            for config in self.workload.configs
        }
        self.digests = {}
        self.errors = []
        self.failures = []
        self.executions = []
        self.setup = defaultdict(list)
        self._count = 0

    def _launch(self, config: str, mode: str) -> Proc:
        self._count += 1
        out = self.work / f"{self._count:03d}-{mode}-{Path(config).stem}"
        proc = launch(config, self.seeds[config], self.workload.threads, out, mode, self.deadline)
        if proc.setup_s is not None:
            self.setup[config].append(proc.setup_s)
        return proc

    def execute(self, mode: str) -> Execution:
        ex = Execution([self._launch(config, mode) for config in self.workload.configs])
        for proc in ex.procs:
            failure, errors = check(proc, self.digests)
            self.errors += errors
            if failure is not None:
                ex.failed = True
                self.failures.append(failure)
        self.executions.append(ex)
        return ex

    def probe_setup(self, samples: int):
        """Set-up-only processes until each config has `samples` set-up times."""
        for config in self.workload.configs:
            while len(self.setup[config]) < samples:
                proc = self._launch(config, "setup")
                if proc.code != 0 or proc.setup_s is None:
                    self.errors.append(f"{config}: set-up probe exited {proc.code}")
                    break

    def warm(self):
        """One untimed set-up so that bytecode caches exist before timing."""
        self._launch(self.workload.configs[0], "setup")
        self.setup.clear()


def committed_seed(config: str) -> int:
    return json.loads((CONFIGS / config).read_text(encoding="utf-8"))["seed"]


def end_to_end(runner: Runner) -> dict:
    """Metric name -> (value, sample count); value None without samples."""
    good = [e for e in runner.executions if not e.failed and e.procs[0].mode == "run"]

    def med(values):
        return (statistics.median(values) if values else None), len(values)

    setups = [runner.setup[c] for c in runner.workload.configs]
    setup = (
        (sum(statistics.median(s) for s in setups), min(len(s) for s in setups))
        if all(setups)
        else (None, 0)
    )
    return {
        "wall_s": med([e.wall for e in good]),
        "setup_s": setup,
        "cases_per_s": med([sum(p.rows for p in e.procs) / (e.wall - e.setup) for e in good]),
        "cpu_s": med([sum(p.cpu_s for p in e.procs) for e in good]),
        "peak_rss_mb": med([max(p.rss_mb for p in e.procs) for e in good]),
    }


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer(traced: Execution, untraced: Execution) -> dict:
    """Per-layer metrics of one traced run; counts and times are per run."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    sums = defaultdict(int)
    orders = set()
    instances = []
    for proc in traced.procs:
        for name, duration, own, extra in self_times(proc.spans or []):
            calls[name] += 1
            self_s[name] += own
            for key, value in (extra or {}).items():
                if key == "order":
                    orders.add(value)
                else:
                    sums[f"{name}.{key}"] += value
            if name == "uncertainty.instance":
                instances.append(duration)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for _, _, name, _ in LAYERS:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    nodes = "hermite.interval_nodes"
    good_ball = "local_estimates.good_ball_test"
    witness = "local_estimates.pointwise_witness"
    mk = "local_estimates.mk_bruteforce"
    metrics.update(
        {
            f"{nodes}.nodes": sums[f"{nodes}.nodes"],
            f"{nodes}.useful_ratio": ratio(len(orders), calls[nodes]),
            "local_estimates.good_ratio": ratio(sums[f"{good_ball}.good"], calls[good_ball]),
            f"{witness}.refined_ratio": ratio(sums[f"{witness}.refined"], calls[witness]),
            f"{mk}.samples": sums[f"{mk}.samples"],
            f"{mk}.rounds": sums[f"{mk}.rounds"],
            "local_estimates.series_bound.terms": sums["local_estimates.series_bound.terms"],
            "geometry.besicovitch_cover.balls": sums["geometry.besicovitch_cover.balls"],
            "cli.write_outputs.bytes": sums["cli.write_outputs.bytes"],
            "uncertainty.instance_s.p50": percentile(instances, 0.5),
            "uncertainty.instance_s.p95": percentile(instances, 0.95),
            "trace.overhead": traced.wall / untraced.wall,
        }
    )
    return metrics


def stamp() -> dict:
    """Where the numbers come from: commit, toolchain and machine."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = got.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    return {
        "commit": commit,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def run_workload(name: str, args, spec: dict) -> dict:
    runner = Runner(name, args.seed, args.pipeline_seed)
    runner.warm()
    start = time.monotonic()
    if args.trace:
        untraced = runner.execute("run")
        traced = runner.execute("trace")
    else:
        # Repeat while one more run is expected to end within --seconds.
        while True:
            runner.execute("run")
            elapsed = time.monotonic() - start
            if elapsed * (1 + 1 / len(runner.executions)) > args.seconds:
                break
        runner.probe_setup(SETUP_SAMPLES)
    attempted = len(runner.executions)
    failed = sum(1 for e in runner.executions if e.failed)
    seeds = ", ".join(f"{Path(c).stem}={s}" for c, s in runner.seeds.items())
    print(f"== {name}: threads {runner.workload.threads}, seeds {seeds}, trace {args.trace}")
    for failure in runner.failures:
        print(f"FAILED {failure}")
    for error in runner.errors:
        print(f"CHECK {error}")
    for (config, seed), digest in sorted(runner.digests.items()):
        print(f"digest {name} seed={seed} {config} sha256={digest}")

    values = {}
    if args.trace:
        if untraced.failed or traced.failed:
            layer = {m["name"]: None for m in spec["per_layer"]}
        else:
            layer = per_layer(traced, untraced)
        for metric in spec["per_layer"]:
            value = layer[metric["name"]]
            values[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<45} {fmt(value):>14} {metric['unit']}")
    else:
        e2e = end_to_end(runner)
        for metric in spec["end_to_end"]:
            value, n = e2e[metric["name"]]
            values[metric["name"]] = {"value": value, "unit": metric["unit"]}
            print(f"  {metric['name']:<14} {fmt(value):>14} {metric['unit']:<5} median, n={n}")
        print(f"  {'failed_frac':<14} {fmt(failed / attempted):>14} ratio {failed} of {attempted} runs")

    record = {
        "workload": name,
        "seed": args.seed,
        "gsaudit_seeds": runner.seeds,
        "trace": args.trace,
        "seconds": args.seconds,
        "stamp": stamp(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": runner.failures,
        "check_errors": runner.errors,
        "digests": {f"{c}@{s}": d for (c, s), d in sorted(runner.digests.items())},
        "metrics": values,
        "runs": [
            {
                "mode": e.procs[0].mode,
                "failed": e.failed,
                "wall_s": e.wall,
                "exit_codes": [p.code for p in e.procs],
                "setup_s": [p.setup_s for p in e.procs],
                "cpu_s": [p.cpu_s for p in e.procs],
                "rss_mb": [p.rss_mb for p in e.procs],
            }
            for e in runner.executions
        ],
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    seed_tag = "committed" if args.seed is None else args.seed
    (records / f"{name}-seed{seed_tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    return {
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": values,
    }


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gsaudit benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=None,
        help="gsaudit seed for side-audits (default: each config's own seed)",
    )
    parser.add_argument(
        "--pipeline-seed", type=int, default=None,
        help="gsaudit seed for uncertainty-t1 and decay-t2 (default: the committed seed)",
    )
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SPEC_PATH, ROOT / "src" / "gsaudit" / "cli.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"benchmark: cannot find {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, spec) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
