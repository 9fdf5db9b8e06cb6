"""Declarative experiments behind the CLI: config in, audited tables out.

Each experiment kind resolves a JSON config against a versioned schema: one
table declares the type, default and range of every field, per kind, per
nested section and per sensor type, and one resolver reads it. A field that
is unknown, missing, ill-typed, non-finite or out of range aborts with its
path named. The kind then runs its audit and returns a full report plus flat
summary rows. All randomness flows from the single config seed, so a fixed
seed reproduces the report byte for byte.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import __version__
from .geometry import (
    FullSpaceSensorSet,
    IntervalSensorSet,
    RadiusProfile,
    sensor_decaying_density,
    sensor_periodic,
)
from .hermite import (
    MAX_DEGREE,
    Ball,
    NumericalError,
    SpectralFunction,
    evaluate,
    norm_squared_on_ball,
    norm_squared_on_intervals,
    weighted_norm,
)
from .local_estimates import (
    analyticity_check,
    local_estimate_check,
    mk_bruteforce,
    series_bound,
)
from .observability import MAX_TRUNCATION, observability_scan
from .semigroup import (
    SMOOTHING_SLACK,
    SMOOTHING_T0,
    fit_gs_bound,
    fit_smoothing_certificate,
    harmonic_flow,
    shubin_exponents,
    shubin_galerkin_flow,
    validate_smoothing,
)
from .uncertainty import (
    STEPS,
    PipelineError,
    _jsonable,
    k_effective_spread,
    k_effective_sweep,
)

__all__ = [
    "ConfigError",
    "EXPERIMENT_KINDS",
    "ExperimentResult",
    "NonConvergenceError",
    "SCHEMA_VERSION",
    "resolve_config",
    "run_experiment",
]

SCHEMA_VERSION = 1

# listing order is the stable CLI order
EXPERIMENT_KINDS = {
    "smoothing-validate": "Fit a Shubin smoothing certificate and validate it on held-out times.",
    "uncertainty": "Constant-density uncertainty audit across an eps grid of sensor cases.",
    "uncertainty-decay": "Uncertainty audit with polynomially decaying sensor density.",
    "observability": "Empirical observability constants over a T-grid, checked against the full line.",
    "lemma-suite": "Series bound grid, local-estimate ensemble, and analyticity checks.",
}


class ConfigError(ValueError):
    """Invalid experiment config; .field names the offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class NonConvergenceError(NumericalError):
    """A numerical routine failed to stabilize (exit code 3 at the CLI)."""


# ---------------------------------------------------------------------------
# config resolution
#
# Every config field is declared once in the tables below as (rule, default).
# A rule takes a raw value and its field path, and returns the resolved value
# or raises ConfigError naming that path. REQUIRED marks a field without a
# default; a None default marks an optional field that resolve_config fills.

REQUIRED = ...


def _expect(value, kinds, noun: str, name: str):
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(name, f"expected {noun}, got {type(value).__name__}")


def _bound(name: str, value, lo=None, hi=None, open_lo=False, open_hi=False):
    if lo is not None and (value <= lo if open_lo else value < lo):
        raise ConfigError(name, f"must be {'>' if open_lo else '>='} {lo}, got {value}")
    if hi is not None and (value >= hi if open_hi else value > hi):
        raise ConfigError(name, f"must be {'<' if open_hi else '<='} {hi}, got {value}")


def _integer(lo=None, hi=None):
    def rule(value, name):
        _expect(value, int, "an integer", name)
        _bound(name, value, lo, hi)
        return value
    return rule


def _number(lo=None, hi=None, open_lo=False, open_hi=False):
    def rule(value, name):
        _expect(value, (int, float), "a number", name)
        try:
            value = float(value)
        except OverflowError:  # an integer literal past the float range
            raise ConfigError(name, "must be finite, got an integer beyond the float range") from None
        # json.load accepts NaN and Infinity, and NaN passes every range check
        if not math.isfinite(value):
            raise ConfigError(name, f"must be finite, got {value}")
        _bound(name, value, lo, hi, open_lo, open_hi)
        return value
    return rule


def _choice(options):
    def rule(value, name):
        _expect(value, str, "a string", name)
        if value not in options:
            raise ConfigError(name, f"unknown {value!r}; expected one of {', '.join(options)}")
        return value
    return rule


def _list_of(entry):
    """A nonempty list whose i-th entry follows `entry` at path name[i]."""
    def rule(value, name):
        _expect(value, list, "a list", name)
        if not value:
            raise ConfigError(name, "must be nonempty")
        return [entry(v, f"{name}[{i}]") for i, v in enumerate(value)]
    return rule


def _numbers(lo=None, hi=None, open_lo=False, open_hi=False):
    """A nonempty list of numbers: `lo` is checked at each entry, `hi` at the list."""
    entries = _list_of(_number(lo, open_lo=open_lo))

    def rule(value, name):
        values = entries(value, name)
        for v in values:
            _bound(name, v, hi=hi, open_hi=open_hi)
        return values
    return rule


def _interval(value, name):
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(name, "expected [start, end]")
    a, b = (_number()(v, name) for v in value)
    if not b > a:
        raise ConfigError(name, "end must exceed start")
    return [a, b]


def _resolve(table: dict, data: dict, name: str) -> dict:
    prefix = f"{name}." if name else ""
    for key in data:
        if key not in table:
            raise ConfigError(prefix + key, "unknown field")
    out = {}
    for field, (rule, default) in table.items():
        value = data.get(field, default)
        if value is REQUIRED:
            raise ConfigError(prefix + field, "missing required field")
        out[field] = None if value is None and default is None else rule(value, prefix + field)
    return out


def _fields(table: dict):
    def rule(value, name):
        _expect(value, dict, "an object", name)
        return _resolve(table, value, name)
    return rule


def _union(head: dict, tag: str, tables: dict):
    """An object whose `tag`, one of the `head` fields, picks the table of
    its other fields; the head fields are checked first."""
    def rule(value, name):
        _expect(value, dict, "an object", name)
        picked = _resolve(head, {k: v for k, v in value.items() if k in head}, name)[tag]
        return _resolve({**head, **tables[picked]}, value, name)
    return rule


def _sensor(types: dict):
    return _union({"type": (_choice(types), REQUIRED)}, "type", types)


_GAMMA0 = (_number(0.0, 1.0, open_lo=True), REQUIRED)
_DECAY_A = (_number(lo=0.0), REQUIRED)
_EXTENT = (_number(lo=1.0), 400.0)
_SENSORS = {
    "full": {},
    "periodic": {
        "period": (_number(lo=0.0, open_lo=True), REQUIRED),
        "fill": (_number(0.0, 1.0, open_lo=True), REQUIRED),
        "extent": _EXTENT,
    },
    "intervals": {"intervals": (_list_of(_interval), REQUIRED)},
    "decaying": {"gamma0": _GAMMA0, "a": _DECAY_A, "extent": _EXTENT},
}
_SENSOR = _sensor(_SENSORS)
# only the lemma ensemble draws random interval sensors
_LOCAL_SENSOR = _sensor({**_SENSORS, "random-intervals": {}})

_PROFILE = {
    "R": (_number(lo=1.0), 1.0),
    "delta": (_number(0.0, 1.0), 0.0),
    "eta": (_number(0.0, 1.0, open_lo=True, open_hi=True), 0.5),
    "r0": (_number(lo=1.0), 1.0),
}
_FUNCTION = {
    "degree": (_integer(0, 40), 12),
    "t": (_number(lo=0.0), 0.3),
    "nu": (_number(lo=0.0), 0.5),
    "mu": (_number(lo=0.0), 0.5),
}
_SWEEP = {
    "function": (_fields(_FUNCTION), {}),
    "profile": (_fields(_PROFILE), {}),
    "eps_grid": (_numbers(0.0, 1.0, open_lo=True), [0.1]),
}
_CASE = {"sensor": (_SENSOR, REQUIRED), "gamma": (_number(0.0, 1.0, open_lo=True), REQUIRED)}
_DECAY_CASE = {"gamma0": _GAMMA0, "a": _DECAY_A, "sensor": (_SENSOR, None)}
_SERIES = {
    "d_grid": (_numbers(lo=0.5), [0.5, 1.0, 2.0, 5.0]),
    "s_grid": (_numbers(0.0, 1.0, open_hi=True), [0.0, 0.25, 0.5, 0.9]),
}
# the local ensemble draws degrees from [_LOCAL_MIN_DEGREE, max_degree]
_LOCAL_MIN_DEGREE = 4
_LOCAL = {
    "n_triples": (_integer(1, 500), 30),
    "max_degree": (_integer(_LOCAL_MIN_DEGREE, 40), 40),
    "min_density": (_number(0.0, 1.0, open_lo=True), 0.1),
    "sensors": (_list_of(_LOCAL_SENSOR), [{"type": "periodic", "period": 1.0, "fill": 0.5}]),
}
_ANALYTICITY = {
    "n_cases": (_integer(0, 50), 3),
    "degree": (_integer(1, 40), 10),
    # fraction of the lemma radius 1/(2 C2) used for the Taylor audit
    "tau_scale": (_number(0.0, 1.0, open_lo=True), 1.0),
}
_KINDS = {
    "smoothing-validate": {
        "k": (_integer(1, 3), 1),
        "m": (_integer(1, 3), 1),
        "theta": (_number(lo=0.0, open_lo=True), 1.0),
        "degree": (_integer(0, 32), 8),
        "n_seeds": (_integer(1, 16), 3),
        "fit_times": (_numbers(0.0, 1.0, open_lo=True, open_hi=True), [0.1, 0.2]),
        "validate_times": (_numbers(lo=0.0, open_lo=True), [0.15, 0.3]),
        "n_trunc": (_integer(8, MAX_DEGREE), 64),
        "grid_cap": (_integer(1, 16), 8),
    },
    "uncertainty": {**_SWEEP, "cases": (_list_of(_fields(_CASE)), REQUIRED)},
    "uncertainty-decay": {**_SWEEP, "cases": (_list_of(_fields(_DECAY_CASE)), REQUIRED)},
    "observability": {
        "sensors": (_list_of(_SENSOR), [{"type": "full"}]),
        "t_grid": (_numbers(lo=0.0, open_lo=True), [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]),
        "n_trunc": (_integer(1, MAX_TRUNCATION), 40),
    },
    "lemma-suite": {
        "series": (_fields(_SERIES), {}),
        "local": (_fields(_LOCAL), {}),
        "analyticity": (_fields(_ANALYTICITY), {}),
        "profile": (_fields(_PROFILE), {}),
    },
}
_HEADER = {
    "schema_version": (_integer(SCHEMA_VERSION, SCHEMA_VERSION), REQUIRED),
    "kind": (_choice(_KINDS), REQUIRED),
    "seed": (_integer(lo=0), 0),
}
_CONFIG = _union(_HEADER, "kind", _KINDS)


def _build_sensor(spec: dict, profile: RadiusProfile):
    if spec["type"] == "full":
        return FullSpaceSensorSet("full line")
    if spec["type"] == "periodic":
        return sensor_periodic(spec["period"], spec["fill"], extent=spec["extent"])
    if spec["type"] == "intervals":
        return IntervalSensorSet(spec["intervals"], "config intervals")
    return sensor_decaying_density(spec["gamma0"], spec["a"], profile, extent=spec["extent"])


def resolve_config(data) -> dict:
    """Check a raw config dict against the field tables and fill defaults.

    Raises ConfigError naming the first field that is unknown, missing,
    ill-typed, non-finite or out of range.
    """
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    cfg = _CONFIG(data, "")
    # the rules that compare fields with each other
    if cfg["kind"] == "smoothing-validate":
        if not cfg["theta"] > 1.0 / (2 * cfg["m"]):
            raise ConfigError("theta", "must exceed 1/(2m)")
        if cfg["n_trunc"] < cfg["degree"]:
            raise ConfigError(
                "n_trunc", f"must be >= degree = {cfg['degree']}, got {cfg['n_trunc']}"
            )
        if not min(cfg["validate_times"]) < SMOOTHING_T0:
            raise ConfigError(
                "validate_times", f"needs an entry below the certificate's t0 = {SMOOTHING_T0}"
            )
    if cfg["kind"] == "observability":
        t = cfg["t_grid"]
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ConfigError("t_grid", "must be strictly increasing")
    if cfg["kind"] == "uncertainty-decay":
        # a case without a sensor gets the decaying density it names
        for i, case in enumerate(cfg["cases"]):
            if case["sensor"] is None:
                spec = {"type": "decaying", "gamma0": case["gamma0"], "a": case["a"]}
                case["sensor"] = _SENSOR(spec, f"cases[{i}].sensor")
    return cfg


# ---------------------------------------------------------------------------
# runners
#
# Each runner returns (payload, rows, failed_step): the step a failing run
# names, None when it passes. A row's keys, in order, are the CSV columns.


def _random_expansion(rng, degree: int) -> SpectralFunction:
    coeffs = rng.standard_normal(degree + 1)
    coeffs /= np.linalg.norm(coeffs)
    return SpectralFunction(coeffs)


def _prepare_function(cfg: dict):
    spec = cfg["function"]
    g = _random_expansion(default_rng(cfg["seed"]), spec["degree"])
    f = harmonic_flow(g, spec["t"]) if spec["t"] > 0 else g
    if f.norm_squared() == 0:
        raise ConfigError("function.t", f"the flow to t = {spec['t']} underflows f to zero")
    bound = fit_gs_bound(f, spec["nu"], spec["mu"])
    f_id = f"flow(seed={cfg['seed']},deg={spec['degree']},t={spec['t']})"
    return f, bound, f_id


def _run_uncertainty(cfg: dict):
    """Both uncertainty kinds: every sensor case at every eps, in one sweep.
    A case's fields other than its sensor are the density the sweep reads.
    Every failing step raises PipelineError, so a sweep that returns has passed."""
    profile = RadiusProfile(**cfg["profile"])
    f, bound, f_id = _prepare_function(cfg)
    cases = []
    for case in cfg["cases"]:
        omega = _build_sensor(case["sensor"], profile)
        density = {k: v for k, v in case.items() if k != "sensor"}
        cases += [{"omega": omega, "eps": eps, **density} for eps in cfg["eps_grid"]]
    reports = []
    rows = k_effective_sweep(f, bound, profile, cases, f_id=f_id, reports_out=reports)
    payload = {"reports": reports}
    if cfg["kind"] == "uncertainty":
        payload["spread"] = k_effective_spread(rows)
    return payload, rows, None


def _run_observability(cfg: dict):
    profile = RadiusProfile()
    rows, reports = [], []
    for spec in cfg["sensors"]:
        omega = _build_sensor(spec, profile)
        report = observability_scan(omega, cfg["t_grid"], cfg["n_trunc"])
        reports.append(report)
        for t, c_obs, conditioning in zip(report.t_grid, report.c_obs, report.conditioning):
            rows.append(
                {
                    "omega_id": report.omega_id,
                    "n_trunc": report.n_trunc,
                    "T": t,
                    "c_obs": c_obs,
                    "conditioning": conditioning,
                    "passed": report.passed,
                    "x": t,
                    "y": c_obs,
                }
            )
    step = next(("full-line" if r.monotone else "monotone" for r in reports if not r.passed), None)
    return {"reports": reports}, rows, step


def _run_smoothing_validate(cfg: dict):
    nu, mu = shubin_exponents(cfg["k"], cfg["m"], cfg["theta"])
    nu, mu = float(nu), float(mu)
    rng = default_rng(cfg["seed"])
    ensemble = [_random_expansion(rng, cfg["degree"]) for _ in range(cfg["n_seeds"])]

    flow = functools.partial(
        shubin_galerkin_flow, k=cfg["k"], m=cfg["m"], theta=cfg["theta"], n_trunc=cfg["n_trunc"]
    )
    cert = fit_smoothing_certificate(
        flow, ensemble, cfg["fit_times"], nu, mu, grid_cap=cfg["grid_cap"]
    )
    report = validate_smoothing(
        cert, flow, ensemble, cfg["validate_times"], grid_cap=cfg["grid_cap"]
    )
    rows = [
        {
            "k": cfg["k"],
            "m": cfg["m"],
            "theta": cfg["theta"],
            "t": t,
            "worst_ratio": ratio,
            "passed": ratio <= 1.0 + SMOOTHING_SLACK,
            "x": t,
            "y": ratio,
        }
        for t, ratio in sorted(report.worst_by_time.items())
    ]
    payload = {
        "exponents": {"nu": nu, "mu": mu},
        "certificate": {
            "C": cert.C,
            "t0": cert.t0,
            "r1": cert.r1,
            "r2": cert.r2,
            "fitted_t_grid": list(cert.fitted_t_grid),
        },
        "validation": {
            "worst_ratio": report.worst_ratio,
            "worst_case": list(report.worst_case),
            "n_checked": report.n_checked,
            "skipped_times": list(report.skipped_times),
        },
    }
    return payload, rows, None if report.passed else "validation"


def _lemma_series_rows(cfg: dict):
    rows = []
    for d in cfg["d_grid"]:
        for s in cfg["s_grid"]:
            result = series_bound(d, s)
            ok = result.remainder_certified and result.log_sum <= result.log_bound + STEPS["mk-bound"]
            rows.append(
                {
                    "section": "series",
                    "case": f"D={d},s={s}",
                    "x": d,
                    "y": result.log_bound - result.log_sum,
                    "passed": ok,
                }
            )
    return rows


def _argmax_on_ball(f: SpectralFunction, ball: Ball) -> float:
    a, b = ball.interval()
    grid = np.linspace(a, b, 512)
    values = np.abs(evaluate(f, grid))
    return float(grid[int(np.argmax(values))])


def _lemma_local_rows(cfg: dict, profile: RadiusProfile, rng):
    sensors = []
    for spec in cfg["sensors"]:
        if spec["type"] == "random-intervals":
            # scattered short intervals; density against any unit window stays
            # positive with high probability, thin draws are skipped below
            pieces = np.sort(rng.uniform(-8.0, 8.0, size=60))
            lengths = rng.uniform(0.1, 0.4, size=60)
            sensors.append(
                IntervalSensorSet(
                    [(p, p + l) for p, l in zip(pieces, lengths)], "random intervals"
                )
            )
        else:
            sensors.append(_build_sensor(spec, profile))
    rows = []
    produced, attempts = 0, 0
    while produced < cfg["n_triples"] and attempts < 60 * cfg["n_triples"]:
        attempts += 1
        degree = int(rng.integers(_LOCAL_MIN_DEGREE, cfg["max_degree"] + 1))
        f = _random_expansion(rng, degree)
        center = float(rng.uniform(-3.0, 3.0))
        ball = Ball(center, float(profile.rho(center)))
        omega = sensors[attempts % len(sensors)]
        pieces = omega.intersect_interval(*ball.interval())
        if sum(hi - lo for lo, hi in pieces) < cfg["min_density"] * ball.volume:
            continue
        mass = norm_squared_on_ball(f, ball, atol=1e-25 * f.norm_squared())
        if mass <= 1e-16 * f.norm_squared():
            continue
        x_k = _argmax_on_ball(f, ball)
        brute = mk_bruteforce(f, ball, float(profile.rho(x_k)), norm_sq=mass)
        inter = norm_squared_on_intervals(f, pieces)
        check = local_estimate_check(ball, pieces, brute.log_m, mass, inter)
        log_ratio = check.log_lhs - check.log_rhs
        produced += 1
        rows.append(
            {
                "section": "local",
                "case": f"deg={degree},center={center:.3f},{omega.description}",
                "x": float(produced),
                "y": log_ratio,
                "passed": check.applicable and log_ratio >= -STEPS["local-estimate"],
            }
        )
    if produced < cfg["n_triples"]:
        raise NonConvergenceError(
            f"local ensemble produced {produced}/{cfg['n_triples']} admissible triples"
        )
    return rows


def _lemma_analyticity_rows(cfg: dict, rng):
    rows = []
    for i in range(cfg["n_cases"]):
        f = _random_expansion(rng, cfg["degree"])
        c1 = f.norm()
        c2 = 1.0
        for b in range(1, 13):
            w = weighted_norm(f, n=0, beta=b, weight_delta=1.0)
            if w > 0:
                c2 = max(c2, (w / (c1 * math.exp(math.lgamma(b + 1)))) ** (1.0 / b))
        c2 *= 1.05
        y = float(rng.uniform(-1.0, 1.0))
        tau = cfg["tau_scale"] / (2.0 * c2)
        report = analyticity_check(f, c1, c2, y, tau)
        rows.append(
            {
                "section": "analyticity",
                "case": f"deg={cfg['degree']},y={y:.3f}",
                "x": float(i),
                "y": report.final_error,
                "passed": bool(report.premise_passed and report.converged),
            }
        )
    return rows


def _run_lemma_suite(cfg: dict):
    profile = RadiusProfile(**cfg["profile"])
    rng = default_rng(cfg["seed"])
    rows = _lemma_series_rows(cfg["series"])
    rows += _lemma_local_rows(cfg["local"], profile, rng)
    rows += _lemma_analyticity_rows(cfg["analyticity"], rng)
    sections = {}
    for row in rows:
        stats = sections.setdefault(row["section"], {"n": 0, "n_passed": 0})
        stats["n"] += 1
        stats["n_passed"] += bool(row["passed"])
    return {"sections": sections}, rows, next((r["section"] for r in rows if not r["passed"]), None)


_RUNNERS = {
    "smoothing-validate": _run_smoothing_validate,
    "uncertainty": _run_uncertainty,
    "uncertainty-decay": _run_uncertainty,
    "observability": _run_observability,
    "lemma-suite": _run_lemma_suite,
}


@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    passed: bool
    exit_code: int
    report: dict
    rows: list
    columns: list


def run_experiment(config: dict) -> ExperimentResult:
    """Resolve and execute one experiment config.

    Raises ConfigError for invalid configs. Inequality failures inside the
    audits produce exit_code 1, with the failing step in the report's
    failed_step; numerical non-convergence propagates as exceptions for the
    CLI to map to exit code 3.
    """
    resolved = resolve_config(config)
    runner = _RUNNERS[resolved["kind"]]
    try:
        payload, rows, failure = runner(resolved)
    except PipelineError as err:
        payload = {"failed_step": err.step, "error": str(err)}
        rows, failure = [], err.step
    passed = failure is None
    report = _jsonable(
        {
            "artifact_version": __version__,
            "config": resolved,
            "kind": resolved["kind"],
            "passed": passed,
            "failed_step": failure,
            "results": payload,
            "summary_rows": rows,
        }
    )
    return ExperimentResult(
        kind=resolved["kind"],
        passed=passed,
        exit_code=0 if passed else 1,
        report=report,
        rows=rows,
        columns=list(rows[0]) if rows else [],
    )
