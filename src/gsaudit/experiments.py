"""Declarative experiments behind the CLI: config in, audited tables out.

Each experiment kind resolves a JSON config against a versioned schema
(unknown or ill-typed fields abort with the offending field named), runs the
corresponding audit, and returns a full report plus flat summary rows. All
randomness flows from the single config seed, so a fixed seed reproduces the
report byte for byte regardless of the thread count.
"""

from __future__ import annotations

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
    Ball,
    NumericalError,
    SpectralFunction,
    evaluate,
    norm_squared_on_ball,
    weighted_norm,
)
from .local_estimates import (
    analyticity_check,
    local_estimate_check,
    mk_bruteforce,
    series_bound,
)
from .observability import observability_scan
from .semigroup import (
    fit_gs_bound,
    fit_smoothing_certificate,
    harmonic_flow,
    shubin_exponents,
    shubin_galerkin_flow,
    validate_smoothing,
)
from .uncertainty import (
    PipelineError,
    _jsonable,
    k_effective_spread,
    k_effective_sweep,
    verify_uncertainty_decay,
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
    "observability": "Empirical observability constants over a T-grid with the bound-shape fit.",
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


def _typed(data: dict, field: str, kinds, default=..., context: str = ""):
    name = f"{context}{field}"
    if field not in data:
        if default is ...:
            raise ConfigError(name, "missing required field")
        return default
    value = data[field]
    if isinstance(value, bool) and bool not in (kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ConfigError(name, f"expected {kinds}, got a boolean")
    if not isinstance(value, kinds):
        raise ConfigError(name, f"expected {kinds}, got {type(value).__name__}")
    return value


def _number(data, field, default=..., context="", lo=None, hi=None, strict_lo=False):
    value = _typed(data, field, (int, float), default, context)
    value = float(value)
    name = f"{context}{field}"
    if lo is not None and (value <= lo if strict_lo else value < lo):
        raise ConfigError(name, f"must be {'>' if strict_lo else '>='} {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(name, f"must be <= {hi}, got {value}")
    return value


def _integer(data, field, default=..., context="", lo=None, hi=None):
    value = _typed(data, field, int, default, context)
    name = f"{context}{field}"
    if lo is not None and value < lo:
        raise ConfigError(name, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(name, f"must be <= {hi}, got {value}")
    return int(value)


def _number_list(data, field, default=..., context="", lo=None, strict_lo=False):
    raw = _typed(data, field, list, default, context)
    name = f"{context}{field}"
    if not raw:
        raise ConfigError(name, "grid must be nonempty")
    out = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{name}[{i}]", f"expected a number, got {type(v).__name__}")
        v = float(v)
        if lo is not None and (v <= lo if strict_lo else v < lo):
            raise ConfigError(f"{name}[{i}]", f"must be {'>' if strict_lo else '>='} {lo}")
        out.append(v)
    return out


def _no_unknown(data: dict, allowed, context: str = ""):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"{context}{key}", "unknown field")


def _resolve_profile(data: dict, context: str = "profile.") -> dict:
    _no_unknown(data, {"R", "delta", "eta", "r0"}, context)
    out = {
        "R": _number(data, "R", 1.0, context, lo=1.0),
        "delta": _number(data, "delta", 0.0, context, lo=0.0, hi=1.0),
        "eta": _number(data, "eta", 0.5, context, lo=0.0, strict_lo=True),
        "r0": _number(data, "r0", 1.0, context, lo=1.0),
    }
    if out["eta"] >= 1.0:
        raise ConfigError(f"{context}eta", "must lie in (0, 1)")
    return out


def _resolve_sensor(data: dict, context: str) -> dict:
    kind = _typed(data, "type", str, context=context)
    if kind == "full":
        _no_unknown(data, {"type"}, context)
        return {"type": "full"}
    if kind == "periodic":
        _no_unknown(data, {"type", "period", "fill", "extent"}, context)
        return {
            "type": "periodic",
            "period": _number(data, "period", context=context, lo=0.0, strict_lo=True),
            "fill": _number(data, "fill", context=context, lo=0.0, strict_lo=True, hi=1.0),
            "extent": _number(data, "extent", 400.0, context, lo=1.0),
        }
    if kind == "intervals":
        _no_unknown(data, {"type", "intervals"}, context)
        raw = _typed(data, "intervals", list, context=context)
        if not raw:
            raise ConfigError(f"{context}intervals", "must be nonempty")
        pairs = []
        for i, pair in enumerate(raw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f"{context}intervals[{i}]", "expected [start, end]")
            a, b = pair
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair):
                raise ConfigError(f"{context}intervals[{i}]", "endpoints must be numbers")
            if not float(b) > float(a):
                raise ConfigError(f"{context}intervals[{i}]", "end must exceed start")
            pairs.append([float(a), float(b)])
        return {"type": "intervals", "intervals": pairs}
    if kind == "decaying":
        _no_unknown(data, {"type", "gamma0", "a", "extent"}, context)
        return {
            "type": "decaying",
            "gamma0": _number(data, "gamma0", context=context, lo=0.0, strict_lo=True, hi=1.0),
            "a": _number(data, "a", context=context, lo=0.0),
            "extent": _number(data, "extent", 400.0, context, lo=1.0),
        }
    raise ConfigError(f"{context}type", f"unknown sensor type {kind!r}")


def _build_sensor(spec: dict, profile: RadiusProfile):
    if spec["type"] == "full":
        return FullSpaceSensorSet("full line")
    if spec["type"] == "periodic":
        return sensor_periodic(spec["period"], spec["fill"], extent=spec["extent"])
    if spec["type"] == "intervals":
        return IntervalSensorSet(spec["intervals"], "config intervals")
    return sensor_decaying_density(spec["gamma0"], spec["a"], profile, extent=spec["extent"])


def _resolve_function(data: dict, context: str = "function.") -> dict:
    _no_unknown(data, {"degree", "t", "nu", "mu"}, context)
    return {
        "degree": _integer(data, "degree", 12, context, lo=0, hi=40),
        "t": _number(data, "t", 0.3, context, lo=0.0),
        "nu": _number(data, "nu", 0.5, context, lo=0.0),
        "mu": _number(data, "mu", 0.5, context, lo=0.0),
    }


_COMMON_FIELDS = {"schema_version", "kind", "seed"}


def resolve_config(data) -> dict:
    """Validate a raw config dict and fill defaults; ConfigError on failure."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    version = _typed(data, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"expected {SCHEMA_VERSION}, got {version}")
    kind = _typed(data, "kind", str)
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("kind", f"unknown experiment {kind!r}; see list-experiments")
    seed = _integer(data, "seed", 0, lo=0)
    resolved = {"schema_version": version, "kind": kind, "seed": seed}

    if kind == "smoothing-validate":
        _no_unknown(
            data,
            _COMMON_FIELDS
            | {"k", "m", "theta", "degree", "n_seeds", "fit_times", "validate_times", "n_trunc", "grid_cap"},
        )
        resolved.update(
            k=_integer(data, "k", 1, lo=1, hi=3),
            m=_integer(data, "m", 1, lo=1, hi=3),
            theta=_number(data, "theta", 1.0, lo=0.0, strict_lo=True),
            degree=_integer(data, "degree", 8, lo=0, hi=32),
            n_seeds=_integer(data, "n_seeds", 3, lo=1, hi=16),
            fit_times=_number_list(data, "fit_times", [0.1, 0.2], lo=0.0, strict_lo=True),
            validate_times=_number_list(data, "validate_times", [0.15, 0.3], lo=0.0, strict_lo=True),
            n_trunc=_integer(data, "n_trunc", 64, lo=8, hi=64),
            grid_cap=_integer(data, "grid_cap", 8, lo=1, hi=16),
        )
        if not resolved["theta"] > 1.0 / (2 * resolved["m"]):
            raise ConfigError("theta", "must exceed 1/(2m)")
        if any(not t < 1.0 for t in resolved["fit_times"]):
            raise ConfigError("fit_times", "fitting times must lie in (0, 1)")
        return resolved

    if kind in ("uncertainty", "uncertainty-decay"):
        case_field = "cases"
        _no_unknown(
            data,
            _COMMON_FIELDS | {"function", "profile", case_field, "eps_grid", "m_cap", "witness_grid"},
        )
        resolved["function"] = _resolve_function(_typed(data, "function", dict, {}))
        resolved["profile"] = _resolve_profile(_typed(data, "profile", dict, {}))
        resolved["eps_grid"] = _number_list(data, "eps_grid", [0.1], lo=0.0, strict_lo=True)
        if any(e > 1.0 for e in resolved["eps_grid"]):
            raise ConfigError("eps_grid", "entries must lie in (0, 1]")
        resolved["m_cap"] = _integer(data, "m_cap", 24, lo=0, hi=24)
        resolved["witness_grid"] = _integer(data, "witness_grid", 1024, lo=64, hi=8192)
        raw_cases = _typed(data, case_field, list)
        if not raw_cases:
            raise ConfigError(case_field, "must be nonempty")
        cases = []
        for i, case in enumerate(raw_cases):
            context = f"{case_field}[{i}]."
            if not isinstance(case, dict):
                raise ConfigError(f"{case_field}[{i}]", "expected an object")
            if kind == "uncertainty":
                _no_unknown(case, {"sensor", "gamma"}, context)
                cases.append(
                    {
                        "sensor": _resolve_sensor(
                            _typed(case, "sensor", dict, context=context), context + "sensor."
                        ),
                        "gamma": _number(
                            case, "gamma", context=context, lo=0.0, strict_lo=True, hi=1.0
                        ),
                    }
                )
            else:
                _no_unknown(case, {"sensor", "gamma0", "a"}, context)
                gamma0 = _number(case, "gamma0", context=context, lo=0.0, strict_lo=True, hi=1.0)
                a = _number(case, "a", context=context, lo=0.0)
                sensor = case.get("sensor")
                if sensor is None:
                    spec = {"type": "decaying", "gamma0": gamma0, "a": a, "extent": 400.0}
                else:
                    spec = _resolve_sensor(
                        _typed(case, "sensor", dict, context=context), context + "sensor."
                    )
                cases.append({"sensor": spec, "gamma0": gamma0, "a": a})
        resolved[case_field] = cases
        return resolved

    if kind == "observability":
        _no_unknown(data, _COMMON_FIELDS | {"sensors", "t_grid", "n_trunc", "r2", "s"})
        raw_sensors = _typed(data, "sensors", list, [{"type": "full"}])
        if not raw_sensors:
            raise ConfigError("sensors", "must be nonempty")
        specs = []
        for i, s in enumerate(raw_sensors):
            if not isinstance(s, dict):
                raise ConfigError(f"sensors[{i}]", "expected an object")
            specs.append(_resolve_sensor(s, f"sensors[{i}]."))
        resolved["sensors"] = specs
        t_grid = _number_list(data, "t_grid", [0.05, 0.1, 0.25, 0.5, 1.0, 2.0], lo=0.0, strict_lo=True)
        if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
            raise ConfigError("t_grid", "must be strictly increasing")
        resolved["t_grid"] = t_grid
        resolved["n_trunc"] = _integer(data, "n_trunc", 40, lo=1, hi=48)
        resolved["r2"] = _number(data, "r2", 0.5, lo=0.0, strict_lo=True)
        resolved["s"] = _number(data, "s", 0.5, lo=0.0)
        if not resolved["s"] < 1.0:
            raise ConfigError("s", "must lie in [0, 1)")
        return resolved

    # lemma-suite
    _no_unknown(data, _COMMON_FIELDS | {"series", "local", "analyticity", "profile"})
    series = _typed(data, "series", dict, {})
    _no_unknown(series, {"d_grid", "s_grid"}, "series.")
    resolved["series"] = {
        "d_grid": _number_list(series, "d_grid", [0.5, 1.0, 2.0, 5.0], "series.", lo=0.5),
        "s_grid": _number_list(series, "s_grid", [0.0, 0.25, 0.5, 0.9], "series.", lo=0.0),
    }
    if any(not s < 1.0 for s in resolved["series"]["s_grid"]):
        raise ConfigError("series.s_grid", "entries must lie in [0, 1)")
    local = _typed(data, "local", dict, {})
    _no_unknown(local, {"n_triples", "max_degree", "min_density", "sensors"}, "local.")
    raw_sensors = _typed(local, "sensors", list, [{"type": "periodic", "period": 1.0, "fill": 0.5}], "local.")
    if not raw_sensors:
        raise ConfigError("local.sensors", "must be nonempty")
    local_specs = []
    for i, s in enumerate(raw_sensors):
        if not isinstance(s, dict):
            raise ConfigError(f"local.sensors[{i}]", "expected an object")
        if s.get("type") == "random-intervals":
            _no_unknown(s, {"type"}, f"local.sensors[{i}].")
            local_specs.append({"type": "random-intervals"})
        else:
            local_specs.append(_resolve_sensor(s, f"local.sensors[{i}]."))
    resolved["local"] = {
        "n_triples": _integer(local, "n_triples", 30, "local.", lo=1, hi=500),
        "max_degree": _integer(local, "max_degree", 40, "local.", lo=2, hi=40),
        "min_density": _number(local, "min_density", 0.1, "local.", lo=0.0, strict_lo=True, hi=1.0),
        "sensors": local_specs,
    }
    analyticity = _typed(data, "analyticity", dict, {})
    _no_unknown(analyticity, {"n_cases", "degree", "tau_scale"}, "analyticity.")
    resolved["analyticity"] = {
        "n_cases": _integer(analyticity, "n_cases", 3, "analyticity.", lo=0, hi=50),
        "degree": _integer(analyticity, "degree", 10, "analyticity.", lo=1, hi=40),
        # fraction of the lemma radius 1/(2 C2) used for the Taylor audit
        "tau_scale": _number(
            analyticity, "tau_scale", 1.0, "analyticity.", lo=0.0, strict_lo=True, hi=1.0
        ),
    }
    resolved["profile"] = _resolve_profile(_typed(data, "profile", dict, {}))
    return resolved


# ---------------------------------------------------------------------------
# runners


def _random_expansion(rng, degree: int) -> SpectralFunction:
    coeffs = rng.standard_normal(degree + 1)
    coeffs /= np.linalg.norm(coeffs)
    return SpectralFunction(coeffs)


def _prepare_function(cfg: dict):
    spec = cfg["function"]
    g = _random_expansion(default_rng(cfg["seed"]), spec["degree"])
    f = harmonic_flow(g, spec["t"]) if spec["t"] > 0 else g
    bound = fit_gs_bound(f, spec["nu"], spec["mu"])
    f_id = f"flow(seed={cfg['seed']},deg={spec['degree']},t={spec['t']})"
    return f, bound, f_id


def _run_uncertainty(cfg: dict, threads: int):
    profile = RadiusProfile(**cfg["profile"])
    f, bound, f_id = _prepare_function(cfg)
    cases = [
        {
            "f": f,
            "bound": bound,
            "profile": profile,
            "omega": _build_sensor(case["sensor"], profile),
            "gamma": case["gamma"],
            "eps": eps,
            "f_id": f_id,
        }
        for case in cfg["cases"]
        for eps in cfg["eps_grid"]
    ]
    reports = []
    rows = k_effective_sweep(
        cases,
        m_cap=cfg["m_cap"],
        threads=threads,
        reports_out=reports,
        witness_grid=cfg["witness_grid"],
    )
    for row in rows:
        row["x"] = row["eps"]
        row["y"] = row["k_effective"]
    payload = {
        "bound": reports[0].bound_summary,
        "spread": k_effective_spread(rows),
        "reports": [r.to_dict() for r in reports],
    }
    columns = [
        "f_id", "omega_id", "eps", "gamma", "k_effective", "k_effective_normalized",
        "k_formal", "error_term_dominated", "n_good", "n_bad", "passed", "x", "y",
    ]
    return payload, rows, columns, all(r["passed"] for r in rows)


def _run_uncertainty_decay(cfg: dict, threads: int):
    profile = RadiusProfile(**cfg["profile"])
    f, bound, f_id = _prepare_function(cfg)
    rows, reports = [], []
    for case in cfg["cases"]:
        omega = _build_sensor(case["sensor"], profile)
        for eps in cfg["eps_grid"]:
            report = verify_uncertainty_decay(
                f, bound, profile, omega, case["gamma0"], case["a"], eps,
                m_cap=cfg["m_cap"], threads=threads, f_id=f_id,
                witness_grid=cfg["witness_grid"],
            )
            reports.append(report)
            rows.append(
                {
                    "f_id": f_id,
                    "omega_id": report.omega_id,
                    "eps": eps,
                    "gamma0": case["gamma0"],
                    "a": case["a"],
                    "k_effective": report.k_effective,
                    "k_formal": report.k_formal,
                    "error_term_dominated": report.error_term_dominated,
                    "n_good": report.n_good,
                    "n_bad": report.n_bad,
                    "passed": report.passed,
                    "x": eps,
                    "y": report.k_effective,
                }
            )
    payload = {
        "bound": reports[0].bound_summary,
        "reports": [r.to_dict() for r in reports],
    }
    columns = [
        "f_id", "omega_id", "eps", "gamma0", "a", "k_effective", "k_formal",
        "error_term_dominated", "n_good", "n_bad", "passed", "x", "y",
    ]
    return payload, rows, columns, all(r["passed"] for r in rows)


def _run_observability(cfg: dict, threads: int):
    profile = RadiusProfile()
    rows, reports = [], []
    for spec in cfg["sensors"]:
        omega = _build_sensor(spec, profile)
        report = observability_scan(
            omega, cfg["t_grid"], cfg["n_trunc"], cfg["r2"], cfg["s"]
        )
        reports.append(report)
        for t, c_obs, conditioning in zip(report.t_grid, report.c_obs, report.conditioning):
            rows.append(
                {
                    "omega_id": report.omega_id,
                    "n_trunc": report.n_trunc,
                    "T": t,
                    "c_obs": c_obs,
                    "conditioning": conditioning,
                    "fitted_n": report.fitted_n,
                    "passed": report.monotone,
                    "x": t,
                    "y": c_obs,
                }
            )
    payload = {"reports": [r.to_dict() for r in reports]}
    columns = ["omega_id", "n_trunc", "T", "c_obs", "conditioning", "fitted_n", "passed", "x", "y"]
    return payload, rows, columns, all(r.monotone for r in reports)


def _run_smoothing_validate(cfg: dict, threads: int):
    nu, mu = shubin_exponents(cfg["k"], cfg["m"], cfg["theta"])
    nu, mu = float(nu), float(mu)
    rng = default_rng(cfg["seed"])
    ensemble = [_random_expansion(rng, cfg["degree"]) for _ in range(cfg["n_seeds"])]

    def flow(g, t):
        result = shubin_galerkin_flow(g, t, cfg["k"], cfg["m"], cfg["theta"], cfg["n_trunc"])
        if result.unstable:
            raise NonConvergenceError(
                f"Galerkin flow truncation drift {result.truncation_change:.3e} at t={t}"
            )
        return result.function

    cert = fit_smoothing_certificate(
        flow, ensemble, cfg["fit_times"], nu, mu, grid_cap=cfg["grid_cap"]
    )
    report = validate_smoothing(
        cert, flow, ensemble, cfg["validate_times"], grid_cap=cfg["grid_cap"]
    )
    per_time = {}
    for (gi, t, n, b), ratio in report.ratios.items():
        per_time[t] = max(per_time.get(t, 0.0), ratio)
    rows = [
        {
            "k": cfg["k"],
            "m": cfg["m"],
            "theta": cfg["theta"],
            "t": t,
            "worst_ratio": ratio,
            "passed": ratio <= 1.0 + 1e-9,
            "x": t,
            "y": ratio,
        }
        for t, ratio in sorted(per_time.items())
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
    columns = ["k", "m", "theta", "t", "worst_ratio", "passed", "x", "y"]
    return payload, rows, columns, report.passed


def _lemma_series_rows(cfg: dict):
    rows = []
    for d in cfg["d_grid"]:
        for s in cfg["s_grid"]:
            result = series_bound(d, s)
            ok = result.remainder_certified and result.log_sum <= result.log_bound + 1e-9
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


def _argmax_on_ball(f: SpectralFunction, ball: Ball, n_grid: int = 512) -> float:
    a, b = ball.interval()
    grid = np.linspace(a, b, n_grid)
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
        degree = int(rng.integers(4, cfg["max_degree"] + 1))
        f = _random_expansion(rng, degree)
        center = float(rng.uniform(-3.0, 3.0))
        ball = Ball((center,), float(profile.rho(center)))
        omega = sensors[attempts % len(sensors)]
        if omega.measure_in_ball(ball) < cfg["min_density"] * ball.volume:
            continue
        mass = norm_squared_on_ball(f, ball, atol=1e-25 * f.norm_squared())
        if mass <= 1e-16 * f.norm_squared():
            continue
        x_k = _argmax_on_ball(f, ball)
        brute = mk_bruteforce(f, ball, (x_k,), float(profile.rho(x_k)), norm_sq=mass)
        check = local_estimate_check(f, ball, omega, brute.log_m, mass_sq=mass)
        produced += 1
        rows.append(
            {
                "section": "local",
                "case": f"deg={degree},center={center:.3f},{omega.description}",
                "x": float(produced),
                "y": check.log_ratio,
                "passed": bool(check.passed),
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


def _run_lemma_suite(cfg: dict, threads: int):
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
    payload = {"sections": sections}
    columns = ["section", "case", "x", "y", "passed"]
    return payload, rows, columns, all(r["passed"] for r in rows)


_RUNNERS = {
    "smoothing-validate": _run_smoothing_validate,
    "uncertainty": _run_uncertainty,
    "uncertainty-decay": _run_uncertainty_decay,
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


def run_experiment(config: dict, threads: int = 1) -> ExperimentResult:
    """Resolve and execute one experiment config.

    Raises ConfigError for invalid configs. Inequality failures inside the
    audits produce exit_code 1 (with the failing step in the report);
    numerical non-convergence propagates as exceptions for the CLI to map to
    exit code 3.
    """
    resolved = resolve_config(config)
    runner = _RUNNERS[resolved["kind"]]
    try:
        payload, rows, columns, passed = runner(resolved, max(1, threads))
        failure = None
    except PipelineError as err:
        payload = {"failed_step": err.step, "error": str(err)}
        rows, columns, passed, failure = [], [], False, err.step
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
        columns=columns,
    )
