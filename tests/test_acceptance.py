"""Acceptance gate: the twelve headline checks, one summary line each.

Every test here audits one advertised guarantee end to end at its stated
tolerance. The pass/fail lines are collected into the terminal summary via
the conftest hook, so a plain pytest run reports the scorecard.
"""

import functools
import json
import math
from fractions import Fraction

import pytest

import conftest
from conftest import random_expansion, step_holds, step_of
from gsaudit.cli import main as cli_main
from gsaudit.experiments import run_experiment
from gsaudit.geometry import (
    FullSpaceSensorSet,
    RadiusProfile,
    besicovitch_cover,
    sensor_decaying_density,
    sensor_periodic,
)
from gsaudit.local_estimates import (
    M_CAP,
    ClassifierConfig,
    bad_mass_bound,
    classify_balls,
    derivative_stack,
    series_bound,
)
from gsaudit.observability import observability_scan
from gsaudit.semigroup import (
    delta_weight_transfer,
    fit_gs_bound,
    fit_smoothing_certificate,
    harmonic_flow,
    shubin_exponents,
    tail_mass_check,
    validate_smoothing,
)
from gsaudit.uncertainty import (
    k_effective_spread,
    k_effective_sweep,
    verify_uncertainty_decay,
)

T_GRID = [0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
EPS_GRID = (1e-3, 1e-2, 1e-1, 1.0)


def criterion(number, label):
    """Record a scorecard line for the terminal summary, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_LINES.append(f"[FAIL] criterion {number:2d}: {label}")
                raise
            conftest.ACCEPTANCE_LINES.append(f"[PASS] criterion {number:2d}: {label}")

        return inner

    return wrap


@pytest.fixture(scope="module")
def instance():
    g = random_expansion(7, 12)
    f = harmonic_flow(g, 0.3)
    bound = fit_gs_bound(f, 0.5, 0.5)
    return f, bound, RadiusProfile()


@pytest.fixture(scope="module")
def sweep(instance):
    """Constant-density audits across eps in EPS_GRID and three density levels."""
    f, bound, profile = instance
    sensors = [
        (sensor_periodic(1.0, 0.5), 0.1),
        (sensor_periodic(1.0, 0.75), 0.5),
        (FullSpaceSensorSet("full line"), 1.0),
    ]
    cases = [
        {"omega": omega, "gamma": gamma, "eps": eps}
        for omega, gamma in sensors
        for eps in EPS_GRID
    ]
    reports = []
    rows = k_effective_sweep(f, bound, profile, cases, reports_out=reports)
    return rows, reports


@criterion(1, "smoothing exponents match the exact re-derivation")
def test_shubin_exponent_table():
    nu, mu = shubin_exponents(1, 1, 1)
    assert isinstance(nu, Fraction) and isinstance(mu, Fraction)
    assert (nu, mu) == (Fraction(1, 2), Fraction(1, 2))
    for k in (1, 2, 3):
        for m in (1, 2, 3):
            for theta in (1, 2):
                # independent route: pick each branch by an integer
                # cross-multiplication instead of comparing fractions
                want_nu = (
                    Fraction(1, 2 * k * theta)
                    if k + m >= 2 * k * theta * m
                    else Fraction(m, k + m)
                )
                want_mu = (
                    Fraction(1, 2 * m * theta)
                    if k + m >= 2 * m * theta * k
                    else Fraction(k, k + m)
                )
                assert shubin_exponents(k, m, theta) == (want_nu, want_mu)


@criterion(2, "fitted smoothing certificate validates on held-out times")
def test_certificate_holds_out():
    ensemble = [random_expansion(seed, 8) for seed in (1, 2, 3)]
    cert = fit_smoothing_certificate(harmonic_flow, ensemble, [0.1, 0.2], 0.5, 0.5)
    report = validate_smoothing(cert, harmonic_flow, ensemble, [0.15, 0.3])
    assert report.n_checked > 0 and not report.skipped_times
    assert report.worst_ratio <= 1.05


@criterion(3, "tail mass stays within eps D1^2 / 2 for 20 fitted functions")
def test_tail_mass_budget():
    failures = []
    for seed in range(20):
        g = random_expansion(seed, 6 + 2 * (seed % 5))
        f = harmonic_flow(g, (0.2, 0.3, 0.4)[seed % 3])
        bound = fit_gs_bound(f, 0.5, 0.5)
        for eps in (0.1, 0.5, 1.0):
            report = tail_mass_check(f, bound, eps)
            if not step_holds("tail", report.tail_mass, report.budget):
                failures.append((seed, eps, report.tail_mass / report.budget))
    assert not failures


@criterion(4, "covering of B(0, 10) has no gaps and overlap at most 4")
def test_besicovitch_covering():
    for delta in (0.0, 0.5):
        profile = RadiusProfile(R=1.0, delta=delta, eta=0.5, r0=1.0)
        covering = besicovitch_cover(profile, 10.0)
        assert covering.target_radius >= 10.0
        # brute force: no depth-0 midpoint between neighbouring ends inside
        # the target interval, and no probe deeper than 4
        kappa, uncovered = conftest.depth_oracle(
            covering.centers - covering.radii,
            covering.centers + covering.radii,
            covering.target_radius,
        )
        assert covering.kappa_measured == kappa <= 4
        assert uncovered == 0.0


@criterion(5, "bad-ball plus tail mass fits inside the eps D1^2 budget")
def test_good_bad_budget(instance):
    f, bound, profile = instance
    g2 = random_expansion(11, 10)
    f2 = harmonic_flow(g2, 0.25)
    bound2 = fit_gs_bound(f2, 0.5, 0.5)
    for func, gs in ((f, bound), (f2, bound2)):
        tilde = delta_weight_transfer(gs, profile.delta)
        for eps in (0.1, 1.0):
            tail = tail_mass_check(func, gs, eps)
            assert step_holds("tail", tail.tail_mass, tail.budget)
            covering = besicovitch_cover(profile, tail.r)
            cfg = ClassifierConfig(
                eps=eps,
                kappa=covering.kappa_measured,
                tilde_d2=tilde.D2,
                s=tilde.s,
                delta=profile.delta,
            )
            derivs = derivative_stack(func, M_CAP)
            results = classify_balls(func, covering.balls(), cfg, derivs)
            report = bad_mass_bound(func, covering, cfg, tilde, results)
            assert step_holds("bad-mass", report.total, report.budget)
            assert report.total <= eps * gs.D1**2 * (1.0 + 1e-12)


@criterion(6, "local estimate holds on 100+ sampled (f, Q, omega) triples")
def test_local_estimate_ensemble():
    config = {
        "schema_version": 1,
        "kind": "lemma-suite",
        "seed": 23,
        "series": {"d_grid": [0.5], "s_grid": [0.0]},
        "local": {
            "n_triples": 100,
            "max_degree": 40,
            "min_density": 0.1,
            "sensors": [
                {"type": "periodic", "period": 1.0, "fill": 0.5},
                {"type": "random-intervals"},
            ],
        },
        "analyticity": {"n_cases": 0},
    }
    result = run_experiment(config)
    rows = [row for row in result.rows if row["section"] == "local"]
    assert len(rows) >= 100
    assert all(row["passed"] for row in rows)
    assert all(row["y"] >= -1e-9 for row in rows)


@criterion(7, "brute-force M_k never exceeds its closed-form bound")
def test_mk_bruteforce_below_bound(sweep):
    _, reports = sweep
    n_checked = 0
    for report in reports:
        uniform = step_of(report, "mk-bound").detail["log_mk_uniform_bound"]
        for audit in report.ball_audits:
            if audit.log_mk_bruteforce is None:
                continue
            n_checked += 1
            assert audit.log_mk_bruteforce <= uniform + 1e-9, (report.omega_id, report.eps, audit.k)
    assert n_checked >= 10


@criterion(8, "derivative series stays below its closed-form bound")
def test_series_bound_grid():
    for d in (0.5, 1.0, 2.0, 5.0):
        for s in (0.0, 0.25, 0.5, 0.9):
            result = series_bound(d, s)
            assert result.remainder_certified, (d, s)
            assert result.log_sum <= result.log_bound + 1e-12, (d, s)
    closed = series_bound(0.5, 0.0)
    # sum_m (1/2)^m / m! = e^(1/2), bound 2 (2D)^(3 (2D)) = 2
    assert math.exp(closed.log_sum) == pytest.approx(math.exp(0.5), rel=1e-9)
    assert math.exp(closed.log_bound) == pytest.approx(2.0, rel=1e-12)
    assert closed.log_sum <= closed.log_bound


@criterion(9, "uncertainty chains close across the sweep with bounded spread")
def test_uncertainty_sweep(sweep):
    rows, reports = sweep
    assert len(rows) >= 10
    assert all(row["passed"] for row in rows)
    for report in reports:
        assert all(s.passed for s in report.steps)
        assert step_of(report, "measured-chain").passed
        assert step_of(report, "formal-chain").passed
    assert {row["eps"] for row in rows} == set(EPS_GRID)
    assert {row["gamma"] for row in rows} == {0.1, 0.5, 1.0}
    spread = k_effective_spread(rows)
    assert spread["n_active"] >= 2
    assert spread["ratio"] <= 10.0


@criterion(10, "decaying-density audits pass with the per-center bound")
def test_uncertainty_decay_instances(instance):
    f, bound, profile = instance
    for gamma0, a, eps in ((0.5, 1.0, 0.1), (0.25, 2.0, 0.1), (0.5, 1.0, 0.5)):
        omega = sensor_decaying_density(gamma0, a, profile)
        report = verify_uncertainty_decay(f, bound, profile, omega, gamma0, a, eps)
        assert all(s.passed for s in report.steps), (gamma0, a, eps)
        assert step_of(report, "center-norm-bound").passed


@criterion(11, "observability constants match 1/(e^T - 1), decay in T and stay above it")
def test_observability_diagonal():
    full = FullSpaceSensorSet("full line")
    report = observability_scan(full, T_GRID, 40)
    for t, c_obs in zip(report.t_grid, report.c_obs):
        assert c_obs == pytest.approx(1.0 / math.expm1(t), rel=1e-10)
    assert report.monotone and report.passed
    periodic = observability_scan(sensor_periodic(1.0, 0.5), T_GRID, 40)
    assert periodic.monotone and periodic.passed


@criterion(12, "seeded CLI reruns are byte-identical")
def test_cli_rerun_identical(tmp_path):
    config = {
        "schema_version": 1,
        "kind": "uncertainty",
        "seed": 7,
        "function": {"degree": 10},
        "eps_grid": [0.1],
        "cases": [
            {"sensor": {"type": "periodic", "period": 1.0, "fill": 0.5}, "gamma": 0.3},
            {"sensor": {"type": "full"}, "gamma": 1.0},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    outs = (tmp_path / "a", tmp_path / "b")
    for out, threads in zip(outs, ("2", "1")):
        assert cli_main(["run", str(path), "--out", str(out), "--threads", threads]) == 0
    for name in ("report.json", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
