"""End-to-end pipeline audits: step records, constants, failure modes."""

import json
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from gsaudit import hermite, local_estimates, semigroup, uncertainty
from gsaudit.experiments import run_experiment
from gsaudit.geometry import (
    DENSITY_SLACK,
    FullSpaceSensorSet,
    IntervalSensorSet,
    RadiusProfile,
    sensor_decaying_density,
    sensor_periodic,
)
from gsaudit.hermite import (
    Ball,
    NumericalError,
    SpectralFunction,
    effective_support_radius,
    norm_squared_on_intervals,
    weighted_norm,
)
from gsaudit.local_estimates import DEGENERATE_MASS_REL
from gsaudit.semigroup import GSBound, fit_gs_bound, harmonic_flow
from gsaudit.uncertainty import (
    STEPS,
    PipelineError,
    UncertaintyReport,
    _jsonable,
    k_effective_spread,
    k_effective_sweep,
    verify_uncertainty,
    verify_uncertainty_decay,
)

from conftest import random_expansion, step_of

STEP_ORDER = [
    "admissibility",
    "premise",
    "tail",
    "covering",
    "density",
    "classification",
    "bad-mass",
    "decomposition",
    "witness",
    "mk-bound",
    "local-estimate",
    "overlap-sum",
    "measured-chain",
    "formal-chain",
]
# a decaying density adds the per-center norm bound after the covering
DECAY_STEP_ORDER = STEP_ORDER[:4] + ["center-norm-bound"] + STEP_ORDER[4:]
UNCERTAINTY_JSON = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "uncertainty.json"


def assert_steps_in_order(report, order):
    # every step of a passing run, in order, and each verdict exactly the
    # margin its two sides show, with the slack of STEPS
    assert list(STEPS) == DECAY_STEP_ORDER
    assert [s.name for s in report.steps] == order
    assert all(s.passed for s in report.steps)
    for s in report.steps:
        if s.log_lhs is not None and s.log_rhs is not None:
            assert s.passed == (s.log_lhs <= s.log_rhs + STEPS[s.name]), s.name


BALL_AUDIT_FIELDS = {
    "k", "center", "radius", "is_good", "failing_m", "mass_sq", "tail_certified",
    "tail_order", "x_k", "witness_verified", "witness_refined", "log_mk_bruteforce",
    "mk_converged", "log_local_lhs", "log_local_rhs", "local_applicable",
}


def assert_ball_audit_layout(report: dict):
    """A report's JSON form holds one record per non-degenerate ball, in k
    order, and the degenerate mass in the decomposition step."""
    records = report["ball_audits"]
    steps = {step["name"]: step["detail"] for step in report["steps"]}
    n_balls = steps["covering"]["n_balls"]
    decomposition, bad = steps["decomposition"], steps["bad-mass"]
    ks = [a["k"] for a in records]
    assert ks == sorted(set(ks)) and all(0 <= k < n_balls for k in ks)
    assert len(records) == n_balls - steps["classification"]["n_degenerate"]
    floor = DEGENERATE_MASS_REL * decomposition["total_mass"]
    assert all(a["mass_sq"] > floor for a in records)
    assert all(set(a) == BALL_AUDIT_FIELDS for a in records)
    bad_total = bad["bad_mass"] + bad["uncertified_good_mass"] + bad["q0_mass_upper"]
    covered = decomposition["good_mass"] + decomposition["degenerate_mass"] + bad_total
    assert decomposition["covered_mass"] == covered
    assert decomposition["good_mass"] == sum(a["mass_sq"] for a in records if a["tail_certified"])


@pytest.fixture(scope="module")
def instance():
    g = random_expansion(7, 12)
    f = harmonic_flow(g, 0.3)
    bound = fit_gs_bound(f, 0.5, 0.5)
    profile = RadiusProfile(R=1.0, delta=0.0, eta=0.5, r0=1.0)
    return f, bound, profile


@pytest.fixture(scope="module")
def report_full(instance):
    f, bound, profile = instance
    omega = FullSpaceSensorSet("full line")
    return verify_uncertainty(f, bound, profile, omega, gamma=1.0, eps=0.1, f_id="flow")


@pytest.fixture(scope="module")
def report_periodic(instance):
    f, bound, profile = instance
    return verify_uncertainty(
        f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.3, eps=0.1, f_id="flow"
    )


@pytest.fixture(scope="module")
def report_decay(instance):
    f, bound, profile = instance
    omega = sensor_decaying_density(0.5, 1.0, profile)
    return verify_uncertainty_decay(
        f, bound, profile, omega, gamma0=0.5, a=1.0, eps=0.1, f_id="flow"
    )


class TestFullSpaceSensor:
    def test_passes_with_small_constant(self, report_full):
        assert all(s.passed for s in report_full.steps)
        # omega = R gives ||f||_omega = ||f||, so the empirical constant is
        # essentially zero (slightly negative: the error term helps)
        assert report_full.k_effective is not None
        assert report_full.k_effective <= 0.01
        assert step_of(report_full, "formal-chain").detail["k_formal"] > 0.0

    def test_all_steps_recorded_in_order(self, report_full):
        assert_steps_in_order(report_full, STEP_ORDER)

    def test_omega_mass_is_total_mass(self, report_full, instance):
        f, _, _ = instance
        omega_mass = step_of(report_full, "overlap-sum").detail["omega_mass"]
        assert omega_mass == pytest.approx(f.norm_squared(), rel=1e-12)

    def test_report_roundtrips_through_json(self, report_full):
        data = json.loads(json.dumps(_jsonable(report_full)))
        assert data["kind"] == "uncertainty"
        assert all(step["passed"] is True for step in data["steps"])
        assert data["gamma"] == ["constant", 1.0]
        assert len(data["steps"]) == len(STEP_ORDER)
        steps = {step["name"]: step["detail"] for step in data["steps"]}
        n_balls = steps["covering"]["n_balls"]
        assert len(data["ball_audits"]) == n_balls - steps["classification"]["n_degenerate"]


class TestPeriodicSensor:
    def test_pipeline_passes(self, report_periodic):
        assert all(s.passed for s in report_periodic.steps)
        counts = step_of(report_periodic, "classification").detail
        assert counts["n_good"] >= 1
        assert counts["n_bad"] == 0

    def test_empirical_constant_positive(self, report_periodic):
        # omega is a strict subset, so recovering the mass costs a factor > 1
        assert report_periodic.k_effective > 0.0
        omega_mass = step_of(report_periodic, "overlap-sum").detail["omega_mass"]
        assert omega_mass < step_of(report_periodic, "decomposition").detail["total_mass"]

    def test_formal_dominates_empirical(self, report_periodic):
        k_formal = step_of(report_periodic, "formal-chain").detail["k_formal"]
        assert k_formal >= report_periodic.k_effective

    def test_chain_inequalities(self, report_periodic):
        for name in ("measured-chain", "formal-chain"):
            step = step_of(report_periodic, name)
            assert step.passed
            assert step.log_lhs <= step.log_rhs + STEPS[name]

    def test_overlap_sum_bounded_by_kappa(self, report_periodic):
        step = step_of(report_periodic, "overlap-sum")
        kappa = step.detail["kappa"]
        assert kappa <= 4
        assert step.detail["sum_good_intersections"] <= kappa * step.detail["omega_mass"] * (
            1.0 + 1e-9
        )

    def test_good_ball_audits_fully_populated(self, report_periodic):
        uniform = step_of(report_periodic, "mk-bound").detail["log_mk_uniform_bound"]
        checked = 0
        for audit in report_periodic.ball_audits:
            if not audit.is_good:
                continue
            if not audit.tail_certified:
                # unknown beyond m_cap: counted in the eps budget, not audited
                assert audit.log_mk_bruteforce is None
                continue
            checked += 1
            assert audit.witness_verified
            # closed ball: the witness may sit on the boundary
            assert abs(audit.x_k - audit.center) <= audit.radius + 1e-12
            assert audit.log_mk_bruteforce <= uniform + 1e-9
            assert audit.local_applicable
            assert audit.log_local_lhs >= audit.log_local_rhs - 1e-9
        assert checked == step_of(report_periodic, "classification").detail["n_good"]

    def test_decomposition_accounts_for_all_mass(self, report_periodic):
        decomposition = step_of(report_periodic, "decomposition").detail
        bad = step_of(report_periodic, "bad-mass").detail
        covered = decomposition["good_mass"] + bad["bad_mass"] + bad["q0_mass_upper"]
        deg = decomposition["degenerate_mass"]
        assert covered + deg >= decomposition["total_mass"] * (1.0 - 1e-8) - 1e-12

    def test_ball_audit_layout(self, report_periodic):
        assert_ball_audit_layout(json.loads(json.dumps(_jsonable(report_periodic))))


def _own_pass(f, intervals):
    """||f||^2 on the intervals from a quadrature pass of their own, clipped
    to the effective support, the values added in order."""
    cut = effective_support_radius(f)
    clipped = [(max(a, -cut), min(b, cut)) for a, b in intervals]
    total = 0.0
    for (value,) in hermite._rule_sums(f.coeffs[None], [(a, b) for a, b in clipped if b > a], 0.0, 20, 0.5):
        total += float(value)
    return total


def test_batched_sensor_masses_are_each_balls_own(instance):
    # one quadrature pass over every ball's Q cap omega and over omega gives
    # the value of each one's own pass and norm_squared_on_intervals call,
    # bit for bit: an empty intersection, pieces clipped at the effective
    # support radius, an intersection wholly outside it, and a ball over 15
    # pieces
    f = instance[0]
    cut = effective_support_radius(f)
    strips = [(0.7 * k, 0.7 * k + 0.3) for k in range(-15, 15)]
    omega = IntervalSensorSet([(-cut - 3.0, -cut + 0.25), *strips, (cut - 0.5, cut + 20.0)])
    balls = [Ball(0.0, 5.0), Ball(12.0, 0.5), Ball(-cut, 1.0), Ball(cut, 2.0), Ball(cut + 10.0, 1.0)]
    for sensor, whole in ((omega, zip(omega.starts, omega.ends)), (FullSpaceSensorSet(), [(-cut, cut)])):
        cuts, inter, on_omega = uncertainty._masses_on_sensor(f, sensor, balls)
        pieces = [sensor.intersect_interval(*ball.interval()) for ball in balls]
        assert cuts == pieces
        assert inter == [_own_pass(f, p) for p in pieces]
        assert inter == [norm_squared_on_intervals(f, p) for p in pieces]
        if sensor is omega:
            whole = list(whole)
            assert on_omega == _own_pass(f, whole) == norm_squared_on_intervals(f, whole)
            assert inter[1] == inter[4] == 0.0 < inter[2]
            assert omega.intersect_interval(*balls[4].interval())
        else:
            assert on_omega == f.norm_squared()


def test_report_holds_only_what_no_step_records(report_full, instance):
    # the instance, the balls and the empirical constant; every value an
    # audited inequality reads sits in its step, once
    assert [f.name for f in fields(UncertaintyReport)] == [
        "kind", "f_id", "omega_id", "eps", "gamma", "profile", "bound", "ball_audits", "steps",
        "k_effective",
    ]
    _, bound, _ = instance
    assert step_of(report_full, "admissibility").detail == {}
    error_term = step_of(report_full, "measured-chain").detail["error_term"]
    assert error_term == report_full.eps * bound.D1**2
    good = [a.mass_sq for a in report_full.ball_audits if a.tail_certified]
    assert step_of(report_full, "decomposition").detail["good_mass"] == sum(good)


def test_committed_sweep_ball_audit_layout():
    result = run_experiment(json.loads(UNCERTAINTY_JSON.read_text(encoding="utf-8")))
    assert result.passed
    assert set(result.report["results"]) == {"reports", "spread"}
    reports = result.report["results"]["reports"]
    assert len(reports) == 12
    for report in reports:
        assert_ball_audit_layout(report)


@pytest.mark.parametrize(
    "nu, mu, exponent, first",
    [(0.2, 0.2, "nu", 158), (0.5, 0.3, "mu", 903)],
)
def test_exponent_below_half_fails_premise(nu, mu, exponent, first):
    # no nonzero expansion meets such a bound, however D1 and D2 are fitted
    cfg = json.loads(UNCERTAINTY_JSON.read_text(encoding="utf-8"))
    cfg["function"].update(nu=nu, mu=mu)
    result = run_experiment(cfg)
    assert result.exit_code == 1
    assert result.report["failed_step"] == "premise"
    detail = f"'exponent': '{exponent}', 'value': {min(nu, mu)}, 'first_false_order': {first}"
    assert detail in result.report["results"]["error"]


def test_first_false_order_is_a_measured_violation(instance):
    # at the order it names, the exact ladder norm breaks the declared bound
    f, _, _ = instance
    bound = fit_gs_bound(f, 0.2, 0.5)
    n = uncertainty._first_false_order(f, bound, "nu")
    assert n is not None
    assert math.log(weighted_norm(f, n=n, beta=0)) > bound.log_value(n, 0)
    assert uncertainty._first_false_order(f, bound, "mu") is None


def test_zero_function_meets_any_exponent(instance):
    _, _, profile = instance
    zero = SpectralFunction([0.0, 0.0])
    bound = GSBound(D1=1.0, D2=2.0, nu=0.2, mu=0.2)
    rep = verify_uncertainty(zero, bound, profile, FullSpaceSensorSet(), gamma=1.0, eps=0.1)
    assert step_of(rep, "premise").passed


class TestErrorTermDominated:
    def test_eps_one_dominates(self, instance):
        # the fitted bound anchors D1 at ||f||, so eps = 1 makes the error
        # term swallow the whole mass
        f, bound, profile = instance
        rep = verify_uncertainty(
            f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.3, eps=1.0
        )
        assert all(s.passed for s in rep.steps)
        chain = step_of(rep, "measured-chain").detail
        assert chain["error_term_dominated"]
        assert rep.k_effective is None
        total_mass = step_of(rep, "decomposition").detail["total_mass"]
        assert total_mass <= chain["error_term"] * (1.0 + 1e-12)


class TestPipelineFailures:
    def test_understated_bound_fails_premise(self, instance):
        f, bound, profile = instance
        lie = GSBound(D1=bound.D1 * 1e-3, D2=bound.D2, nu=bound.nu, mu=bound.mu)
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, lie, profile, FullSpaceSensorSet(), gamma=1.0, eps=0.1)
        assert err.value.step == "premise"

    def test_overstated_density_fails(self, instance):
        # periodic fill 1/2 has worst window ratio 1/3 on this profile, so
        # claiming gamma = 0.45 must abort at the density certificate
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(
                f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.45, eps=0.1
            )
        assert err.value.step == "density"

    def test_supercritical_s_rejected(self, instance):
        f, bound, _ = instance
        steep = RadiusProfile(R=1.0, delta=1.0, eta=0.5, r0=1.0)
        # nu = mu = 1/2 and delta = 1 give s = 1, outside the theorem range
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, bound, steep, FullSpaceSensorSet(), gamma=1.0, eps=0.1)
        assert err.value.step == "admissibility"

    @pytest.mark.parametrize("eps", [0.0, 1.5])
    def test_eps_out_of_range(self, instance, eps):
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, bound, profile, FullSpaceSensorSet(), gamma=1.0, eps=eps)
        assert err.value.step == "admissibility"

    def test_gamma_out_of_range(self, instance):
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, bound, profile, FullSpaceSensorSet(), gamma=0.0, eps=0.1)
        assert err.value.step == "admissibility"

    # each per-ball audit: the name the pipeline calls it by, the field of
    # its result that marks a failure, and the position of its ball
    # argument; the polydisc sups come in one batch of (ball, rho_k, mass)
    # items per case
    BALL_AUDITS = {
        "witness": ("pointwise_witness", "verified", 0),
        "mk-bound": ("polydisc_sups", "converged", None),
        "local-estimate": ("local_estimate_check", "applicable", 0),
    }
    # which audits fail, on which of the certified good balls (positions in
    # their list), and the step that must report it; unsettled polydisc
    # sampling is numerical non-convergence, not a failed inequality
    BALL_FAILURES = [
        ({"witness": [1]}, "witness"),
        ({"witness": [-1, 0]}, "witness"),
        ({"mk-bound": [-1, 1]}, "mk-bound"),
        ({"local-estimate": [-1, 1]}, "local-estimate"),
        # the witness step comes first, then mk-bound, whatever the balls
        ({"witness": [-1], "mk-bound": [0], "local-estimate": [0]}, "witness"),
        ({"mk-bound": [-1], "local-estimate": [0]}, "mk-bound"),
    ]

    @pytest.mark.parametrize(
        "failing, step",
        BALL_FAILURES,
        ids=[
            "+".join(f"{name}@{','.join(map(str, where))}" for name, where in failing.items())
            for failing, _ in BALL_FAILURES
        ],
    )
    def test_failing_ball_audit_names_step_and_ball(
        self, monkeypatch, instance, report_periodic, failing, step
    ):
        f, bound, profile = instance
        active = [a for a in report_periodic.ball_audits if a.tail_certified]
        chosen = {name: sorted(active[i].k for i in where) for name, where in failing.items()}
        k_of = {(a.center, a.radius): a.k for a in report_periodic.ball_audits}

        def fail_on(real, ks, flag, at):
            def failed(ball, result):
                hit = k_of[ball.center, ball.radius] in ks
                return replace(result, **{flag: False}) if hit else result

            def audit(*args):
                return failed(args[at], real(*args))

            def batch(f, items):
                return [failed(ball, result) for (ball, *_), result in zip(items, real(f, items))]

            return batch if real is uncertainty.polydisc_sups else audit

        for name, ks in chosen.items():
            attr, flag, at = self.BALL_AUDITS[name]
            monkeypatch.setattr(uncertainty, attr, fail_on(getattr(uncertainty, attr), ks, flag, at))
        error = NumericalError if step == "mk-bound" else PipelineError
        with pytest.raises(error) as err:
            verify_uncertainty(f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.3, eps=0.1)
        assert getattr(err.value, "step", step) == step
        ks = chosen[step]
        expected = {
            "witness": f"'unwitnessed_balls': {ks}",
            "mk-bound": f"polydisc sampling did not stabilize on ball {ks[0]}",
            "local-estimate": f"ball {ks[0]} does not meet omega",
        }
        assert expected[step] in str(err.value)

    def test_nan_tail_mass_fails_tail(self, monkeypatch):
        # the log of a NaN side stays NaN, and NaN <= x is false
        monkeypatch.setattr(semigroup, "norm_squared_outside_radius", lambda f, r: math.nan)
        result = run_experiment(json.loads(UNCERTAINTY_JSON.read_text(encoding="utf-8")))
        assert (result.exit_code, result.report["failed_step"]) == (1, "tail")

    def test_uncounted_good_mass_fails_decomposition_at_small_mass(self, monkeypatch):
        # a bad-mass stage that drops every certified good ball and counts its
        # mass nowhere; at t = 30, ||f||^2 is about 3e-20, and decomposition
        # must still see the covered mass fall short of it
        real = uncertainty.bad_mass_bound

        def lie(*args, **kwargs):
            report = real(*args, **kwargs)
            lost = tuple(False if c else c for c in report.tail_certified)
            return replace(report, tail_certified=lost)

        monkeypatch.setattr(uncertainty, "bad_mass_bound", lie)
        cfg = json.loads(UNCERTAINTY_JSON.read_text(encoding="utf-8"))
        cfg["function"]["t"] = 30.0
        result = run_experiment(cfg)
        assert (result.exit_code, result.report["failed_step"]) == (1, "decomposition")

    def test_two_dimensional_input_rejected(self):
        # a 2D coefficient matrix is refused before any pipeline can see it
        with pytest.raises(ValueError, match="vector"):
            SpectralFunction([[1.0, 0.0], [0.0, 1.0]])


class TestOmegaMonotonicity:
    def test_larger_sensor_needs_smaller_constant(self, instance, report_periodic):
        # fill 3/4 contains fill 1/2 cell by cell, so the same gamma
        # certificate holds and the empirical constant cannot grow
        f, bound, profile = instance
        bigger = verify_uncertainty(
            f, bound, profile, sensor_periodic(1.0, 0.75), gamma=0.3, eps=0.1
        )
        assert all(s.passed for s in bigger.steps)
        omega_mass = [step_of(r, "overlap-sum").detail["omega_mass"] for r in (bigger, report_periodic)]
        assert omega_mass[0] >= omega_mass[1]
        assert bigger.k_effective <= report_periodic.k_effective + 1e-12


class TestDecayVariant:
    def test_pipeline_passes(self, report_decay):
        assert all(s.passed for s in report_decay.steps)
        assert_steps_in_order(report_decay, DECAY_STEP_ORDER)
        assert report_decay.kind == "uncertainty-decay"
        assert report_decay.gamma == ("decaying", 0.5, 1.0)
        assert report_decay.k_effective > 0.0

    def test_center_norm_bound_step(self, report_decay):
        step = step_of(report_decay, "center-norm-bound")
        assert step.passed
        assert step.log_lhs <= step.log_rhs + STEPS["center-norm-bound"]

    def test_per_ball_density_floor_respected(self, report_decay):
        step = step_of(report_decay, "local-estimate")
        assert step.detail["worst_ball_density_margin"] >= -DENSITY_SLACK

    def test_squared_bracket_shrinks_constant(self, instance, report_decay):
        # same instance through the constant-density audit at the worst
        # per-ball level: the decay constant divides by the squared bracket,
        # so it comes out much smaller
        assert report_decay.k_effective < 0.01

    def test_a_zero_degenerates_to_constant_density(self, instance):
        f, bound, profile = instance
        rep = verify_uncertainty_decay(
            f, bound, profile, sensor_periodic(1.0, 0.5), gamma0=0.5, a=0.0, eps=0.1
        )
        assert all(s.passed for s in rep.steps)
        # gamma0 / (1 + |x|^0) = gamma0 / 2 everywhere
        assert step_of(rep, "density").detail["min_ratio"] >= 0.25
        step = step_of(rep, "center-norm-bound")
        assert step.log_lhs == pytest.approx(math.log(2.0), abs=1e-12)
        assert step.log_rhs == pytest.approx(math.log(2.0), abs=1e-12)

    def test_negative_a_rejected(self, instance):
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty_decay(
                f, bound, profile, FullSpaceSensorSet(), gamma0=0.5, a=-1.0, eps=0.1
            )
        assert err.value.step == "admissibility"


class TestSweep:
    def test_rows_and_spread(self, instance):
        f, bound, profile = instance
        periodic = sensor_periodic(1.0, 0.5)
        full = FullSpaceSensorSet("full line")
        cases = [
            {"omega": omega, "gamma": g, "eps": eps}
            for (omega, g) in ((periodic, 0.3), (full, 1.0))
            for eps in (0.1, 1.0)
        ]
        rows = k_effective_sweep(f, bound, profile, cases)
        assert len(rows) == 4
        assert all(r["passed"] for r in rows)
        for r in rows:
            if r["eps"] == 1.0:
                assert r["error_term_dominated"]
                assert r["k_effective"] is None
        spread = k_effective_spread(rows)
        # only the periodic eps = 0.1 row has a positive constant
        assert spread["n_active"] == 1
        assert spread["ratio"] == pytest.approx(1.0)

    def test_spread_of_empty_sweep(self):
        assert k_effective_spread([])["ratio"] is None

    def test_rows_carry_each_kinds_density(self, instance):
        f, bound, profile = instance
        cases = [
            {"eps": 1.0, "omega": FullSpaceSensorSet("full line"), "gamma": 1.0},
            {"eps": 1.0, "omega": sensor_decaying_density(0.5, 1.0, profile), "gamma0": 0.5, "a": 1.0},
        ]
        reports = []
        constant, decaying = k_effective_sweep(f, bound, profile, cases, reports_out=reports)
        assert [r.kind for r in reports] == ["uncertainty", "uncertainty-decay"]
        assert constant["gamma"] == 1.0 and "gamma0" not in constant
        assert "k_effective_normalized" in constant
        assert (decaying["gamma0"], decaying["a"]) == (0.5, 1.0)
        assert "gamma" not in decaying and "k_effective_normalized" not in decaying
        assert all(row["x"] == 1.0 for row in (constant, decaying))


class TestSweepSharing:
    """The cases of one sweep audit the sensor-free stages once per sweep, or
    once per eps; every report and error stays that of its own audit."""

    @pytest.fixture(scope="class")
    def cases(self, instance):
        _, _, profile = instance
        cases = [
            {"omega": omega, "gamma": g, "eps": eps}
            for omega, g in ((FullSpaceSensorSet("full line"), 1.0), (sensor_periodic(1.0, 0.5), 0.3))
            for eps in (1.0, 0.5)
        ]
        decay = sensor_decaying_density(0.5, 1.0, profile)
        cases.append({"omega": decay, "gamma0": 0.5, "a": 1.0, "eps": 1.0})
        return cases

    @staticmethod
    def _sweep(instance, cases, reports):
        return k_effective_sweep(*instance, cases, f_id="flow", reports_out=reports)

    @pytest.fixture(scope="class")
    def independent(self, instance, cases):
        reports = []
        for c in cases:
            args = (*instance, c["omega"])
            if "gamma" in c:
                reports.append(verify_uncertainty(*args, c["gamma"], c["eps"], f_id="flow"))
            else:
                reports.append(
                    verify_uncertainty_decay(*args, c["gamma0"], c["a"], c["eps"], f_id="flow")
                )
        return _jsonable(reports)

    def test_reports_equal_independent_audits(self, instance, cases, independent):
        reports = []
        self._sweep(instance, cases, reports)
        assert _jsonable(reports) == independent

    @staticmethod
    def _counting(monkeypatch):
        """Wrap the sensor-free stages; the returned dict lists each call's keys."""
        names = ("cover", "ball", "witness", "grid", "polydisc", "rules", "stack", "premise")
        calls = {name: [] for name in names}

        def counting(name, module, fn, keys):
            def wrapped(*args, **kwargs):
                calls[name].extend(keys(*args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, fn.__name__, wrapped)

        def ball_key(ball, cfg, *args):
            return [(cfg.eps, ball.center, ball.radius)]

        def covering_keys(f, balls, cfg, derivatives):
            return [(cfg.eps, ball.center, ball.radius) for ball in balls]

        counting("cover", uncertainty, uncertainty.besicovitch_cover, lambda profile, r: [r])
        counting("ball", uncertainty, uncertainty.classify_balls, covering_keys)
        counting("witness", uncertainty, uncertainty.pointwise_witness, ball_key)
        counting(
            "grid",
            local_estimates,
            local_estimates._log_abs_derivatives_at,
            # a first-scan grid, named by its ends, the ball's interval
            lambda stack, x: [(x[0], x[-1])] if x.shape == (local_estimates.WITNESS_GRID,) else [],
        )
        counting(
            "polydisc",
            uncertainty,
            uncertainty.polydisc_sups,
            lambda f, items: [(ball, rho_k) for ball, rho_k, _ in items],
        )
        counting(
            "rules",
            local_estimates,
            local_estimates.ball_norms_squared,
            lambda stack, balls, delta: [(len(stack), ball) for ball in balls],
        )
        counting("stack", uncertainty, uncertainty.derivative_stack, lambda f, m_cap: [m_cap])
        counting("premise", uncertainty, uncertainty._premise_check, lambda *args: [None])
        return calls

    def test_sensor_free_stages_run_once_per_sweep(self, monkeypatch, instance, cases):
        calls = self._counting(monkeypatch)
        reports = []
        self._sweep(instance, cases, reports)

        def per_eps(count):
            # the reports at one eps agree, so one entry per eps counts each once
            return sum({r.eps: count(r) for r in reports}.values())

        # one covering per eps, and each (eps, ball) classified once
        assert len(calls["cover"]) == 2
        assert len(calls["ball"]) == per_eps(lambda r: step_of(r, "covering").detail["n_balls"])
        assert len(set(calls["ball"])) == len(calls["ball"])
        # each case's active balls witnessed, and each witnessed ball's
        # first scan once for the sweep: its two floats serve every eps
        checked = sum(a.witness_verified is not None for r in reports for a in r.ball_audits)
        assert len(calls["witness"]) == checked > 0
        witnessed = {Ball(*key[1:]).interval() for key in calls["witness"]}
        assert sorted(calls["grid"]) == sorted(witnessed)
        # each ball's quadratures, and its polydisc sup at each rho_k, once
        # for the sweep
        assert len(set(calls["rules"])) == len(calls["rules"])
        assert {ball for _, ball in calls["rules"]} == {
            Ball(*key[1:]) for key in calls["ball"]
        }
        _, _, profile = instance
        sampled = {
            (Ball(a.center, a.radius), float(profile.rho(a.x_k)))
            for r in reports
            for a in r.ball_audits
            if a.mk_converged is not None
        }
        assert sorted(calls["polydisc"], key=repr) == sorted(sampled, key=repr)
        assert len(calls["stack"]) == len(calls["premise"]) == 1

    def test_committed_sweep_shares_witness_grids(self, monkeypatch):
        # uncertainty.json at its seed: 195 witness calls (65 per sensor) on
        # 45 balls take 45 first scans, one per ball, whatever the eps
        witnessed, grids = [], 0
        real_witness, real_logs = uncertainty.pointwise_witness, local_estimates._log_abs_derivatives_at

        def witness(ball, *args):
            witnessed.append(ball)
            return real_witness(ball, *args)

        def logs(stack, x):
            nonlocal grids
            grids += x.shape == (local_estimates.WITNESS_GRID,)
            return real_logs(stack, x)

        monkeypatch.setattr(uncertainty, "pointwise_witness", witness)
        monkeypatch.setattr(local_estimates, "_log_abs_derivatives_at", logs)
        assert run_experiment(json.loads(UNCERTAINTY_JSON.read_text(encoding="utf-8"))).passed
        assert (len(witnessed), len(set(witnessed)), grids) == (195, 45, 45)

    def test_committed_sweep_prunes_the_polydisc_samples(self, monkeypatch):
        # uncertainty.json at its seed: the majorant leaves about 11% of the
        # 1,305,345 upper-half samples of its 45 polydisc sups to evaluate, and
        # each (ball, rho_k) is sampled once for the sweep
        sampled, upper, evaluated = [], 0, 0
        real_sups, real_logs = uncertainty.polydisc_sups, local_estimates._log_abs_analytic

        def sups(f, items):
            nonlocal upper
            results = real_sups(f, items)
            sampled.extend((ball, rho_k) for ball, rho_k, _ in items)
            for res in results:
                upper += sum((24 * 2**i + 1) * (48 * 2**i + 3) for i in range(res.rounds))
            return results

        def logs(f, z):
            nonlocal evaluated
            evaluated += z.size
            return real_logs(f, z)

        monkeypatch.setattr(uncertainty, "polydisc_sups", sups)
        monkeypatch.setattr(local_estimates, "_log_abs_analytic", logs)
        assert run_experiment(json.loads(UNCERTAINTY_JSON.read_text(encoding="utf-8"))).passed
        assert (len(sampled), upper) == (45, 1_305_345)
        assert len(set(sampled)) == len(sampled)
        assert evaluated <= 0.15 * upper

    def test_a_second_sweep_starts_from_an_empty_store(self, monkeypatch, instance, cases):
        # the store lives for one call: a second sweep of the same cases
        # audits every stage again, and its reports are those of the first
        first, second = [], []
        calls = self._counting(monkeypatch)
        self._sweep(instance, cases, first)
        once = {name: sorted(keys, key=repr) for name, keys in calls.items()}
        for keys in calls.values():
            keys.clear()
        self._sweep(instance, cases, second)
        for name, keys in calls.items():
            assert sorted(keys, key=repr) == once[name], name
        assert all(once.values())
        assert _jsonable(second) == _jsonable(first)

    def test_first_failing_case_in_case_order_raises(self, instance):
        # the failing eps = 1.0 case comes second, before the failing
        # eps = 0.1 case: the sweep raises the eps = 1.0 error
        f, bound, profile = instance
        periodic = sensor_periodic(1.0, 0.5)
        cases = [
            {"omega": periodic, "gamma": 0.3, "eps": 0.1},
            {"omega": periodic, "gamma": 0.45, "eps": 1.0},
            {"omega": periodic, "gamma": 0.45, "eps": 0.1},
        ]
        with pytest.raises(PipelineError) as loop:
            verify_uncertainty(f, bound, profile, periodic, 0.45, 1.0)
        with pytest.raises(PipelineError) as swept:
            k_effective_sweep(f, bound, profile, cases)
        assert swept.value.step == loop.value.step == "density"
        assert str(swept.value) == str(loop.value)

    def test_first_failing_case_stops_the_sweep(self, monkeypatch, instance):
        # the first case fails at density, so the later cases never run
        f, bound, profile = instance
        omega = sensor_periodic(1.0, 0.5)
        cases = [{"omega": omega, "gamma": 0.45, "eps": eps} for eps in (0.1, 1.0, 0.5)]
        with pytest.raises(PipelineError) as loop:
            verify_uncertainty(f, bound, profile, omega, 0.45, 0.1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return verify_uncertainty(*args, **kwargs)

        monkeypatch.setattr(uncertainty, "verify_uncertainty", counting)
        with pytest.raises(PipelineError) as swept:
            k_effective_sweep(f, bound, profile, cases)
        assert len(calls) == 1
        assert swept.value.step == loop.value.step == "density"
        assert str(swept.value) == str(loop.value)
