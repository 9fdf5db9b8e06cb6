"""Tests for the model flows, exponent formulas and bound certificates.

Oracles: the ladder-assembled harmonic operator must be exactly diagonal
with eigenvalues n + 1/2; the quartic Galerkin ground eigenvalue is checked
against the classical quartic-oscillator ground energy 1.060362090484183
halved; flows are cross-checked between the diagonal formula and the
eigendecomposition route; fitted certificates must majorize every sampled
norm and generalize to held-out times.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsaudit import semigroup
from gsaudit.experiments import run_experiment
from gsaudit.hermite import NumericalError, SpectralFunction, weighted_norm
from gsaudit.semigroup import (
    SMOOTHING_T0,
    GSBound,
    SmoothingCertificate,
    delta_weight_transfer,
    fit_gs_bound,
    fit_smoothing_certificate,
    harmonic_flow,
    shubin_exponents,
    shubin_galerkin_flow,
    shubin_operator_matrix,
    tail_mass_check,
    tail_radius,
    validate_smoothing,
)

from conftest import basis_function, random_expansion, step_holds

# quartic oscillator -f'' + x^4 f ground energy, halved for our normalization
QUARTIC_GROUND_HALF = 0.5301810452420915


class TestHarmonicFlow:
    def test_ground_state_decay(self):
        flowed = harmonic_flow(basis_function(0), 1.0)
        assert flowed.norm() == pytest.approx(math.exp(-0.5), abs=1e-14)
        assert flowed.norm() == pytest.approx(0.6065306597126334, abs=1e-14)

    def test_coefficientwise_decay(self):
        g = SpectralFunction([1.0, 2.0, 0.0, -1.0])
        flowed = harmonic_flow(g, 0.7)
        lam = np.arange(4) + 0.5
        np.testing.assert_allclose(flowed.coeffs, g.coeffs * np.exp(-lam * 0.7), rtol=1e-15)

    @given(seed=st.integers(0, 1000), s=st.floats(0.01, 2.0), t=st.floats(0.01, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_semigroup_property(self, seed, s, t):
        g = random_expansion(seed, degree=20)
        two_step = harmonic_flow(harmonic_flow(g, s), t)
        one_step = harmonic_flow(g, s + t)
        np.testing.assert_allclose(two_step.coeffs, one_step.coeffs, atol=1e-14)

    @given(seed=st.integers(0, 1000), t=st.floats(0.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_contraction(self, seed, t):
        g = random_expansion(seed, degree=24)
        assert harmonic_flow(g, t).norm() <= math.exp(-t / 2) * g.norm() + 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            harmonic_flow(basis_function(0), -0.1)


class TestShubinOperator:
    def test_harmonic_matrix_is_diagonal(self):
        # the ladder algebra must reproduce (x^2 - d^2)/2 h_n = (n + 1/2) h_n
        a = shubin_operator_matrix(12, 1, 1)
        np.testing.assert_allclose(a, np.diag(np.arange(13) + 0.5), atol=1e-13)

    def test_quartic_ground_eigenvalue(self):
        a = shubin_operator_matrix(64, 2, 1)
        lam = np.linalg.eigvalsh(a)
        assert lam[0] == pytest.approx(QUARTIC_GROUND_HALF, rel=1e-10)

    def test_fourier_swap_symmetry(self):
        # conjugating by the Fourier transform exchanges x and d/dx, so the
        # spectra of (d^4 + x^2)/2 and (x^4 - d^2)/2 coincide
        lam_a = np.linalg.eigvalsh(shubin_operator_matrix(64, 1, 2))
        lam_b = np.linalg.eigvalsh(shubin_operator_matrix(64, 2, 1))
        np.testing.assert_allclose(lam_a[:20], lam_b[:20], rtol=1e-9)

    def test_symmetric_positive(self):
        a = shubin_operator_matrix(30, 3, 2)
        np.testing.assert_allclose(a, a.T, atol=0)
        assert np.linalg.eigvalsh(a)[0] > 0

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            shubin_operator_matrix(10, 0, 1)
        with pytest.raises(ValueError):
            shubin_operator_matrix(10, 1, -2)


def _halved_run(g: SpectralFunction, t: float, k: int, m: int) -> np.ndarray:
    """The flow in the degree-32 Galerkin space, zero-padded to degree 64:
    the unchecked run that shubin_galerkin_flow at its default truncation
    compares its output with."""
    lam, vec = np.linalg.eigh(shubin_operator_matrix(32, k, m))
    coeff = np.zeros(33)
    coeff[: len(g.coeffs)] = g.coeffs
    out = np.zeros(65)
    out[:33] = vec @ (np.exp(-t * lam) * (vec.T @ coeff))
    return out


class TestGalerkinFlow:
    def test_matches_diagonal_harmonic_flow(self):
        g = random_expansion(5, degree=30)
        res = shubin_galerkin_flow(g, 0.3, 1, 1)  # returns without raising
        ref = harmonic_flow(g, 0.3)
        np.testing.assert_allclose(res.coeffs[:31], ref.coeffs, atol=1e-12)
        # the diagonal flow does not depend on the truncation at all
        np.testing.assert_array_equal(res.coeffs, _halved_run(g, 0.3, 1, 1))

    def test_quartic_ground_state_self_convergence(self):
        res = shubin_galerkin_flow(basis_function(0), 0.5, 2, 1)  # returns without raising
        assert res.norm() < 1.0
        assert np.linalg.norm(res.coeffs - _halved_run(basis_function(0), 0.5, 2, 1)) < 1e-4
        assert res.norm() == pytest.approx(0.7611295317071447, abs=1e-6)
        ground = np.linalg.eigvalsh(shubin_operator_matrix(64, 2, 1))[0]
        assert ground == pytest.approx(QUARTIC_GROUND_HALF, rel=1e-9)

    def test_fractional_theta_diagonal_case(self):
        # k = m = 1 stays diagonal, so the theta-power flow has an exact formula
        g = random_expansion(11, degree=16)
        res = shubin_galerkin_flow(g, 0.4, 1, 1, theta=0.75)
        lam = np.arange(17) + 0.5
        expected = g.coeffs * np.exp(-0.4 * lam**0.75)
        np.testing.assert_allclose(res.coeffs[:17], expected, atol=1e-12)

    def test_small_theta_rejected(self):
        g = basis_function(0)
        with pytest.raises(ValueError, match="theta"):
            shubin_galerkin_flow(g, 0.1, 1, 1, theta=0.5)
        with pytest.raises(ValueError, match="theta"):
            shubin_galerkin_flow(g, 0.1, 1, 2, theta=0.25)

    def test_top_heavy_input_flagged(self):
        # mass above n_trunc // 2 cannot be represented in the halved run, so
        # the drift check is conservative there
        with pytest.raises(NumericalError, match="truncation drift"):
            shubin_galerkin_flow(basis_function(60), 0.01, 1, 1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            shubin_galerkin_flow(SpectralFunction(np.eye(2)), 0.1, 1, 1)
        with pytest.raises(ValueError):
            shubin_galerkin_flow(basis_function(0), -1.0, 1, 1)
        with pytest.raises(ValueError):
            shubin_galerkin_flow(basis_function(10), 0.1, 1, 1, n_trunc=5)


class TestShubinExponents:
    def test_reference_triples(self):
        assert shubin_exponents(1, 1, 1) == (Fraction(1, 2), Fraction(1, 2))
        assert shubin_exponents(1, 2, 1) == (Fraction(2, 3), Fraction(1, 3))
        assert shubin_exponents(2, 1, 1) == (Fraction(1, 3), Fraction(2, 3))

    def test_grid_against_rederivation(self):
        for k in (1, 2, 3):
            for m in (1, 2, 3):
                for theta in (1, 2):
                    nu, mu = shubin_exponents(k, m, theta)
                    assert nu == max(Fraction(1, 2 * k * theta), Fraction(m, k + m))
                    assert mu == max(Fraction(1, 2 * m * theta), Fraction(k, k + m))
                    assert isinstance(nu, Fraction) and isinstance(mu, Fraction)

    def test_rational_theta(self):
        nu, mu = shubin_exponents(1, 1, Fraction(3, 4))
        assert nu == Fraction(2, 3) and mu == Fraction(2, 3)

    def test_large_theta_saturates(self):
        # beyond theta = 1 the algebraic floor m/(k+m) takes over
        assert shubin_exponents(1, 1, 2) == (Fraction(1, 2), Fraction(1, 2))

    def test_small_theta_rejected(self):
        with pytest.raises(ValueError):
            shubin_exponents(1, 1, Fraction(1, 2))


class TestGSBoundFit:
    def test_ground_state_anchor(self):
        bound = fit_gs_bound(basis_function(0), 0.5, 0.5)
        assert bound.D1 == pytest.approx(1.0, abs=1e-12)
        # binding constraint is the first moment: ||(1+x^2)^(1/2) h_0|| = sqrt(3/2)
        assert bound.D2 == pytest.approx(math.sqrt(1.5), rel=1e-10)
        assert bound.s == pytest.approx(1.0)

    def test_bound_majorizes_grid(self):
        f = random_expansion(3, degree=12)
        bound = fit_gs_bound(f, 0.5, 0.5)
        for n in range(9):
            for b in range(9):
                w = weighted_norm(f, n=n, beta=b, weight_delta=1.0)
                assert math.log(w) <= bound.log_value(n, b) + 1e-12, (n, b)

    def test_larger_exponents_give_smaller_d2(self):
        f = random_expansion(9, degree=10)
        loose = fit_gs_bound(f, 1.0, 1.0)
        tight = fit_gs_bound(f, 0.5, 0.5)
        assert loose.D2 <= tight.D2 + 1e-12

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            fit_gs_bound(SpectralFunction([0.0, 0.0]), 0.5, 0.5)


class TestCertificates:
    def test_invalid_certificates_rejected(self):
        good = dict(C=2.0, t0=0.5, nu=0.5, mu=0.5, r1=0.25, r2=0.5)
        SmoothingCertificate(**good)
        for bad in (
            dict(good, C=0.5),
            dict(good, t0=1.5),
            dict(good, nu=-0.1),
            dict(good, mu=1.0),
            dict(good, r2=0.0),
        ):
            with pytest.raises(ValueError):
                SmoothingCertificate(**bad)

    def test_fitted_certificate_generalizes(self):
        ensemble = [random_expansion(seed, degree=16) for seed in (1, 2)]
        cert = fit_smoothing_certificate(
            harmonic_flow, ensemble, [0.1, 0.2], 0.5, 0.5, grid_cap=8
        )
        assert cert.t0 == SMOOTHING_T0 and cert.fitted_t_grid == (0.1, 0.2)
        held_out = validate_smoothing(cert, harmonic_flow, ensemble, [0.15, 0.3], grid_cap=8)
        assert held_out.worst_ratio <= 1.05
        in_sample = validate_smoothing(cert, harmonic_flow, ensemble, [0.1, 0.2], grid_cap=8)
        assert in_sample.passed

    def test_validation_skips_times_beyond_t0(self):
        cert = SmoothingCertificate(C=5.0, t0=0.5, nu=0.5, mu=0.5, r1=0.5, r2=0.5)
        ensemble = [random_expansion(4, degree=6)]
        report = validate_smoothing(cert, harmonic_flow, ensemble, [0.2, 0.7], grid_cap=2)
        assert report.skipped_times == (0.7,)

    def test_log_bound_formula(self):
        cert = SmoothingCertificate(C=3.0, t0=0.9, nu=1.0, mu=0.5, r1=0.1, r2=0.7)
        direct = (
            (1 + 2 + 5) * math.log(3.0)
            - (0.1 + 0.7 * 5) * math.log(0.3)
            + math.lgamma(3)
            + 0.5 * math.lgamma(4)
        )
        assert cert.log_bound(2, 3, 0.3) == pytest.approx(direct, rel=1e-14)


class TestTail:
    def test_radius_values(self):
        assert tail_radius(2.0, 0.08) == pytest.approx(10.0, rel=1e-14)
        assert tail_radius(1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        for bad_eps in (0.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                tail_radius(1.0, bad_eps)
        with pytest.raises(ValueError):
            tail_radius(0.5, 0.5)

    def test_ground_state_tail(self):
        # mass of h_0 outside [-sqrt(2), sqrt(2)] is 1 - erf(sqrt(2))
        bound = GSBound(D1=1.0, D2=1.0, nu=0.5, mu=0.5)
        report = tail_mass_check(basis_function(0), bound, eps=1.0)
        assert report.r == pytest.approx(math.sqrt(2.0))
        assert report.tail_mass == pytest.approx(1.0 - math.erf(math.sqrt(2.0)), abs=1e-10)
        assert report.budget == 0.5
        assert step_holds("tail", report.tail_mass, report.budget)

    def test_fitted_bounds_pass_tail_check(self):
        for seed in (0, 1, 2):
            f = random_expansion(seed, degree=20)
            bound = fit_gs_bound(f, 0.5, 0.5)
            for eps in (0.1, 0.5, 1.0):
                report = tail_mass_check(f, bound, eps)
                assert step_holds("tail", report.tail_mass, report.budget), (seed, eps, report)


class TestDeltaTransfer:
    def test_identity_at_delta_one(self):
        bound = GSBound(D1=2.0, D2=3.0, nu=0.5, mu=0.5)
        moved = delta_weight_transfer(bound, 1.0)
        assert moved.D2 == 3.0 and moved.nu == 0.5 and moved.mu == 0.5

    def test_half_weight_constant(self):
        bound = GSBound(D1=2.0, D2=3.0, nu=0.5, mu=0.25)
        moved = delta_weight_transfer(bound, 0.5)
        assert moved.D2 == pytest.approx(3.0 * 4.663287963194248, rel=1e-12)
        assert moved.D2 == pytest.approx(3.0 * math.sqrt(8.0 * math.e), rel=1e-14)
        assert moved.nu == 0.25 and moved.mu == 0.25
        assert moved.s == pytest.approx(0.5)

    def test_regularity_index_drops_below_one(self):
        bound = GSBound(D1=1.0, D2=1.0, nu=0.5, mu=0.5)
        assert delta_weight_transfer(bound, 0.9).s == pytest.approx(0.95)
        assert delta_weight_transfer(bound, 1.0).s == pytest.approx(1.0)

    def test_invalid_delta(self):
        bound = GSBound(D1=1.0, D2=1.0, nu=0.5, mu=0.5)
        for delta in (-0.1, 1.2):
            with pytest.raises(ValueError):
                delta_weight_transfer(bound, delta)


ROOT = Path(__file__).resolve().parents[1]
_LOWER = np.array([0.0, 0.0, 1e-9])


def _highs(cost, a, b, lower):
    optimize = pytest.importorskip("scipy.optimize")
    # HiGHS accepts rows violated by up to its feasibility tolerances, 1e-7
    # by default, which lowers its objective; the reference runs at 1e-10
    res = optimize.linprog(
        cost,
        A_ub=-a,
        b_ub=-b,
        bounds=[(v, None) for v in lower],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return res


def _active(a, b, lower, x):
    slack = np.concatenate([a @ x - b, x - lower])
    return set(np.flatnonzero(slack <= 1e-9).tolist())


@st.composite
def certificate_lps(draw):
    """Rows (1+n+q, -log t, -q log t), q = n + b, with any right-hand side:
    the shape of the certificate fit's LP."""
    points = draw(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 8), st.floats(0.01, 0.99), st.floats(-20.0, 20.0)
            ),
            min_size=1,
            max_size=60,
        )
    )
    a = np.array([(1.0 + 2 * n + b, -math.log(t), -(n + b) * math.log(t)) for n, b, t, _ in points])
    return np.sum(a, axis=0), a, np.array([y for *_, y in points])


class TestVertexSimplex:
    def test_certificate_lps_match_highs(self, monkeypatch):
        # the smoothing_validate fit at seeds 0-9: the vertex HiGHS finds
        lps = []
        real = semigroup._vertex_simplex

        def recording(cost, a, b, lower):
            x = real(cost, a, b, lower)
            lps.append((cost, a, b, lower, x))
            return x

        monkeypatch.setattr(semigroup, "_vertex_simplex", recording)
        cfg = json.loads((ROOT / "scripts" / "configs" / "smoothing_validate.json").read_text())
        for seed in range(10):
            run_experiment(dict(cfg, seed=seed))
        assert len(lps) == 10
        for cost, a, b, lower, x in lps:
            assert a.shape == (270, 3)
            res = _highs(cost, a, b, lower)
            assert _active(a, b, lower, x) == _active(a, b, lower, res.x)
            assert cost @ x == pytest.approx(res.fun, rel=1e-14)
            assert np.min(a @ x - b) >= -1e-12

    @settings(max_examples=60, deadline=None)
    @given(certificate_lps())
    # one row of order 0: HiGHS at its default tolerances returned the bound
    # vertex, 1e-8 short of the row, and objective 0 against the exact 1e-8
    @example(
        lp=(
            np.array([1.0, math.log(2.0), 0.0]),
            np.array([[1.0, math.log(2.0), 0.0]]),
            np.array([1e-8]),
        )
    )
    def test_random_lps_of_the_fit_shape(self, lp):
        cost, a, b = lp
        x = semigroup._vertex_simplex(cost, a, b, _LOWER)
        assert np.all(x >= _LOWER)
        assert np.min(a @ x - b) >= -1e-9 * (1.0 + np.max(np.abs(b)))
        res = _highs(cost, a, b, _LOWER)
        assert cost @ x == pytest.approx(res.fun, rel=1e-9, abs=1e-9)

    def test_active_bounds_are_exact(self):
        # every row rises with log C, so the optimum has r1 and r2 at their bounds
        a = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        x = semigroup._vertex_simplex(np.sum(a, axis=0) + [0.0, 1.0, 1.0], a, np.array([2.0, 3.0]), _LOWER)
        assert x[0] == 2.0 and x[1] == 0.0 and x[2] == 1e-9

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(semigroup, "_MAX_PIVOTS", 0)
        ensemble = [random_expansion(1, degree=16)]
        with pytest.raises(NumericalError, match="certificate fit LP failed"):
            fit_smoothing_certificate(harmonic_flow, ensemble, [0.1, 0.2], 0.5, 0.5, grid_cap=8)
