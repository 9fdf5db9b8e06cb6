"""Ball classification, polydisc sup bounds, the series lemma, local estimates."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from gsaudit import hermite, local_estimates
from gsaudit.geometry import IntervalSensorSet, RadiusProfile, besicovitch_cover, sensor_periodic
from gsaudit.hermite import (
    Ball,
    NumericalError,
    SpectralFunction,
    basis_function,
    evaluate,
    interval_nodes,
    norm_squared_on_ball,
)
from gsaudit.local_estimates import (
    SERIES_TERM_CAP,
    BallAudit,
    ClassifierConfig,
    analyticity_check,
    bad_mass_bound,
    classify_balls,
    derivative_family,
    derivative_stack,
    local_estimate_check,
    mk_bound,
    mk_bruteforce,
    pointwise_witness,
    series_bound,
    tail_condition_order,
)
from gsaudit.semigroup import GSBound, delta_weight_transfer, fit_gs_bound, tail_radius

from conftest import random_expansion

ERF1 = math.erf(1.0)  # mass of h_0^2 on [-1, 1]


def _cfg(**kwargs):
    base = dict(eps=1.0, kappa=1, tilde_d2=2.0, s=0.5, delta=1.0, m_cap=8)
    base.update(kwargs)
    return ClassifierConfig(**base)


def _mass(f, ball):
    # the ball mass the pipeline measures and hands to every per-ball audit
    return norm_squared_on_ball(f, ball, atol=1e-30 * f.norm_squared())


def _classify(f, ball, cfg):
    return classify_balls(f, [ball], cfg, derivative_stack(f, cfg.m_cap))[0]


def _witness(f, ball, cfg):
    return pointwise_witness(f, ball, cfg, _mass(f, ball), derivative_stack(f, cfg.m_cap))


def _brute(f, ball, rho_k):
    return mk_bruteforce(f, ball, rho_k, _mass(f, ball))


class TestClassifierConfig:
    def test_log_q_closed_form(self):
        cfg = _cfg(tilde_d2=2.0, s=0.5)
        assert cfg.log_q(0) == 0.0
        expected = 6.0 * math.log(2.0) + 0.5 * math.log(6.0)
        assert math.isclose(cfg.log_q(3), expected, rel_tol=1e-14)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(eps=0.0),
            dict(eps=1.5),
            dict(kappa=0),
            dict(kappa=1.5),
            dict(tilde_d2=0.9),
            dict(s=1.0),
            dict(s=-0.1),
            dict(delta=1.1),
            dict(m_cap=-1),
            dict(m_cap=25),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            _cfg(**bad)


class TestGoodBallTest:
    def test_order_zero_always_holds(self):
        # at m = 0 the inequality reads mass <= (2 kappa/eps) * 2 * mass
        f = random_expansion(3, 12)
        res = _classify(f, Ball((0.5,), 1.2), _cfg(tilde_d2=1.0, s=0.0))
        assert res.log_margins[0] >= math.log(4.0) - 1e-9

    def test_gaussian_unit_ball_good(self):
        res = _classify(basis_function(0), Ball((0.0,), 1.0), _cfg(tilde_d2=10.0))
        assert res.is_good and res.failing_m is None and not res.degenerate
        assert math.isclose(res.mass_sq, ERF1, rel_tol=1e-10)
        assert len(res.log_margins) == 9

    def test_high_degree_small_ball_bad(self):
        # h_40 oscillates at frequency ~9 near the origin, so with trivial
        # derivative constants the weighted masses outrun 2^(m+1)/m! quickly
        res = _classify(basis_function(40), Ball((0.0,), 0.5), _cfg(tilde_d2=1.0, s=0.0, m_cap=6))
        assert not res.is_good
        assert res.failing_m is not None and 1 <= res.failing_m <= 6
        assert res.log_margins[res.failing_m] < 0.0

    def test_far_ball_degenerate(self):
        res = _classify(basis_function(4), Ball((40.0,), 1.0), _cfg())
        assert res.is_good and res.degenerate and res.log_margins == ()

    def test_dimension_mismatch(self):
        # a 2D ball cannot be built, so it never reaches the classifier
        with pytest.raises(ValueError):
            _classify(basis_function(2), Ball((0.0, 0.0), 1.0), _cfg())

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 50),
        degree=st.integers(1, 10),
        center=st.floats(-3.0, 3.0),
        eps_small=st.floats(0.01, 0.3),
        eps_large=st.floats(0.5, 1.0),
    )
    def test_monotone_in_eps(self, seed, degree, center, eps_small, eps_large):
        # shrinking eps inflates every right-hand side, so a ball that is good
        # at the larger eps stays good at the smaller one
        f = random_expansion(seed, degree)
        ball = Ball((center,), 1.0)
        derivs = derivative_stack(f, 4)
        kwargs = dict(tilde_d2=1.0, s=0.0, m_cap=4)
        (res_large,) = classify_balls(f, [ball], _cfg(eps=eps_large, **kwargs), derivs)
        (res_small,) = classify_balls(f, [ball], _cfg(eps=eps_small, **kwargs), derivs)
        if res_large.is_good:
            assert res_small.is_good


    @pytest.mark.parametrize("seed, center, delta", [(0, 0.3, 1.0), (4, -1.7, 0.5), (9, 2.2, 0.25)])
    def test_margins_match_row_by_row_quadrature(self, seed, center, delta):
        # reference: each order integrated on its own by the fine rule (48
        # points on panels of at most 0.25) with the unpadded d^m f, as the
        # classifier did before its orders shared one stacked quadrature
        f = random_expansion(seed, 16)
        ball = Ball((center,), 0.9)
        cfg = _cfg(tilde_d2=3.0, s=0.5, delta=delta, m_cap=24)
        res = _classify(f, ball, cfg)
        assert not res.degenerate and len(res.log_margins) == cfg.m_cap + 1
        a, b = ball.interval()
        x, w = interval_nodes(a, b, order=48, max_panel=0.25)
        log_mass = math.log(res.mass_sq)
        for m, g in derivative_family(f, cfg.m_cap).items():
            sq = float(np.sum(w * (1.0 + x**2) ** (delta * m) * evaluate(g, x) ** 2))
            log_rhs = (
                math.log(2.0 * cfg.kappa / cfg.eps)
                + (m + 1) * math.log(2.0)
                + 2.0 * cfg.log_q(m)
                - gammaln(m + 1)
                + log_mass
            )
            log_lhs = 2.0 * math.log(math.sqrt(sq)) - gammaln(m + 1)
            assert res.log_margins[m] == log_rhs - log_lhs, m


class TestClassifyBalls:
    def test_checks_and_results_are_those_of_a_loop(self, monkeypatch):
        # the batched rules must leave every refinement check where
        # classifying the balls one at a time makes it: the mass, then each
        # order of a non-degenerate ball, ball by ball
        whats = []
        real = hermite._check_refinement

        def recording(coarse, fine, what, atol=0.0):
            whats.append(what)
            return real(coarse, fine, what, atol)

        monkeypatch.setattr(hermite, "_check_refinement", recording)
        f = random_expansion(11, 24)
        cfg = _cfg(tilde_d2=3.0, s=0.5, delta=0.5, m_cap=24)
        derivs = derivative_stack(f, cfg.m_cap)
        balls = [Ball((c,), r) for c, r in [(-45.0, 2.0), (-1.1, 0.7), (0.2, 1.6), (30.0, 1.0), (2.4, 0.9)]]
        batched = classify_balls(f, balls, cfg, derivs)
        batched_whats, whats[:] = whats[:], []
        looped = [classify_balls(f, [ball], cfg, derivs)[0] for ball in balls]
        assert batched == looped
        assert [r.degenerate for r in looped] == [True, False, False, True, False]
        expected = []
        for r in looped:
            expected += ["norm_squared_on_ball"] + ["weighted_norm"] * (0 if r.degenerate else 25)
        assert batched_whats == whats == expected


class TestTailConditionOrder:
    def test_closed_form(self):
        cfg = _cfg(eps=0.5, kappa=2)
        assert tail_condition_order(cfg, d1=4.0, mass_sq=1.0) == 0
        # eps D1^2 / (2 kappa mass) = 2000 -> least m with 2^(m+1) >= 2000 is 10
        m0 = tail_condition_order(cfg, d1=4.0, mass_sq=0.001)
        assert m0 == 10
        assert 2.0 ** (m0 + 1) >= 2000.0 > 2.0**m0

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            tail_condition_order(_cfg(), 1.0, 0.0)


class TestBadMassBound:
    def test_fast_decay_passes(self):
        # near-Gaussian input: every ball is good, so only the complement
        # term contributes and the budget eps D1^2 holds with room
        f = random_expansion(11, 2)
        bound = fit_gs_bound(f, nu=0.5, mu=0.5)
        tilde = delta_weight_transfer(bound, 0.5)
        eps = 0.5
        profile = RadiusProfile(R=1.0, delta=0.5, eta=0.5, r0=1.0)
        covering = besicovitch_cover(profile, tail_radius(tilde.D2, eps))
        cfg = ClassifierConfig(
            eps=eps,
            kappa=covering.kappa_measured,
            tilde_d2=tilde.D2,
            s=tilde.s,
            delta=0.5,
            m_cap=8,
        )
        results = [_classify(f, ball, cfg) for ball in covering.balls()]
        report = bad_mass_bound(f, covering, cfg, tilde, results)
        assert report.passed
        assert report.n_bad == 0 and report.bad_mass == 0.0
        assert report.total == report.bad_mass + report.uncertified_good_mass + report.q0_mass_upper
        n_good = sum(order is not None for order in report.tail_orders)
        assert n_good + report.n_bad + report.n_degenerate == len(covering.balls())

    def test_result_count_mismatch_rejected(self):
        f = basis_function(0)
        profile = RadiusProfile()
        covering = besicovitch_cover(profile, 2.0)
        bound = GSBound(D1=1.0, D2=2.0, nu=0.25, mu=0.5)
        cfg = ClassifierConfig(eps=1.0, kappa=covering.kappa_measured, tilde_d2=2.0, s=0.75, delta=0.0)
        with pytest.raises(ValueError):
            bad_mass_bound(f, covering, cfg, bound, results=[])


class TestPointwiseWitness:
    def test_gaussian_witness_found(self):
        ball = Ball((0.0,), 1.0)
        res = _witness(basis_function(0), ball, _cfg())
        assert res.verified and res.min_margin >= 0.0 and not res.refined
        assert abs(res.x_k[0]) <= 1.0

    def test_bad_ball_witness_fails_after_refinement(self):
        # same setup as the bad-classification case: no point can satisfy
        # the bounds, and the search reports the refinement attempt
        res = _witness(basis_function(40), Ball((0.0,), 0.5), _cfg(tilde_d2=1.0, s=0.0, m_cap=4))
        assert not res.verified and res.refined and res.min_margin < 0.0

    def test_good_ball_has_witness_ensemble(self):
        cfg = _cfg(tilde_d2=3.0, s=0.5, m_cap=6)
        for seed in range(6):
            f = random_expansion(seed, 10)
            ball = Ball((0.5 * seed - 1.0,), 1.0)
            derivs = derivative_stack(f, cfg.m_cap)
            (cls,) = classify_balls(f, [ball], cfg, derivs)
            if not cls.is_good or cls.degenerate:
                continue
            wit = pointwise_witness(f, ball, cfg, mass_sq=cls.mass_sq, derivatives=derivs)
            assert wit.verified, f"good ball without witness at seed {seed}"

    def test_zero_mass_rejected(self):
        f = basis_function(0)
        with pytest.raises(ValueError):
            pointwise_witness(f, Ball((0.0,), 1.0), _cfg(), 0.0, derivative_stack(f, 8))


class TestMkBruteforce:
    def test_gaussian_closed_form(self):
        # |H_0(u+iv)| = pi^(-1/4) exp((v^2-u^2)/2); on [-1,1] + D(0,4) the sup
        # sits at u=0, v=4, and the ball mass is erf(1)
        res = _brute(basis_function(0), Ball((0.0,), 1.0), 0.5)
        expected = 0.5 * math.log(2.0) - 0.5 * math.log(ERF1) + 8.0 - 0.25 * math.log(math.pi)
        assert res.converged
        assert math.isclose(res.log_m, expected, abs_tol=1e-6)

    def test_never_below_one(self):
        for seed in range(5):
            f = random_expansion(seed, 14)
            res = _brute(f, Ball((0.4 * seed - 1.0,), 0.8), 0.6)
            assert res.log_m >= 0.0

    def test_zero_mass_rejected(self):
        f = basis_function(0)
        with pytest.raises(ValueError):
            mk_bruteforce(f, Ball((0.0,), 1.0), 0.5, norm_sq=0.0)

    def test_nan_sample_is_a_numerical_error(self, monkeypatch):
        # max(best, nan) keeps best, so a NaN would drop its whole block
        real = local_estimates._log_abs_analytic

        def one_nan(f, z):
            out = real(f, z)
            out[len(out) // 2] = math.nan
            return out

        monkeypatch.setattr(local_estimates, "_log_abs_analytic", one_nan)
        with pytest.raises(NumericalError, match="NaN"):
            _brute(random_expansion(2, 10), Ball((0.3,), 1.0), 0.5)

    def test_blocked_max_is_the_one_block_max(self):
        f = random_expansion(6, 30)
        pts = local_estimates._polydisc_points(Ball((1.0,), 1.3), 4.0, 96, 192)
        assert len(pts) > 2 * hermite._BLOCK
        whole = float(np.max(local_estimates._log_abs_analytic(f, pts)))
        assert local_estimates._max_log_abs(f, pts) == whole


def _log_terms(m, d_value, s):
    return m * math.log(d_value) - (1.0 - s) * gammaln(m + 1)


def _chunked_series_reference(d_value, s, term_cap=SERIES_TERM_CAP):
    """The series summed from m = 0 in 1M-term chunks, stopping at the first
    chunk end whose geometric right tail is within 1e-12 of the partial sum;
    returns (log_sum, certified, log of the last right-tail bound)."""
    one_ms = 1.0 - s
    log_sum, log_rem, start = -math.inf, math.inf, 0
    while start <= term_cap:
        m = np.arange(start, min(start + 1_000_000, term_cap + 1))
        log_sum = np.logaddexp(log_sum, logsumexp(_log_terms(m, d_value, s)))
        last = int(m[-1])
        ratio = d_value / (last + 2) ** one_ms
        if ratio < 1.0:
            log_rem = _log_terms(last + 1, d_value, s) - math.log1p(-ratio)
            if log_rem <= log_sum + math.log(1e-12):
                return float(log_sum), True, log_rem
        start = last + 1
    return float(log_sum), False, log_rem


class TestSeriesBound:
    def test_exponential_closed_form(self):
        # D = 1/2, s = 0: the series is e^(1/2) and the bound collapses to 2
        res = series_bound(0.5, 0.0)
        assert math.isclose(math.exp(res.log_sum), math.exp(0.5), rel_tol=1e-12)
        assert math.isclose(math.exp(res.log_bound), 2.0, rel_tol=1e-12)
        assert res.remainder_certified
        assert res.log_remainder <= res.log_sum + math.log(1e-12)

    def test_half_gevrey_oracle(self):
        # independent high-precision partial sum of sum 2^m / sqrt(m!)
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        oracle = mpmath.nsum(
            lambda m: mpmath.mpf(2) ** m / mpmath.sqrt(mpmath.factorial(m)), [0, mpmath.inf]
        )
        res = series_bound(2.0, 0.5)
        assert math.isclose(math.exp(res.log_sum), float(oracle), rel_tol=1e-10)
        # bound = 2 * 4^(3 * 4^2) = 2 * 4^48
        assert math.isclose(res.log_bound, math.log(2.0) + 48.0 * math.log(4.0), rel_tol=1e-14)
        assert res.log_sum <= res.log_bound

    @pytest.mark.parametrize("d_value", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("s", [0.0, 0.5])
    def test_sum_below_bound(self, d_value, s):
        res = series_bound(d_value, s)
        assert res.remainder_certified
        assert res.log_sum <= res.log_bound + 1e-12

    def test_term_cap_reached_uncertified(self):
        res = series_bound(5.0, 0.9, term_cap=1000)
        assert not res.remainder_certified
        assert math.isinf(res.log_remainder)

    def test_validation(self):
        with pytest.raises(ValueError):
            series_bound(0.4, 0.0)
        with pytest.raises(ValueError):
            series_bound(1.0, 1.0)

    def test_violated_bound_is_returned(self, monkeypatch):
        # a sum above the proved bound is reported, not raised: the lemma
        # suite and the mk-bound step audit it
        monkeypatch.setattr(local_estimates, "_LOG2", -1000.0)
        res = series_bound(2.0, 0.5)
        assert res.remainder_certified
        assert res.log_sum > res.log_bound + 1e-9

    def test_exponential_with_window_past_zero(self):
        # s = 0 sums to e^D; at D = 2000 the +-40 sigma window starts at 211
        res = series_bound(2000.0, 0.0)
        lo = math.floor(2000.0 - 40.0 * math.sqrt(2000.0))
        assert lo > 0
        assert res.remainder_certified
        assert math.isclose(res.log_sum, 2000.0, rel_tol=1e-12)
        # the window [lo, hi] certified at once
        hi = math.ceil(2000.0 + 40.0 * math.sqrt(2000.0))
        assert res.terms_used == hi - lo + 1
        # t(lo-1)/(1 - lo/D) bounds the left tail, summed term by term here
        log_left = _log_terms(lo - 1, 2000.0, 0.0) - math.log1p(-lo / 2000.0)
        direct_left = logsumexp(_log_terms(np.arange(lo), 2000.0, 0.0))
        assert direct_left <= log_left
        # log_remainder adds it to the geometric right tail, and covers the
        # terms left out on both sides
        log_right = _log_terms(hi + 1, 2000.0, 0.0) - math.log1p(-2000.0 / (hi + 2))
        assert res.log_remainder == np.logaddexp(log_right, log_left)
        right = np.arange(hi + 1, hi + 100_000)
        omitted = np.logaddexp(direct_left, logsumexp(_log_terms(right, 2000.0, 0.0)))
        assert omitted <= res.log_remainder <= res.log_sum + math.log(1e-12)

    def test_slow_decay_certified_by_widening(self):
        # near s = 1 the terms fall slower than a Gaussian: the first window,
        # [0, 401], leaves too much out and the doubled one certifies
        res = series_bound(1.0, 0.99)
        assert res.remainder_certified
        assert 402 < res.terms_used < 10_000
        assert res.log_remainder <= res.log_sum + math.log(1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.floats(0.0, 0.99),
        x=st.floats(0.0, 1.0),
    )
    # D = 1.00781: a 1e-12 tail tolerance certified the window [0, 593],
    # whose log-sum falls 5.1e-13 short of the sum from zero's
    @example(s=0.99, x=0.8671875)
    def test_window_agrees_with_the_sum_from_zero(self, s, x):
        # D from 1/2 up to a peak D^(1/(1-s)) of 1e5
        log_d = math.log(0.5) + x * ((1.0 - s) * math.log(1e5) - math.log(0.5))
        d_value = max(math.exp(log_d), 0.5)
        res = series_bound(d_value, s)
        log_sum, certified, _ = _chunked_series_reference(d_value, s)
        assert res.remainder_certified == certified
        assert math.isclose(res.log_sum, log_sum, rel_tol=1e-14)

    def test_lemma_grid_point_matches_the_sum_from_zero(self):
        # the lemma suite reports log_sum: its (5, 0.9) window [9.4M, 10.2M]
        # must give the float the sum over [0, 10M) gave
        assert series_bound(5.0, 0.9).log_sum == _chunked_series_reference(5.0, 0.9)[0]

    @pytest.mark.parametrize(
        "d_value, s, min_terms",
        [
            (5.5, 0.9, 1_200_000),  # peak 5.5^10 = 2.5e7
            (1.4, 0.98, 2_500_000),  # peak 1.4^50 = 2.0e7
        ],
    )
    def test_wide_window_in_bounded_chunks(self, d_value, s, min_terms):
        series_bound(2.0, 0.5)  # first-call allocations stay out of the trace
        tracemalloc.start()
        try:
            res = series_bound(d_value, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.remainder_certified
        assert min_terms < res.terms_used < 2 * min_terms
        assert peak < 64 * 2**20

    @pytest.mark.parametrize(
        "d_value, s, term_cap",
        [
            (5.0, 0.9, 2000),  # peak past the cap
            (2.0, 0.9, 1100),  # peak inside, the right tail still too heavy
            (1.0, 0.99, 500),  # a window first, then the cap
        ],
    )
    def test_cap_reached_returns_the_sum_from_zero(self, d_value, s, term_cap):
        res = series_bound(d_value, s, term_cap=term_cap)
        log_sum, certified, log_rem = _chunked_series_reference(d_value, s, term_cap)
        assert not res.remainder_certified and not certified
        assert res.log_sum == log_sum
        assert res.log_remainder == log_rem


class TestMkBound:
    def test_reference_constants(self):
        # D = 40 * 1 * 1 * max(1, 2) = 80 and the uniform bound exponent is
        # 3 * 160^2 = 76800 at kappa = 1, eps = 1, s = 0
        cfg = ClassifierConfig(eps=1.0, kappa=1, tilde_d2=1.0, s=0.0, delta=0.0)
        profile = RadiusProfile(R=1.0, delta=0.0, eta=0.5, r0=1.0)
        bound = GSBound(D1=1.0, D2=1.0, nu=0.0, mu=0.0)
        res = mk_bound(cfg, profile, bound)
        assert res.d_value == 80.0
        assert math.isclose(res.log_bound, math.log(4.0) + 0.5 * math.log(2.0) + 76800.0)
        assert not res.exponent_overflow
        # the series route is far sharper here: log(2 sqrt(2) e^80)
        assert res.log_intermediate is not None
        expected = 1.5 * math.log(2.0) + 80.0
        assert math.isclose(res.log_intermediate, expected, rel_tol=1e-10)
        assert res.log_intermediate < res.log_bound

    def test_constants_must_match_bound(self):
        cfg = ClassifierConfig(eps=1.0, kappa=1, tilde_d2=1.0, s=0.0, delta=0.0)
        profile = RadiusProfile()
        with pytest.raises(ValueError):
            mk_bound(cfg, profile, GSBound(D1=1.0, D2=2.0, nu=0.0, mu=0.0))
        with pytest.raises(ValueError):
            mk_bound(cfg, profile, GSBound(D1=1.0, D2=1.0, nu=0.25, mu=0.25))

    def test_overflow_flagged(self):
        cfg = ClassifierConfig(eps=1.0, kappa=1, tilde_d2=1000.0, s=0.95, delta=0.0)
        profile = RadiusProfile()
        bound = GSBound(D1=1.0, D2=1000.0, nu=0.475, mu=0.475)
        res = mk_bound(cfg, profile, bound)
        assert res.exponent_overflow and math.isinf(res.log_bound)
        assert res.log_intermediate is None

    def test_bruteforce_below_bound(self):
        # criterion shape: the measured sup never exceeds the closed form
        profile = RadiusProfile(R=1.0, delta=0.0, eta=0.5, r0=1.0)
        bound = GSBound(D1=1.0, D2=1.0, nu=0.0, mu=0.0)
        for eps in (0.1, 1.0):
            cfg = ClassifierConfig(eps=eps, kappa=1, tilde_d2=1.0, s=0.0, delta=0.0)
            ub = mk_bound(cfg, profile, bound)
            for center in (0.0, 1.5):
                ball = Ball((center,), float(profile.rho(center)))
                brute = _brute(basis_function(0), ball, float(profile.rho(center)))
                assert brute.log_m <= ub.log_intermediate <= ub.log_bound


class TestLocalEstimateCheck:
    def test_full_overlap_reference(self):
        # omega covering the ball: base 48, exponent 1, ratio exactly 48
        f = random_expansion(2, 8)
        ball = Ball((0.2,), 1.5)
        rep = local_estimate_check(f, ball, IntervalSensorSet([(-50.0, 50.0)]), 0.0, _mass(f, ball))
        assert rep.applicable and rep.passed
        assert math.isclose(rep.base, 48.0, rel_tol=1e-14)
        assert rep.exponent == 1.0
        assert math.isclose(rep.log_ratio, math.log(48.0), abs_tol=1e-6)

    def test_periodic_sensor_passes_with_honest_sup(self):
        ball = Ball((0.0,), 2.0)
        omega = sensor_periodic(1.0, 0.5)
        for degree in (0, 5):
            f = basis_function(degree)
            mass = _mass(f, ball)
            brute = mk_bruteforce(f, ball, 1.0, mass)
            rep = local_estimate_check(f, ball, omega, brute.log_m, mass)
            assert rep.applicable and rep.passed

    def test_dishonest_sup_detected(self):
        # claiming M = 1 while omega sits in a tiny window at the zero of h_5
        # must fail: the check has real teeth
        f, ball = basis_function(5), Ball((0.0,), 2.0)
        rep = local_estimate_check(f, ball, IntervalSensorSet([(-5e-7, 5e-7)]), 0.0, _mass(f, ball))
        assert rep.applicable and not rep.passed

    def test_empty_intersection_inapplicable(self):
        f, ball = basis_function(0), Ball((0.0,), 1.0)
        rep = local_estimate_check(f, ball, IntervalSensorSet([(10.0, 11.0)]), 0.0, _mass(f, ball))
        assert not rep.applicable and not rep.passed

    def test_negative_log_sup_rejected(self):
        with pytest.raises(ValueError):
            local_estimate_check(
                basis_function(0), Ball((0.0,), 1.0), IntervalSensorSet([(-1.0, 1.0)]), -0.5, ERF1
            )

    def test_two_dimensional_rejected(self):
        # 2D inputs are refused where they are built
        with pytest.raises(ValueError):
            SpectralFunction(np.ones((1, 1)))
        with pytest.raises(ValueError):
            local_estimate_check(
                basis_function(0),
                Ball((0.0, 0.0), 1.0),
                IntervalSensorSet([(-1.0, 1.0)]),
                0.0,
                ERF1,
            )


class TestAnalyticityCheck:
    def test_gaussian_premise_and_convergence(self):
        rep = analyticity_check(basis_function(0), c1=1.0, c2=1.0, y=0.3, tau=0.5)
        assert rep.premise_passed and not rep.violations
        assert rep.final_error < 1e-10
        assert rep.converged and rep.fitted_ratio < 1.0

    def test_premise_violation_detected(self):
        f = basis_function(6)
        rep = analyticity_check(f, c1=1e-3, c2=1.0, y=0.0, tau=0.3)
        assert not rep.premise_passed
        assert any(v[0] == 0 for v in rep.violations)

    def test_residuals_decrease(self):
        rep = analyticity_check(random_expansion(5, 8), c1=50.0, c2=2.0, y=-0.4, tau=0.6)
        assert rep.residuals[-1] <= rep.residuals[0]
        assert rep.converged

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            analyticity_check(basis_function(0), 1.0, 1.0, 0.0, tau=0.0)


class TestBallAudit:
    def _audit(self):
        return BallAudit(
            k=0,
            ball=Ball((0.0,), 1.0),
            m_cap=8,
            is_good=True,
            failing_m=None,
            degenerate=False,
            mass_sq=0.5,
        )

    def test_staged_fields_default_none(self):
        audit = self._audit()
        assert audit.mk_consistent is None and audit.local_passed is None

    def test_with_fields_and_consistency(self):
        audit = replace(self._audit(), log_mk_bruteforce=3.0, log_mk_bound=10.0)
        assert audit.mk_consistent is True
        worse = replace(audit, log_mk_bruteforce=11.0)
        assert worse.mk_consistent is False

    def test_local_verdict(self):
        audit = replace(self._audit(), log_local_lhs=5.0, log_local_rhs=1.0, local_applicable=True)
        assert audit.local_passed is True
        assert replace(audit, log_local_lhs=0.0).local_passed is False

    def test_json_roundtrip(self):
        audit = replace(
            self._audit(), tail_certified=True, tail_order=3, x_k=(0.25,), witness_verified=True
        )
        payload = json.loads(json.dumps(audit.to_dict()))
        assert payload["k"] == 0 and payload["center"] == [0.0]
        assert payload["tail_order"] == 3 and payload["x_k"] == [0.25]
        assert payload["mk_consistent"] is None


class TestDerivativeFamily:
    def test_one_dimensional_chain(self):
        fam = derivative_family(basis_function(3), 4)
        assert set(fam) == {0, 1, 2, 3, 4}
        # d h_3 = sqrt(3/2) h_2 - sqrt(2) h_4 at x = 0.7
        x = 0.7
        lhs = evaluate(fam[1], x)
        rhs = math.sqrt(1.5) * evaluate(basis_function(2), x) - math.sqrt(2.0) * evaluate(
            basis_function(4), x
        )
        assert math.isclose(lhs, rhs, rel_tol=1e-12)
