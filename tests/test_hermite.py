"""Spectral core: oracles are mpmath evaluation, Gaussian-moment closed forms,
and central finite differences; ladder identities are checked against both."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from gsaudit import hermite
from gsaudit.hermite import (
    _clenshaw_scaled,
    _interval_rules,
    _poly_part,
    _rule_sums,
    Ball,
    DimensionMismatchError,
    SpectralFunction,
    ball_norms_squared,
    basis_function,
    basis_matrix,
    derivative,
    evaluate,
    gauss_hermite,
    interval_nodes,
    multiply_by_coordinate,
    norm_squared_on_intervals,
    norm_squared_outside_radius,
    refined_rows,
    weighted_norm,
)
from gsaudit.local_estimates import derivative_family, derivative_stack
from conftest import random_expansion


def hermite_fn_mp(n: int, z) -> mpmath.mpf:
    """High-precision orthonormal Hermite function (oracle)."""
    z = mpmath.mpmathify(z)
    norm = mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
    return mpmath.hermite(n, z) * mpmath.exp(-(z**2) / 2) / norm


class TestEvaluation:
    def test_ground_state_at_origin(self):
        # h_0(0) = pi^(-1/4)
        f = basis_function(0)
        assert evaluate(f, 0.0) == pytest.approx(math.pi ** -0.25, abs=1e-15)
        assert evaluate(f, 0.0) == pytest.approx(0.7511255444649425, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40, 64])
    def test_matches_high_precision_oracle(self, n):
        f = basis_function(n)
        xs = np.array([-7.3, -1.0, 0.0, 0.31, 2.0, 6.5])
        got = evaluate(f, xs)
        want = [float(hermite_fn_mp(n, x)) for x in xs]
        assert got == pytest.approx(want, rel=1e-11, abs=1e-13)

    def test_mixture_evaluation_linear(self, rng):
        f = random_expansion(7, 24)
        xs = rng.uniform(-5, 5, size=9)
        direct = sum(c * evaluate(basis_function(k), xs) for k, c in enumerate(f.coeffs))
        assert evaluate(f, xs) == pytest.approx(direct, rel=1e-11)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            evaluate(basis_function(3), np.array([[0.5, 1.0]]))


def extension(f, z):
    """The entire extension of f at complex points, as mk_bruteforce forms it
    from the polynomial part."""
    z = np.asarray(z, dtype=complex)
    return _poly_part(f, z) * np.exp(-0.5 * z**2)


class TestComplexEvaluation:
    def test_ground_state_at_i(self):
        # h_0(i) = pi^(-1/4) e^(1/2), purely real
        got = extension(basis_function(0), 1j)
        assert got.real == pytest.approx(math.pi ** -0.25 * math.exp(0.5), abs=1e-12)
        assert got.real == pytest.approx(1.2383966621255658, abs=1e-12)
        assert got.imag == pytest.approx(0.0, abs=1e-15)

    def test_agrees_with_real_evaluation(self, rng):
        f = random_expansion(11, 33)
        xs = rng.uniform(-4, 4, size=20)
        got = extension(f, xs)
        assert np.max(np.abs(got - evaluate(f, xs))) < 1e-12

    @pytest.mark.parametrize("n", [1, 6, 23])
    def test_matches_high_precision_oracle(self, n):
        f = basis_function(n)
        zs = [0.5 + 0.5j, -2.0 + 3.0j, 1.0 - 4.0j]
        got = extension(f, zs)
        want = [complex(hermite_fn_mp(n, mpmath.mpc(z))) for z in zs]
        assert got == pytest.approx(want, rel=1e-10)


class TestLadder:
    def test_derivative_of_h1(self):
        # h_1' = sqrt(1/2) h_0 - h_2
        d = derivative(basis_function(1))
        want = np.zeros(3)
        want[0] = math.sqrt(0.5)
        want[2] = -1.0
        assert d.coeffs == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("seed,degree", [(0, 5), (1, 20), (2, 64)])
    def test_derivative_against_finite_differences(self, seed, degree):
        f = random_expansion(seed, degree)
        g = derivative(f)
        rng = np.random.default_rng(100 + seed)
        xs = rng.uniform(-6, 6, size=100)
        h = 1e-6
        fd = (evaluate(f, xs + h) - evaluate(f, xs - h)) / (2 * h)
        assert np.max(np.abs(evaluate(g, xs) - fd)) < 5e-6 * max(1.0, np.max(np.abs(fd)))

    def test_coordinate_multiplication_pointwise(self, rng):
        f = random_expansion(3, 30)
        g = multiply_by_coordinate(f)
        xs = rng.uniform(-5, 5, size=50)
        assert evaluate(g, xs) == pytest.approx(xs * evaluate(f, xs), rel=1e-11, abs=1e-13)

    def test_ladder_norm_bookkeeping(self):
        # x h_0 = h_1 / sqrt(2), so ||x h_0||^2 = 1/2
        g = multiply_by_coordinate(basis_function(0))
        assert g.norm_squared() == pytest.approx(0.5, abs=1e-15)
        # h_0' = -h_1 / sqrt(2)
        d = derivative(basis_function(0))
        assert d.norm() == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


class TestQuadratureRules:
    @pytest.mark.parametrize("order", [1, 2, 8, 40, 96])
    def test_gauss_hermite_moments(self, order):
        # Oracle: int x^(2k) e^(-x^2) dx = Gamma(k + 1/2)
        x, w = gauss_hermite(order)
        for k in range(order):  # degree 2k <= 2 order - 1
            got = float(np.sum(w * x ** (2 * k)))
            assert got == pytest.approx(math.gamma(k + 0.5), rel=1e-12), (order, k)

    def test_gauss_hermite_rule_cached_read_only(self):
        x, w = gauss_hermite(17)
        again = gauss_hermite(17)
        assert again[0] is x and again[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.25, 3.75)])
    def test_gauss_legendre_moments(self, a, b):
        # one panel: the order-12 Gauss-Legendre rule, exact to degree 23
        x, w = interval_nodes(a, b, order=12, max_panel=b - a)
        for k in range(2 * 12 - 1):
            got = float(np.sum(w * x**k))
            want = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert got == pytest.approx(want, rel=1e-12)

    def test_cached_rule_cannot_be_poisoned(self):
        # one panel on [-1, 1] is the unit rule itself; writing into what a
        # caller got back must not reach the rule the next caller gets
        x, w = interval_nodes(-1.0, 1.0, order=7, max_panel=2.0)
        x[:] = 0.0
        w[:] = 0.0
        x, w = interval_nodes(-1.0, 1.0, order=7, max_panel=2.0)
        x0, w0 = leggauss(7)
        assert np.array_equal(x, x0) and np.array_equal(w, w0)

    def test_composite_interval_rule(self):
        x, w = interval_nodes(-2.0, 5.0, order=12, max_panel=0.5)
        assert float(np.sum(w * x**3)) == pytest.approx((5.0**4 - 2.0**4) / 4.0, rel=1e-12)


class TestStackedClenshaw:
    """One Clenshaw pass over a zero-padded stack must give every row the bits
    of that row evaluated alone, as a one-row stack."""

    @staticmethod
    def _vectors(seed):
        rng = np.random.default_rng(seed)
        loose = [rng.standard_normal(n) for n in (1, 2, 7, 40)]
        ladder = [g.coeffs for g in derivative_family(random_expansion(seed, 20), 24).values()]
        return loose + ladder

    @staticmethod
    def _stack(vectors):
        out = np.zeros((len(vectors), max(len(v) for v in vectors)))
        for j, v in enumerate(vectors):
            out[j, : len(v)] = v
        return out

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "points",
        [
            np.linspace(-12.0, 12.0, 97),
            np.linspace(-4.0, 4.0, 33) + 1j * np.linspace(3.0, -3.0, 33),
        ],
        ids=["real", "complex"],
    )
    def test_each_row_matches_its_one_row_stack(self, seed, points):
        vectors = self._vectors(seed)
        stacked = _clenshaw_scaled(self._stack(vectors), points)
        assert stacked.shape == (len(vectors), len(points))
        for j, v in enumerate(vectors):
            alone = _clenshaw_scaled(v[None], points)[0]
            assert np.array_equal(stacked[j], alone), j

    def test_scalar_point(self):
        vectors = self._vectors(3)
        stacked = _clenshaw_scaled(self._stack(vectors), np.float64(0.7))
        for j, v in enumerate(vectors):
            assert stacked[j] == _clenshaw_scaled(v[None], np.float64(0.7))[0]


def _linspace_nodes(a, b, order, max_panel):
    """interval_nodes as it was built for one interval, from np.linspace."""
    panels = max(1, math.ceil((b - a) / max_panel))
    edges = np.linspace(a, b, panels + 1)
    x0, w0 = leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x0[None, :]).ravel(), (half[:, None] * w0[None, :]).ravel()


def _one_interval_sums(stack, a, b, delta, order, max_panel):
    """The per-ball rule pass the batched kernel replaced, on one interval."""
    x, w = _linspace_nodes(a, b, order, max_panel)
    vals = _clenshaw_scaled(stack, x) * np.exp(-0.5 * x**2)
    return [float(np.sum(w * (1.0 + x**2) ** (delta * n) * vals[n] ** 2)) for n in range(len(stack))]


@st.composite
def interval_lists(draw):
    """Runs of intervals, some touching their predecessor, that may reach past
    the effective support of a degree <= 40 expansion (at most 24 from 0)."""
    out = []
    end = draw(st.floats(-32.0, 20.0))
    for _ in range(draw(st.integers(1, 8))):
        start = end + draw(st.sampled_from([0.0, 0.0, 0.37]) | st.floats(0.0, 8.0))
        end = start + draw(st.floats(1e-3, 4.0))
        out.append((start, end))
    return out


RULES = [(20, 0.5), (24, 0.5), (48, 0.25)]


class TestBatchedKernel:
    """The batched kernel must give every interval the bits of a pass over
    that interval alone, in every block layout. A block holds 655 points of a
    25-row derivative stack and 16,384 of a one-row stack (the example)."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(0, 40),
        derivatives=st.booleans(),
        delta=st.sampled_from([0.0, 0.5, 1.0]),
        rule=st.sampled_from(RULES),
        intervals=interval_lists(),
    )
    @example(seed=1, degree=30, derivatives=False, delta=0.5, rule=(48, 0.25), intervals=[(-50.0, -24.0), (-24.0, 70.0)])
    def test_sums_match_one_interval_passes(self, seed, degree, derivatives, delta, rule, intervals):
        f = random_expansion(seed, degree)
        stack = derivative_stack(f, 24) if derivatives else f.coeffs[None]
        x, w, ends = _interval_rules(intervals, *rule)
        sums = _rule_sums(stack, intervals, delta, *rule)
        assert sums.shape == (len(intervals), len(stack))
        for i, (a, b) in enumerate(intervals):
            xi, wi = _linspace_nodes(a, b, *rule)
            assert np.array_equal(x[ends[i] : ends[i + 1]], xi)
            assert np.array_equal(w[ends[i] : ends[i + 1]], wi)
            assert sums[i].tolist() == _one_interval_sums(stack, a, b, delta, *rule), i
        assert ends[-1] == len(x) == len(w)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 40), intervals=interval_lists())
    def test_interval_norm_is_the_sequential_total(self, seed, degree, intervals):
        # clipped at the cutoff, empty clips skipped, values added in order
        f = random_expansion(seed, degree)
        cutoff = hermite.effective_support_radius(f)
        total = 0.0
        for a, b in intervals:
            a, b = max(a, -cutoff), min(b, cutoff)
            if b > a:
                total += _one_interval_sums(f.coeffs[None], a, b, 0.0, 20, 0.5)[0]
        assert norm_squared_on_intervals(f, intervals) == total

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_ball_pairs_match_one_ball_passes(self, delta):
        stack = derivative_stack(random_expansion(5, 30), 24)
        balls = [Ball((c,), r) for c, r in [(-3.0, 0.4), (-2.6, 1.7), (0.1, 2.2), (9.0, 0.9)]]
        for ball, (coarse, fine) in zip(balls, ball_norms_squared(stack, balls, delta)):
            assert coarse == _one_interval_sums(stack, *ball.interval(), delta, 24, 0.5)
            assert fine == _one_interval_sums(stack, *ball.interval(), delta, 48, 0.25)


class TestParseval:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=64))
    def test_quadrature_norm_matches_coefficients(self, seed, degree):
        f = random_expansion(seed, degree)
        quad = weighted_norm(f, n=0, beta=0) ** 2
        assert abs(quad - f.norm_squared()) < 1e-10


def _gauss_hermite_pair(f, n, beta, delta):
    """The whole-line norm by the Gauss-Hermite pair the ladder sum replaced:
    orders deg + n + 9 (at least 100 for a fractional delta * n) and twice
    that must agree to a relative 1e-8; returns the fine value."""
    g = f
    for _ in range(beta):
        g = derivative(g)
    order = g.max_degree + n + 9
    if not float(delta * n).is_integer():
        order = max(order, 100)

    def squared(order):
        x, w = gauss_hermite(order)
        return float(np.sum(w * (1.0 + x**2) ** (delta * n) * _poly_part(g, x) ** 2))

    coarse, fine = squared(order), squared(2 * order)
    assert abs(fine - coarse) <= 1e-8 * max(abs(fine), abs(coarse))
    return math.sqrt(fine)


class TestWeightedNorms:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(0, 64),
        n=st.integers(0, 8),
        beta=st.integers(0, 8),
        delta=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @example(seed=7, degree=64, n=8, beta=8, delta=1.0)
    def test_integer_weight_matches_gauss_hermite(self, seed, degree, n, beta, delta):
        n -= n % 2 if delta == 0.5 else 0  # keep delta * n an integer
        f = random_expansion(seed, degree)
        got = weighted_norm(f, n=n, beta=beta, weight_delta=delta)
        assert got == pytest.approx(_gauss_hermite_pair(f, n, beta, delta), rel=1e-12)

    def test_integer_weight_evaluates_nothing(self, monkeypatch):
        # the ladder sum never evaluates the expansion nor runs a refinement
        # check, so it cannot raise QuadratureConvergenceError
        def forbidden(*args, **kwargs):
            raise AssertionError("an integer weight must not run quadrature")

        monkeypatch.setattr(hermite, "_clenshaw_scaled", forbidden)
        monkeypatch.setattr(hermite, "_check_refinement", forbidden)
        f = random_expansion(4, 64)
        for n, beta, delta in [(0, 0, 1.0), (2, 3, 1.0), (8, 8, 1.0), (4, 1, 0.5), (5, 2, 0.0)]:
            assert math.isfinite(weighted_norm(f, n=n, beta=beta, weight_delta=delta))

    def test_fractional_weight_is_checked_quadrature(self, monkeypatch):
        checked = []
        real = hermite._check_refinement

        def spy(coarse, fine, what, atol=0.0):
            checked.append(what)
            real(coarse, fine, what, atol)

        monkeypatch.setattr(hermite, "_check_refinement", spy)
        f = random_expansion(9, 30)
        got = weighted_norm(f, n=2, beta=1, weight_delta=0.3)
        assert checked and set(checked) == {"weighted_norm"}
        assert got == pytest.approx(_gauss_hermite_pair(f, 2, 1, 0.3), rel=1e-10)
        # w = 1 + x^2 >= 1, and p -> log ||w^(p/2) g||^2 is convex, so the
        # power 0.6 lies between the exact powers 0 and 1
        lo = weighted_norm(f, n=0, beta=1)
        hi = weighted_norm(f, n=1, beta=1, weight_delta=1.0)
        assert lo < got <= lo**0.4 * hi**0.6 * (1 + 1e-12)

    def test_weighted_ground_state(self):
        # ||(1+x^2)^(1/2) h_0||^2 = 1 + <x^2> = 3/2
        got = weighted_norm(basis_function(0), n=1, beta=0, weight_delta=1.0)
        assert got == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_derivative_norm(self):
        got = weighted_norm(basis_function(0), n=0, beta=1)
        assert got == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_fractional_weight_against_mpmath(self):
        # int (1+x^2)^0.3 h_0(x)^2 dx via adaptive high-precision quadrature
        want = float(
            mpmath.quad(
                lambda x: (1 + x**2) ** mpmath.mpf("0.3") * hermite_fn_mp(0, x) ** 2,
                [-mpmath.inf, mpmath.inf],
            )
        )
        got = weighted_norm(basis_function(0), n=1, beta=0, weight_delta=0.3)
        assert got**2 == pytest.approx(want, rel=1e-10)

    def test_ladder_consistency_weighted(self, rng):
        # ||(1+x^2)^(1/2) f||^2 equals the exact ladder image
        # ||f||^2 + ||x f||^2 via Parseval.
        f = random_expansion(21, 18)
        xf = multiply_by_coordinate(f)
        want = math.sqrt(f.norm_squared() + xf.norm_squared())
        got = weighted_norm(f, n=1, beta=0, weight_delta=1.0)
        assert got == pytest.approx(want, rel=1e-11)

    def test_ball_restriction(self):
        # int_{-1}^{1} h_0^2 = erf(1), by the ball kernel on a one-row stack
        ((coarse, fine),) = ball_norms_squared(
            basis_function(0).coeffs[None], [Ball((0.0,), 1.0)], 1.0
        )
        (got,) = refined_rows(coarse, fine, [0.0], "h_0 on [-1, 1]")
        assert got == pytest.approx(math.erf(1.0), rel=1e-12)


class TestRegionNorms:
    def test_interval_norms_sum_to_total(self, rng):
        f = random_expansion(13, 40)
        parts = [(-30.0, -1.2), (-1.2, 0.7), (0.7, 30.0)]
        total = sum(norm_squared_on_intervals(f, [iv]) for iv in parts)
        assert total == pytest.approx(f.norm_squared(), rel=1e-10)

    def test_outside_radius_complement(self):
        f = basis_function(0)
        got = norm_squared_outside_radius(f, 1.0)
        assert got == pytest.approx(1.0 - math.erf(1.0), rel=1e-10)

    def test_outside_radius_beyond_support_is_zero(self):
        assert norm_squared_outside_radius(basis_function(3), 120.0) == 0.0


class TestBasisMatrix:
    def test_orthonormality_under_quadrature(self):
        x, w = gauss_hermite(80)
        h = basis_matrix(40, x) * np.exp(0.5 * x**2)
        gram = (h * w) @ h.T
        assert np.max(np.abs(gram - np.eye(41))) < 1e-12


class TestValidation:
    def test_bad_coefficients_rejected(self):
        with pytest.raises(ValueError):
            SpectralFunction(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            SpectralFunction(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            SpectralFunction(np.ones((3, 3)))  # a 2D coefficient matrix
        with pytest.raises(ValueError):
            Ball((0.0, 0.0), 1.0)  # a 2D center

    def test_coeffs_frozen(self):
        f = basis_function(2)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_negative_weight_power_rejected(self):
        with pytest.raises(ValueError):
            weighted_norm(basis_function(0), n=-1)
        with pytest.raises(ValueError):
            weighted_norm(basis_function(0), n=1, weight_delta=1.5)
