"""Spectral core: oracles are mpmath evaluation, Gaussian-moment closed forms,
and central finite differences; ladder identities are checked against both."""

import contextlib
import io
import math
import os
import subprocess
import sys

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
    _rule_sums,
    _stack_scaled,
    Ball,
    SpectralFunction,
    ball_norms_squared,
    derivative,
    evaluate,
    gauss_hermite,
    interval_nodes,
    log_factorial,
    logsumexp,
    multiply_by_coordinate,
    norm_squared_on_intervals,
    norm_squared_outside_radius,
    refined_rows,
    weighted_norm,
)
from gsaudit.local_estimates import derivative_family, derivative_stack
from conftest import basis_function, random_expansion


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
        with pytest.raises(ValueError, match="expansions take scalar or vector points"):
            evaluate(basis_function(3), np.array([[0.5, 1.0]]))


def extension(f, z):
    """The entire extension of f at complex points, as mk_bruteforce forms it
    from the polynomial part."""
    z = np.asarray(z, dtype=complex)
    return _clenshaw_scaled(f.coeffs, z) * np.exp(-0.5 * z**2)


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


def _log_factorial_error(m, got):
    # |got - log m!| in units of max(log m!, 1), against mpmath at 50 digits
    exact = mpmath.loggamma(mpmath.mpf(int(m) + 1))
    return float(abs(mpmath.mpf(float(got)) - exact) / max(abs(exact), 1))


class TestSpecialFunctions:
    def test_log_factorial_scalar_is_lgamma(self):
        for m in (0, 1, 24, 255, 256, 10**6):
            assert log_factorial(m) == math.lgamma(m + 1)
        assert log_factorial(np.int64(30)) == math.lgamma(31)

    def test_log_factorial_against_mpmath(self):
        # every m up to 2000, then a sample up to 2e6: the Stirling sum's
        # truncation is below 1e-19, so what is left is rounding
        rng = np.random.default_rng(3)
        m = np.concatenate([np.arange(2001), np.sort(rng.integers(2001, 2_000_000, 400))])
        got = log_factorial(m)
        assert got.shape == m.shape
        with mpmath.workdps(50):
            worst = max(_log_factorial_error(k, v) for k, v in zip(m, got))
        assert worst <= 1e-15

    @pytest.mark.parametrize(
        "a",
        [
            [3.5],
            [-np.inf],
            [-np.inf, -np.inf, -np.inf],
            [np.inf, 1.0],
            [-np.inf, 2.0, 1.0],
            [1e308, 1e308],
            [-1000.0, -1000.0],
        ],
    )
    def test_logsumexp_edge_cases_match_scipy(self, a):
        special = pytest.importorskip("scipy.special")
        assert logsumexp(a) == special.logsumexp(np.asarray(a))

    def test_logsumexp_nan_propagates(self):
        assert math.isnan(logsumexp([1.0, np.nan]))
        assert math.isnan(logsumexp([np.inf, np.nan]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=200),
        st.floats(-700.0, 700.0),
    )
    def test_logsumexp_matches_scipy(self, values, shift):
        special = pytest.importorskip("scipy.special")
        a = np.asarray(values) + shift
        want = float(special.logsumexp(a))
        assert logsumexp(a) == pytest.approx(want, rel=1e-15, abs=1e-12)

    def test_logsumexp_of_many_normals_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        a = np.random.default_rng(0).standard_normal(100_000)
        assert logsumexp(a) == pytest.approx(float(special.logsumexp(a)), rel=1e-15)


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
    """The stack kernel must give every row of a zero-padded stack the bits of
    that row evaluated alone, as a one-row stack."""

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
    @pytest.mark.parametrize("points", [np.linspace(-12.0, 12.0, 97)], ids=["real"])
    def test_each_row_matches_its_one_row_stack(self, seed, points):
        stack = self._stack(self._vectors(seed))
        stacked = _stack_scaled(stack, points)
        assert stacked.shape == (len(stack), len(points))
        for j in range(len(stack)):
            assert np.array_equal(stacked[j], _stack_scaled(stack[j : j + 1], points)[0]), j

    def test_scalar_point(self):
        stack = self._stack(self._vectors(3))
        stacked = _stack_scaled(stack, np.float64(0.7))
        assert stacked.shape == (len(stack),)
        for j in range(len(stack)):
            assert stacked[j] == _stack_scaled(stack[j : j + 1], np.float64(0.7))[0]


def _clenshaw_reference(coeffs, x):
    """The plain recurrence over every step of one coefficient vector, over
    all the points at once as one flat vector, as the kernel ran before
    points went in blocks."""
    x = np.asarray(x)
    points = x.reshape(-1)
    b1 = np.zeros(points.shape, dtype=np.result_type(x, 1.0))
    b2 = np.zeros_like(b1)
    for k in range(len(coeffs) - 1, -1, -1):
        b1, b2 = (
            coeffs[k] + math.sqrt(2.0 / (k + 1)) * points * b1 - math.sqrt((k + 1.0) / (k + 2.0)) * b2,
            b1,
        )
    return (hermite._PI_QUARTER * b1).reshape(x.shape)


@st.composite
def padded_vectors(draw):
    """Coefficient vectors padded above a drawn top degree with +0.0 or -0.0;
    a top of -1 leaves the vector all zero."""
    width = draw(st.integers(1, 45))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal(width)
    top = draw(st.integers(-1, width - 1))
    coeffs[top + 1 :] = draw(st.sampled_from([0.0, -0.0]))
    return coeffs


class TestKernelAgainstReference:
    """The in-place, blocked kernel must give the bits of the plain
    flat-vector recurrence at every finite point; a scalar point, real or
    complex, takes the bits of a one-point vector."""

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=padded_vectors(),
        complex_points=st.booleans(),
        size=st.sampled_from(["scalar", "empty", "one", "below", "block", "above", "some"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(coeffs=derivative_stack(random_expansion(3, 12), 24)[-1], complex_points=False, size="some", seed=0)
    def test_bits_match_the_plain_recurrence(self, coeffs, complex_points, size, seed):
        block = hermite._BLOCK
        rng = np.random.default_rng(seed)
        n = {
            "scalar": None,
            "empty": 0,
            "one": 1,
            "below": block - 1,
            "block": block,
            "above": block + 1,
            "some": int(rng.integers(2, 3 * block)),
        }[size]
        points = rng.uniform(-12.0, 12.0, size=n)
        if complex_points:
            points = points + 1j * rng.uniform(-6.0, 6.0, size=n)
        points = np.asarray(points)[()] if n is None else points
        got = _clenshaw_scaled(coeffs, points)
        want = _clenshaw_reference(coeffs, points)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        # bit for bit, signed zeros included
        assert got.tobytes() == want.tobytes()


def _scaled_basis_mp(width, x):
    """h_n(x) exp(x^2/2) for n < width from mpmath's Hermite polynomials."""
    x = mpmath.mpf(x)
    return [
        mpmath.hermite(n, x) / mpmath.sqrt(2**n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi))
        for n in range(width)
    ]


def _stack_subprocess_digest(threads):
    """sha256 of a derivative stack's values and ball sums, computed in a
    child process with OPENBLAS_NUM_THREADS set to threads, or unset."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join([os.path.dirname(os.path.dirname(hermite.__file__)), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from gsaudit.hermite import Ball, SpectralFunction, _stack_scaled, ball_norms_squared
from gsaudit.local_estimates import derivative_stack

stack = derivative_stack(SpectralFunction(np.random.default_rng(5).standard_normal(65)), 24)
x = np.random.default_rng(6).uniform(-28.0, 28.0, 3000)
sums = ball_norms_squared(stack, [Ball(-3.0, 2.5), Ball(0.4, 1.2), Ball(9.0, 4.0)], 0.5)
print(hashlib.sha256(_stack_scaled(stack, x).tobytes() + repr(sums).encode()).hexdigest())
"""


def _scaled_sum_mp(coeffs, z):
    """sum_n c_n h_n(z) exp(z^2/2) at a complex z, to 50 digits, by the
    forward recurrence of the scaled basis."""
    with mpmath.workdps(50):
        z = mpmath.mpc(z)
        prev, cur = mpmath.mpf(0), 1 / mpmath.root(mpmath.pi, 4)
        total = mpmath.mpf(0)
        for n, c in enumerate(coeffs):
            total += mpmath.mpf(float(c)) * cur
            prev, cur = cur, mpmath.sqrt(mpmath.mpf(2) / (n + 1)) * z * cur - mpmath.sqrt(mpmath.mpf(n) / (n + 1)) * prev
        return abs(total)


class TestMajorant:
    """hermite.majorant bounds the polynomial part on a disc: the exact sum,
    and its computed value, which the polydisc sup prunes with."""

    @pytest.mark.parametrize("degree", [0, 1, 7, 24, 40, hermite.MAX_DEGREE])
    def test_never_below_the_sum_or_its_evaluation(self, degree):
        f = random_expansion(degree + 1, degree)
        radii = np.array([0.0, 0.5, 2.0, 7.5, 20.0, 40.0])
        bounds = hermite.majorant(f.coeffs, radii)
        for r, bound in zip(radii, bounds):
            z = r * np.exp(1j * (2.0 * math.pi * np.arange(12) / 12 + 0.1))
            computed = np.abs(_clenshaw_scaled(f.coeffs, z))
            assert np.all(computed <= bound), (degree, r)
            assert all(_scaled_sum_mp(f.coeffs, point) <= bound for point in z), (degree, r)

    @pytest.mark.parametrize("degree", [0, 2, 24, hermite.MAX_DEGREE])
    def test_met_on_the_imaginary_axis(self, degree):
        # with c_2m = (-1)^m every term of the sum at z = iy is |c_n| B_n(y):
        # the bound is attained, and the computed value stays within the
        # rounding the pruning's margin covers
        coeffs = np.zeros(degree + 1)
        coeffs[::2] = (-1.0) ** np.arange(len(coeffs[::2]))
        y = np.array([0.0, 0.5, 3.0, 12.0, 40.0])
        bounds = hermite.majorant(coeffs, y)
        computed = np.abs(_clenshaw_scaled(coeffs, 1j * y))
        rounding = 10 * (degree + 2) * 2.0**-53
        assert np.all(np.abs(computed - bounds) <= rounding * bounds)

    def test_vectorized_over_radii(self):
        f = random_expansion(5, 30)
        radii = np.linspace(0.0, 40.0, 9)
        together = hermite.majorant(f.coeffs, radii)
        assert together.tolist() == [float(hermite.majorant(f.coeffs, r)) for r in radii]
        assert np.all(np.diff(together) > 0.0)


class TestStackKernel:
    """The shared-basis stack kernel: accurate to a few units in the last
    place of the sum of its terms' magnitudes, and every value bit for bit
    the same whatever else is evaluated with it and however many BLAS
    threads run."""

    @pytest.mark.parametrize("seed, degree", [(0, 12), (1, 40), (2, hermite.MAX_DEGREE)])
    def test_against_50_digit_sums(self, seed, degree):
        stack = derivative_stack(random_expansion(seed, degree), 24)
        rows, width = stack.shape
        radius = hermite.effective_support_radius(SpectralFunction(stack[-1]))
        x = np.concatenate([[-radius, 0.0, radius], np.random.default_rng(seed).uniform(-radius, radius, 9)])
        got = _stack_scaled(stack, x)
        with mpmath.workdps(50):
            for p, point in enumerate(x):
                basis = _scaled_basis_mp(width, point)
                for r in range(rows):
                    terms = [mpmath.mpf(float(c)) * b for c, b in zip(stack[r], basis)]
                    scale = float(sum(abs(t) for t in terms))
                    assert abs(got[r, p] - float(sum(terms))) <= width * 2.0**-52 * scale, (r, point)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        degree=st.integers(0, hermite.MAX_DEGREE),
        max_order=st.integers(1, 24),
        size=st.sampled_from(["one", "below", "block", "above", "some"]),
    )
    def test_bits_do_not_depend_on_the_batch(self, seed, degree, max_order, size):
        stack = derivative_stack(random_expansion(seed, degree), max_order)
        rng = np.random.default_rng(seed)
        block = hermite._STACK_BLOCK
        n = {"one": 1, "below": block - 1, "block": block, "above": block + 1}.get(size) or int(rng.integers(2, 3 * block))
        radius = hermite.effective_support_radius(SpectralFunction(stack[-1]))
        x = rng.uniform(-radius, radius, n)
        whole = _stack_scaled(stack, x)
        cut = int(rng.integers(0, n + 1))
        split = np.concatenate([_stack_scaled(stack, x[:cut]), _stack_scaled(stack, x[cut:])], axis=1)
        assert split.tobytes() == whole.tobytes()
        r = int(rng.integers(0, len(stack)))
        assert _stack_scaled(stack[r : r + 1], x).tobytes() == whole[r].tobytes()
        lo = int(rng.integers(0, len(stack)))
        assert _stack_scaled(stack[lo:], x).tobytes() == whole[lo:].tobytes()
        p = int(rng.integers(0, n))
        assert _stack_scaled(stack, x[p : p + 1]).tobytes() == whole[:, p].tobytes()
        assert _stack_scaled(stack, x[p]).tobytes() == whole[:, p].tobytes()

    def test_bits_do_not_depend_on_the_blas_threads(self, monkeypatch):
        # the contraction never reaches BLAS: einsum without an optimized
        # path (which would hand it to tensordot), and no dot or matmul
        def forbidden(*args, **kwargs):
            raise AssertionError("the stack kernel must not run a BLAS product")

        def plain_einsum(*operands, optimize=False, **kwargs):
            if optimize is not False:
                forbidden()
            return real_einsum(*operands, **kwargs)

        real_einsum = np.einsum
        monkeypatch.setattr(np, "einsum", plain_einsum)
        for name in ("tensordot", "dot", "matmul"):
            monkeypatch.setattr(np, name, forbidden)
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            exec(_DIGEST_SCRIPT, {})
        assert _stack_subprocess_digest(None) == here.getvalue().strip()
        assert _stack_subprocess_digest(1) == here.getvalue().strip()


def _basis_reference(max_degree, x):
    """_scaled_basis_matrix's forward recurrence, written out as one
    expression per degree: (sqrt(2/(n+1)) * x) * out[n] - sqrt(n/(n+1)) * out[n-1]."""
    out = np.empty((max_degree + 1,) + x.shape)
    out[0] = hermite._PI_QUARTER
    if max_degree >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, max_degree):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def _linspace_nodes(a, b, order, max_panel):
    """interval_nodes as it was built for one interval, from np.linspace."""
    panels = max(1, math.ceil((b - a) / max_panel))
    edges = np.linspace(a, b, panels + 1)
    x0, w0 = leggauss(order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x0[None, :]).ravel(), (half[:, None] * w0[None, :]).ravel()


def _one_interval_sums(stack, a, b, delta, order, max_panel, first=0):
    """The per-ball rule pass the batched kernel replaced, on one interval, by
    the kernel the program runs on a stack of that many rows."""
    x, w = _linspace_nodes(a, b, order, max_panel)
    scaled = _clenshaw_scaled(stack[0], x)[None] if len(stack) == 1 else _stack_scaled(stack, x)
    vals = scaled * np.exp(-0.5 * x**2)
    return [float(np.sum(w * (1.0 + x**2) ** (delta * (first + n)) * vals[n] ** 2)) for n in range(len(stack))]


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
    that interval alone, in every block layout. A block holds 1,024 points of
    a derivative stack and 16,384 of a one-row stack (the example)."""

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
        balls = [Ball(c, r) for c, r in [(-3.0, 0.4), (-2.6, 1.7), (0.1, 2.2), (9.0, 0.9)]]
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
        return float(np.sum(w * (1.0 + x**2) ** (delta * n) * _clenshaw_scaled(g.coeffs, x) ** 2))

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
        # check, so it cannot raise a refinement NumericalError
        def forbidden(*args, **kwargs):
            raise AssertionError("an integer weight must not run quadrature")

        monkeypatch.setattr(hermite, "_clenshaw_scaled", forbidden)
        monkeypatch.setattr(hermite, "_stack_scaled", forbidden)
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

    @pytest.mark.parametrize("n, beta, delta", [(1, 0, 0.3), (2, 1, 0.3), (7, 2, 0.5), (3, 0, 0.9)])
    def test_fractional_weight_is_the_one_row_pass(self, n, beta, delta):
        # g's one row with the weight power delta * n, by the one-row
        # recurrence on [-R, R]: bit for bit the fine value of that pass
        f = random_expansion(17, 20)
        g = f
        for _ in range(beta):
            g = derivative(g)
        cutoff = hermite.effective_support_radius(g)
        (fine,) = _one_interval_sums(g.coeffs[None], -cutoff, cutoff, delta, 48, 0.25, first=n)
        assert weighted_norm(f, n=n, beta=beta, weight_delta=delta) == math.sqrt(fine)

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
            basis_function(0).coeffs[None], [Ball(0.0, 1.0)], 1.0
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


def _monomial_rows(max_degree):
    """Row n: the monomial coefficients of h_n(x) exp(x^2/2), in mpmath."""
    rows = [[mpmath.mpf(0)] * (max_degree + 1) for _ in range(max_degree + 1)]
    rows[0][0] = mpmath.pi ** mpmath.mpf(-0.25)
    for n in range(max_degree):
        up, down = mpmath.sqrt(mpmath.mpf(2) / (n + 1)), mpmath.sqrt(mpmath.mpf(n) / (n + 1))
        for m in range(max_degree + 1):
            rows[n + 1][m] = (up * rows[n][m - 1] if m else 0) - (down * rows[n - 1][m] if n else 0)
    return rows


def _gaussian_moments(count, a, b):
    """int_a^b x^m exp(-x^2) dx for m < count, in mpmath: on 0 <= a < b it is
    (Gamma((m+1)/2, a^2) - Gamma((m+1)/2, b^2)) / 2, the upper incomplete
    Gamma run up by Gamma(s+1, y) = s Gamma(s, y) + y^s e^-y from
    Gamma(1/2, y) = sqrt(pi) erfc(sqrt(y)) and Gamma(1, y) = e^-y."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    if a < 0 < b:
        return [u + v for u, v in zip(_gaussian_moments(count, a, 0), _gaussian_moments(count, 0, b))]
    if b <= 0:
        return [(-1) ** m * v for m, v in enumerate(_gaussian_moments(count, -b, -a))]

    def upper(y):
        if y == mpmath.inf:
            return [mpmath.mpf(0)] * count
        out = [mpmath.sqrt(mpmath.pi) * mpmath.erfc(mpmath.sqrt(y)), mpmath.exp(-y)]
        for m in range(2, count):
            out.append((m - 1) / mpmath.mpf(2) * out[m - 2] + y ** (mpmath.mpf(m - 1) / 2) * mpmath.exp(-y))
        return out[:count]

    return [(u - v) / 2 for u, v in zip(upper(a * a), upper(b * b))]


def _gram_reference(max_degree, pieces):
    """sum over the pieces of int_a^b h_j h_k, from the monomial rows and the
    Gaussian moments at 100 digits: the cancellation costs at most 35 of
    them at degree 48, so the entries carry 50 or more."""
    with mpmath.workdps(100):
        rows = _monomial_rows(max_degree)
        moments = [sum(v) for v in zip(*(_gaussian_moments(2 * max_degree + 1, a, b) for a, b in pieces))]
        half = [[mpmath.fdot(row, moments[q : q + max_degree + 1]) for q in range(max_degree + 1)] for row in rows]
        return np.array([[float(mpmath.fdot(h, row)) for row in rows] for h in half])


def _tail_reference(coeffs, r):
    """int_{|x| > r} f^2 at 100 digits: the square of f's polynomial part
    against the moments of exp(-x^2) outside [-r, r], Gamma((m+1)/2, r^2)
    for even m and 0 for odd m."""
    with mpmath.workdps(100):
        rows = _monomial_rows(len(coeffs) - 1)
        poly = [mpmath.fsum(mpmath.mpf(float(c)) * row[m] for c, row in zip(coeffs, rows)) for m in range(len(coeffs))]
        moments = [2 * v for v in _gaussian_moments(2 * len(coeffs) - 1, r, mpmath.inf)]
        return mpmath.fsum(p * q * moments[i + j] for i, p in enumerate(poly) for j, q in enumerate(poly) if (i + j) % 2 == 0)


class TestIntervalGram:
    @pytest.mark.parametrize(
        "pieces",
        [
            [(2.0, 2.01)],
            [(-0.7, 1.3)],
            [(5.0, 7.5)],
            [(-7.5, -5.0)],
            [(-25.0, 25.0)],
            [(0.5, math.inf)],
            [(3.0, math.inf)],
            [(-math.inf, -3.0), (3.0, math.inf)],
            [(-3.0, -2.5), (-0.2, 0.3), (1.0, 4.0)],
        ],
        ids=str,
    )
    def test_entries_match_mpmath(self, pieces):
        got = hermite.interval_gram(48, pieces)
        want = _gram_reference(48, pieces)
        assert np.abs(got - want).max() <= 2e-15
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize(
        "pieces, full",
        [
            ([(1e300, math.inf)], False),
            ([(-math.inf, -1e300)], False),
            ([(-math.inf, -1e300), (50.0, 1e300)], False),
            ([(-math.inf, math.inf)], True),
            ([(-1e300, 1e300)], True),
            ([], False),
        ],
    )
    def test_far_and_infinite_ends_are_exact(self, pieces, full):
        # the clip at +-40 turns every far end into exact zeros: no overflow,
        # no NaN, and the whole line gives the identity bit for bit
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = hermite.interval_gram(48, pieces)
        assert np.array_equal(got, np.eye(49) if full else np.zeros((49, 49)))

    def test_pieces_add_up(self):
        pieces = [(-4.0, -1.0), (-1.0, 0.5), (0.5, 6.0)]
        total = sum(hermite.interval_gram(30, [piece]) for piece in pieces)
        assert np.abs(hermite.interval_gram(30, pieces) - total).max() <= 1e-15

    def test_outside_radius_is_an_upper_bound(self):
        # seeded (f, r) pairs, degrees 0-40 and r from 0.3 to past the
        # support: never below the 100-digit tail, and above it by at most
        # the rounding term the bound adds plus a relative 1e-12. That term
        # is 4 (N+2) 2^-53 |c|^T |G| |c|, which an expansion whose terms
        # cancel outside the radius makes the larger part: degree 40 at
        # r = 9.88 here, 203 times the tail. Below the smallest normal float
        # the products carry fewer bits, and the value is the tail to within
        # a few units of the smallest subnormal.
        rng = np.random.default_rng(31)
        normal, tight = 0, 0
        for _ in range(120):
            f = random_expansion(int(rng.integers(2**32)), int(rng.integers(0, 41)))
            r = float(rng.uniform(0.3, 32.0))
            got, want = norm_squared_outside_radius(f, r), _tail_reference(f.coeffs, r)
            gram = abs(hermite.interval_gram(f.max_degree, [(-math.inf, -r), (r, math.inf)]))
            slack = 4 * (f.max_degree + 2) * 2.0**-53 * abs(f.coeffs) @ gram @ abs(f.coeffs)
            if want >= np.finfo(float).tiny:
                normal += 1
                tight += got <= want * (1 + 1e-12)
                assert want <= got <= want * (1 + 1e-12) + slack, (f.max_degree, r)
            else:
                assert abs(got - float(want)) <= 1e-320, (f.max_degree, r)
        assert normal >= 100 and tight >= 0.9 * normal


class TestBasisMatrix:
    def test_bits_match_the_expression(self):
        # the stack kernel and interval_gram read these bits: any rewrite of
        # the recurrence must keep its order
        x = np.concatenate([np.linspace(-30.0, 30.0, 601), np.random.default_rng(3).uniform(-30.0, 30.0, 400)])
        for max_degree in range(hermite.MAX_DEGREE + 24 + 1):
            got = hermite._scaled_basis_matrix(max_degree, x)
            assert got.tobytes() == _basis_reference(max_degree, x).tobytes(), max_degree

    def test_orthonormality_under_quadrature(self):
        x, w = gauss_hermite(80)
        h = hermite._scaled_basis_matrix(40, x)
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
        # a derivative order is an integer: 1.5 is refused, not truncated to 1
        for beta in (1.5, math.inf):
            with pytest.raises(ValueError, match="beta must be a nonnegative integer"):
                weighted_norm(SpectralFunction([1.0, 2.0, 3.0]), beta=beta)
