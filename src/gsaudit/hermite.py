"""Orthonormal Hermite basis machinery: evaluation, ladder calculus, quadrature.

Expansions in the L2(R)-orthonormal Hermite functions h_n support exact
differentiation and coordinate multiplication through the ladder relations

    h_n'(x)  = sqrt(n/2) h_{n-1}(x) - sqrt((n+1)/2) h_{n+1}(x),
    x h_n(x) = sqrt(n/2) h_{n-1}(x) + sqrt((n+1)/2) h_{n+1}(x),

so a whole-line norm ||(1+x^2)^(k/2) g|| with an integer power k is an
exact sum of coefficient norms (weighted_norm). Every other weighted L2 norm
is computed by two composite Gauss-Legendre rules with an explicit
refinement-convergence check (ball_norms_squared). The Legendre rule of each
order is computed once per process, and one Clenshaw recurrence evaluates a
whole stack of coefficient vectors on shared nodes.

Every Legendre quadrature runs through one batched kernel, _rule_sums: it
takes a list of intervals, concatenates their composite-rule nodes,
evaluates the stack over all of them in cache-sized blocks and returns each
interval's sums. So ball_norms_squared runs each rule once over all of a
covering's balls, and norm_squared_on_intervals once over all of a sensor's
intervals. Clenshaw is elementwise and each sum is taken over its own
interval's nodes, so every value is bit for bit that of a pass over the
interval alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_hermite

__all__ = [
    "MAX_DEGREE",
    "Ball",
    "DimensionMismatchError",
    "NumericalError",
    "QuadratureConvergenceError",
    "SpectralFunction",
    "ball_norms_squared",
    "basis_function",
    "basis_matrix",
    "derivative",
    "effective_support_radius",
    "evaluate",
    "multiply_by_coordinate",
    "norm_squared_on_ball",
    "norm_squared_on_intervals",
    "norm_squared_outside_radius",
    "refined_rows",
    "weighted_norm",
]

MAX_DEGREE = 64  # validated truncation; ladder images may exceed it

# doubling the quadrature resolution must move a squared norm by less than
# this relative amount
_REFINEMENT_RTOL = 1e-8
_PI_QUARTER = math.pi ** -0.25
# array elements (rows x points) per block of a batched evaluation: small
# enough that a block's temporaries stay in cache
_BLOCK = 1 << 14


class DimensionMismatchError(ValueError):
    """Evaluation points are not scalars or a vector of points on the line."""


class NumericalError(RuntimeError):
    """A numerical routine did not converge; the CLI maps it to exit code 3."""


class QuadratureConvergenceError(NumericalError):
    """Doubling the quadrature resolution moved the result beyond tolerance."""


@dataclass(frozen=True)
class SpectralFunction:
    """Finite expansion sum_n c_n h_n on the line.

    Coefficients are frozen at construction and all operations return new
    instances, so a value never changes once built.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=float)
        if arr.ndim != 1:
            raise ValueError("coeffs must be a vector")
        if arr.size == 0 or not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be nonempty and finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def max_degree(self) -> int:
        return len(self.coeffs) - 1

    def norm_squared(self) -> float:
        """Squared L2(R) norm, exact by Parseval."""
        return float(np.sum(self.coeffs**2))

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())


def basis_function(degree: int) -> SpectralFunction:
    """Pure basis element h_n."""
    c = np.zeros(int(degree) + 1)
    c[-1] = 1.0
    return SpectralFunction(c)


@dataclass(frozen=True)
class Ball:
    """The interval [c - r, c + r]; center is the 1-tuple (c,)."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(self.center))
        if len(center) != 1:
            raise ValueError("ball center must be a single point on the line")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def volume(self) -> float:
        return 2.0 * self.radius

    def interval(self) -> tuple:
        return (self.center[0] - self.radius, self.center[0] + self.radius)

    def center_norm(self) -> float:
        return float(np.linalg.norm(self.center))


# ---------------------------------------------------------------------------
# evaluation


def _clenshaw_scaled(stack: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Row j is g_j(x) * exp(x^2/2) (the polynomial part) for the coefficient
    # rows g_j of stack: stable at large |x|, where h_n underflows. High-end
    # zero padding keeps the recurrence at exact zeros, so each row is
    # bit-identical to its evaluation as a one-row stack.
    x = np.asarray(x)
    coeffs = stack.reshape(stack.shape + (1,) * x.ndim)
    b1 = np.zeros((len(stack),) + x.shape, dtype=np.result_type(x, 1.0))
    b2 = np.zeros_like(b1)
    for k in range(stack.shape[1] - 1, -1, -1):
        b1, b2 = (
            coeffs[:, k] + math.sqrt(2.0 / (k + 1)) * x * b1 - math.sqrt((k + 1.0) / (k + 2.0)) * b2,
            b1,
        )
    return _PI_QUARTER * b1


def _scaled_basis_matrix(max_degree: int, x: np.ndarray) -> np.ndarray:
    # Rows: h_n(x) * exp(x^2/2) for n = 0..max_degree via forward recurrence.
    x = np.asarray(x)
    out = np.empty((max_degree + 1,) + x.shape, dtype=np.result_type(x, 1.0))
    out[0] = _PI_QUARTER
    if max_degree >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(1, max_degree):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * x * out[n] - math.sqrt(n / (n + 1.0)) * out[n - 1]
    return out


def basis_matrix(max_degree: int, x: np.ndarray) -> np.ndarray:
    """Matrix of h_n(x_j), shape (max_degree + 1, len(x))."""
    x = np.asarray(x, dtype=float)
    return _scaled_basis_matrix(max_degree, x) * np.exp(-0.5 * x**2)


def _poly_part(f: SpectralFunction, points: np.ndarray) -> np.ndarray:
    """f(points) * exp(x^2/2), vectorized over any array of real or complex
    points; at complex z this is the entire extension times exp(z^2/2)."""
    return _clenshaw_scaled(f.coeffs[None], points)[0]


def evaluate(f: SpectralFunction, x) -> np.ndarray:
    """Pointwise values of f at real points (scalar or vector)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim > 1:
        raise DimensionMismatchError("expansions take scalar or vector points")
    vals = _poly_part(f, pts) * np.exp(-0.5 * pts**2)
    return vals if vals.ndim else float(vals)


# ---------------------------------------------------------------------------
# ladder calculus


def _ladder(f: SpectralFunction, sign: float) -> SpectralFunction:
    c = f.coeffs
    n = np.arange(len(c), dtype=float)
    out = np.zeros(len(c) + 1)
    out[: len(c) - 1] += np.sqrt(n[1:] / 2.0) * c[1:]
    out[1:] += sign * np.sqrt((n + 1.0) / 2.0) * c
    return SpectralFunction(out)


def derivative(f: SpectralFunction) -> SpectralFunction:
    """Exact derivative (ladder identity)."""
    return _ladder(f, -1.0)


def multiply_by_coordinate(f: SpectralFunction) -> SpectralFunction:
    """Exact multiplication by the coordinate x."""
    return _ladder(f, +1.0)


# ---------------------------------------------------------------------------
# quadrature


def gauss_hermite(order: int) -> tuple:
    """Gauss-Hermite (nodes, weights) for the weight exp(-x^2) on R.

    The rule integrates polynomials up to degree 2 order - 1 exactly.
    The arrays are computed once per order and shared, so they are read-only.
    No program code calls it; it is kept under this name for
    perfbench/tracer.py's span.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _read_only_rule(roots_hermite, order)


@lru_cache(maxsize=None)
def _read_only_rule(rule, order: int) -> tuple:
    # a quadrature rule's (nodes, weights), computed once per order;
    # read-only, because every caller shares the cached arrays
    x0, w0 = rule(order)
    x0.setflags(write=False)
    w0.setflags(write=False)
    return x0, w0


def _interval_rules(intervals, order: int, max_panel: float) -> tuple:
    """Composite Gauss-Legendre nodes and weights on each (a, b) of intervals
    with panels of at most max_panel, concatenated, and the offsets `ends`:
    interval i has the nodes ends[i]:ends[i + 1].

    The edges are np.linspace's: edge j of an interval's p panels is
    j * ((b - a) / p) + a, and its last edge is b.
    """
    ab = np.array(intervals, dtype=float).reshape(-1, 2)
    a, b = ab[:, 0], ab[:, 1]
    panels = np.maximum(1, np.ceil((b - a) / max_panel)).astype(np.intp)
    owner = np.repeat(np.arange(len(ab)), panels)
    j = np.arange(len(owner)) - (np.cumsum(panels) - panels)[owner]
    step, start = ((b - a) / panels)[owner], a[owner]
    lo = j * step + start
    hi = (j + 1) * step + start
    last = j + 1 == panels[owner]
    hi[last] = b[owner][last]
    x0, w0 = _read_only_rule(leggauss, order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    ends = order * np.concatenate(([0], np.cumsum(panels)))
    return x, w, ends


def interval_nodes(a: float, b: float, order: int = 20, max_panel: float = 0.5):
    """Composite Gauss-Legendre nodes/weights on [a, b] with bounded panels.

    The one-interval form of _interval_rules, which the quadratures call
    directly; kept under this name for perfbench/tracer.py's span. The
    returned arrays are new on every call; the cached unit rule is not.
    """
    x, w, _ = _interval_rules([(a, b)], order, max_panel)
    return x, w


def effective_support_radius(f: SpectralFunction) -> float:
    """Radius beyond which every retained basis function is below 1e-45."""
    return math.sqrt(2.0 * f.max_degree + 1.0) + 15.0


def _check_refinement(coarse: float, fine: float, what: str, atol: float = 0.0):
    # Near-zero results compare in absolute terms; the norms at stake are O(1).
    tol = _REFINEMENT_RTOL * max(abs(fine), abs(coarse)) + atol + 1e-280
    if abs(fine - coarse) > tol:
        raise QuadratureConvergenceError(
            f"{what}: refinement moved the value from {coarse!r} to {fine!r}"
        )


def weighted_norm(
    f: SpectralFunction,
    n: int = 0,
    beta=0,
    weight_delta: float = 1.0,
) -> float:
    """Weighted derivative norm ||(1+|x|^2)^(delta*n/2) d^beta f||_{L2(R)}.

    With g = d^beta f and an integer k = delta*n the norm is exact:
    ||(1+x^2)^(k/2) g||^2 = sum_j C(k, j) ||x^j g||^2, each term by the
    ladder map multiply_by_coordinate and Parseval, so no expansion is
    evaluated. A fractional delta*n goes through ball_norms_squared on
    [-R, R], R = effective_support_radius(g), and its refinement check.
    Norms on a ball are ball_norms_squared's.

    Parameters
    ----------
    n, beta : weight power and derivative order.
    weight_delta : exponent delta in [0, 1] of the weight (1+|x|^2)^(delta/2).
    """
    if n < 0:
        raise ValueError("weight power n must be nonnegative")
    if not 0.0 <= weight_delta <= 1.0:
        raise ValueError("weight_delta must lie in [0, 1]")
    if not (np.isscalar(beta) and int(beta) >= 0):
        raise ValueError("beta must be a nonnegative derivative order")
    g = f
    for _ in range(int(beta)):
        g = derivative(g)
    if float(weight_delta * n).is_integer():
        k, total = int(weight_delta * n), 0.0
        for j in range(k + 1):
            total += math.comb(k, j) * g.norm_squared()
            g = multiply_by_coordinate(g)
        return math.sqrt(total)
    # row n of the stack carries the weight power delta*n
    stack = np.zeros((n + 1, g.max_degree + 1))
    stack[n] = g.coeffs
    line = Ball((0.0,), effective_support_radius(g))
    ((coarse, fine),) = ball_norms_squared(stack, [line], weight_delta)
    value = refined_rows(coarse, fine, [0.0] * (n + 1), "weighted_norm")[n]
    return math.sqrt(max(value, 0.0))


def _rule_sums(stack: np.ndarray, intervals, delta: float, order: int, max_panel: float) -> np.ndarray:
    """Squared norms ||(1+x^2)^(delta*n/2) g_n||^2 of the rows g_n of stack on
    each interval, by the order-point rule on panels of at most max_panel:
    shape (len(intervals), len(stack)).

    One Clenshaw pass over all the intervals' nodes, in blocks of about
    _BLOCK array elements; each sum is np.sum over its interval's own nodes,
    with the weight raised to the row's scalar power, so every value is bit
    for bit that of the interval evaluated alone.
    """
    x, w, ends = _interval_rules(intervals, order, max_panel)
    terms = np.empty((len(stack), len(x)))
    size = max(1, _BLOCK // len(stack))
    for lo in range(0, len(x), size):
        xb, wb = x[lo : lo + size], w[lo : lo + size]
        vals = _clenshaw_scaled(stack, xb) * np.exp(-0.5 * xb**2)
        weight = 1.0 + xb**2
        for n, row in enumerate(vals):
            terms[n, lo : lo + size] = wb * weight ** (delta * n) * row**2
    sums = np.empty((len(ends) - 1, len(stack)))
    for i in range(len(sums)):
        sums[i] = np.sum(terms[:, ends[i] : ends[i + 1]], axis=1)
    return sums


def ball_norms_squared(stack: np.ndarray, balls, delta: float) -> list:
    """Squared norms ||(1+x^2)^(delta*n/2) g_n||^2_{L2(ball)} of the rows g_n
    of the zero-padded coefficient stack, on each of the balls.

    Each rule runs once over all the balls: 24 points on panels of at most
    0.5 (coarse) and 48 points on panels of at most 0.25 (fine). Returns per
    ball the pair (coarse, fine) of lists of row values, unchecked:
    refined_rows checks a pair and returns its fine values.
    """
    intervals = [ball.interval() for ball in balls]
    coarse = _rule_sums(stack, intervals, delta, 24, 0.5).tolist()
    fine = _rule_sums(stack, intervals, delta, 48, 0.25).tolist()
    return list(zip(coarse, fine))


def refined_rows(coarse: list, fine: list, atol, what: str) -> list:
    """The fine values of a (coarse, fine) pair of ball_norms_squared, checked
    row by row in order: the first row that refinement moves by more than a
    relative 1e-8 plus atol[n] raises QuadratureConvergenceError, with `what`
    naming the quantity."""
    for c, v, floor in zip(coarse, fine, atol, strict=True):
        _check_refinement(c, v, what, atol=floor)
    return fine


def norm_squared_on_intervals(f: SpectralFunction, intervals) -> float:
    """Sum of integrals of f^2 over the given intervals.

    Each interval takes a 20-point rule on panels of width at most 0.5, all
    of them in one batched pass; the per-interval values are added in order.

    Intervals fully outside the effective support contribute exact zeros and
    are skipped; partial overlaps are clipped.
    """
    cutoff = effective_support_radius(f)
    clipped = [(max(float(a), -cutoff), min(float(b), cutoff)) for a, b in intervals]
    total = 0.0
    for (value,) in _rule_sums(f.coeffs[None], [(a, b) for a, b in clipped if b > a], 0.0, 20, 0.5):
        total += float(value)
    return total


def norm_squared_on_ball(f: SpectralFunction, ball: Ball, atol: float = 0.0) -> float:
    """Integral of f^2 over a ball, with refinement-convergence check."""
    ((coarse, fine),) = ball_norms_squared(f.coeffs[None], [ball], 0.0)
    (value,) = refined_rows(coarse, fine, [atol], "norm_squared_on_ball")
    return max(value, 0.0)


def norm_squared_outside_radius(f: SpectralFunction, r: float) -> float:
    """Mass of f^2 outside [-r, r]."""
    if r <= 0:
        raise ValueError("radius must be positive")
    cutoff = effective_support_radius(f)
    if r >= cutoff:
        return 0.0
    return norm_squared_on_intervals(f, [(-cutoff, -r), (r, cutoff)])
