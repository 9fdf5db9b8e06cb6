"""Orthonormal Hermite basis machinery: evaluation, ladder calculus, quadrature.

Expansions in the L2(R)-orthonormal Hermite functions h_n support exact
differentiation and coordinate multiplication through the ladder relations

    h_n'(x)  = sqrt(n/2) h_{n-1}(x) - sqrt((n+1)/2) h_{n+1}(x),
    x h_n(x) = sqrt(n/2) h_{n-1}(x) + sqrt((n+1)/2) h_{n+1}(x),

and weighted L2 norms are computed by quadrature with an explicit
refinement-convergence check: weighted_norm on the whole line by
Gauss-Hermite, ball_norms_squared on a ball by two composite Gauss-Legendre
rules. The Legendre rule of each order is computed once per process, and
one Clenshaw recurrence evaluates a whole stack of coefficient vectors on
shared nodes.
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
    "gauss_hermite",
    "interval_nodes",
    "multiply_by_coordinate",
    "norm_squared_on_ball",
    "norm_squared_on_intervals",
    "norm_squared_outside_radius",
    "weighted_norm",
]

MAX_DEGREE = 64  # validated truncation; ladder images may exceed it

# doubling the quadrature resolution must move a squared norm by less than
# this relative amount
_REFINEMENT_RTOL = 1e-8
_PI_QUARTER = math.pi ** -0.25


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


def interval_nodes(a: float, b: float, order: int = 20, max_panel: float = 0.5):
    """Composite Gauss-Legendre nodes/weights on [a, b] with bounded panels.

    The returned arrays are new on every call; the cached unit rule is not.
    """
    panels = max(1, math.ceil((b - a) / max_panel))
    edges = np.linspace(a, b, panels + 1)
    x0, w0 = _read_only_rule(leggauss, order)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
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


def _gh_weighted_sq(g: SpectralFunction, n: int, delta: float, order: int) -> float:
    x, w = gauss_hermite(order)
    p = _poly_part(g, x)
    return float(np.sum(w * (1.0 + x**2) ** (delta * n) * p**2))


def weighted_norm(
    f: SpectralFunction,
    n: int = 0,
    beta=0,
    weight_delta: float = 1.0,
) -> float:
    """Weighted derivative norm ||(1+|x|^2)^(delta*n/2) d^beta f||_{L2(R)}.

    Gauss-Hermite on the whole line, with a refinement-convergence check that
    always runs: doubling the rule's order must move the squared value by
    less than a relative 1e-8. Norms on a ball are ball_norms_squared's.

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
    order = g.max_degree + n + 9
    if not float(weight_delta * n).is_integer():
        # non-polynomial weight: branch points at +-i slow the rule down
        order = max(order, 100)
    coarse = _gh_weighted_sq(g, n, weight_delta, order)
    fine = _gh_weighted_sq(g, n, weight_delta, 2 * order)
    _check_refinement(coarse, fine, "weighted_norm")
    return math.sqrt(max(fine, 0.0))


def _ball_rule_sq(stack: np.ndarray, ball: Ball, delta: float, order: int, max_panel: float) -> list:
    a, b = ball.interval()
    x, w = interval_nodes(a, b, order=order, max_panel=max_panel)
    vals = _clenshaw_scaled(stack, x) * np.exp(-0.5 * x**2)
    return [float(np.sum(w * (1.0 + x**2) ** (delta * n) * vals[n] ** 2)) for n in range(len(stack))]


def ball_norms_squared(stack: np.ndarray, ball: Ball, delta: float, atol, what: str) -> list:
    """Squared norms ||(1+x^2)^(delta*n/2) g_n||^2_{L2(ball)} of the rows g_n.

    Each row of the zero-padded coefficient stack is integrated by 24 points
    on panels of at most 0.5 and by 48 points on panels of at most 0.25, and
    the fine values are returned. The rows are checked in order: the first
    that refinement moves by more than a relative 1e-8 plus atol[n] raises
    QuadratureConvergenceError, with `what` naming the quantity.
    """
    coarse = _ball_rule_sq(stack, ball, delta, 24, 0.5)
    fine = _ball_rule_sq(stack, ball, delta, 48, 0.25)
    for c, v, floor in zip(coarse, fine, atol, strict=True):
        _check_refinement(c, v, what, atol=floor)
    return fine


def norm_squared_on_intervals(f: SpectralFunction, intervals) -> float:
    """Sum of integrals of f^2 over the given intervals.

    Each interval takes interval_nodes' 20-point rule on panels of width at
    most 0.5.

    Intervals fully outside the effective support contribute exact zeros and
    are skipped; partial overlaps are clipped.
    """
    cutoff = effective_support_radius(f)
    total = 0.0
    for a, b in intervals:
        a, b = max(float(a), -cutoff), min(float(b), cutoff)
        if b <= a:
            continue
        x, w = interval_nodes(a, b)
        vals = _poly_part(f, x) * np.exp(-0.5 * x**2)
        total += float(np.sum(w * vals**2))
    return total


def norm_squared_on_ball(f: SpectralFunction, ball: Ball, atol: float = 0.0) -> float:
    """Integral of f^2 over a ball, with refinement-convergence check."""
    (fine,) = ball_norms_squared(f.coeffs[None], ball, 0.0, [atol], "norm_squared_on_ball")
    return max(fine, 0.0)


def norm_squared_outside_radius(f: SpectralFunction, r: float) -> float:
    """Mass of f^2 outside [-r, r]."""
    if r <= 0:
        raise ValueError("radius must be positive")
    cutoff = effective_support_radius(f)
    if r >= cutoff:
        return 0.0
    return norm_squared_on_intervals(f, [(-cutoff, -r), (r, cutoff)])
