"""Orthonormal Hermite basis machinery: evaluation, ladder calculus, quadrature.

Expansions in the L2(R)-orthonormal Hermite functions h_n support exact
differentiation and coordinate multiplication through the ladder relations

    h_n'(x)  = sqrt(n/2) h_{n-1}(x) - sqrt((n+1)/2) h_{n+1}(x),
    x h_n(x) = sqrt(n/2) h_{n-1}(x) + sqrt((n+1)/2) h_{n+1}(x),

so a whole-line norm ||(1+x^2)^(k/2) g|| with an integer power k is an
exact sum of coefficient norms (weighted_norm). The products h_j h_k
integrate over intervals in closed form, from the basis at the interval
ends (interval_gram): the sensor mass matrix and the mass outside a radius
(norm_squared_outside_radius), which a rounding term makes an upper bound.
Norms on balls and fractional-power norms take two composite Gauss-Legendre
rules and a refinement check (ball_norms_squared);
norm_squared_on_interval_lists takes one 20-point rule, unchecked. Each
Legendre rule is computed once per order.

Evaluation runs one recurrence per input shape. A single expansion, at
real or complex points, runs the Clenshaw recurrence over them as one flat
vector (_clenshaw_scaled), so each value's bits are its point's alone. A
stack of coefficient rows, such as a derivative stack, runs the forward
recurrence of the scaled basis h_n(x) exp(x^2/2) once per block of points
(_stack_scaled), as interval_gram does at the ends. Each stack value is
then one dot product of its row with its point's basis vector, a
contraction that runs no BLAS, so its bits do not depend on the batch, the
block, the other rows or the number of BLAS threads. majorant runs the
Clenshaw recurrence with positive signs: it bounds the polynomial part, and
its computed value, on a disc.

Every Legendre quadrature runs through one batched kernel, _rule_sums: it
takes a list of intervals, concatenates their composite-rule nodes,
evaluates the expansion or the stack over all of them in cache-sized blocks
and returns each interval's sums. So ball_norms_squared runs each rule once
over all of a covering's balls, and norm_squared_on_intervals once over all
of a sensor's intervals. Both recurrences are elementwise and each sum is
taken over its own interval's nodes, so every value is bit for bit that of
a pass over the interval alone.

The two special functions the audits need, log m! and log-sum-exp, are
computed here in numpy (log_factorial, logsumexp), next to the one copy of
the zero-safe log and the overflow-safe exp the other modules share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Real

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

__all__ = [
    "MAX_DEGREE",
    "Ball",
    "DimensionMismatchError",
    "NumericalError",
    "QuadratureConvergenceError",
    "SpectralFunction",
    "ball_norms_squared",
    "derivative",
    "effective_support_radius",
    "evaluate",
    "interval_gram",
    "log_factorial",
    "logsumexp",
    "majorant",
    "multiply_by_coordinate",
    "norm_squared_on_ball",
    "norm_squared_on_interval_lists",
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
# points per block of a Clenshaw evaluation and of a stack evaluation: small
# enough that a block's temporaries stay in cache
_BLOCK = 1 << 14
_STACK_BLOCK = 1 << 10
_CLIP = 40.0  # interval_gram clips its ends to +-_CLIP


class DimensionMismatchError(ValueError):
    """Evaluation points are not scalars or a vector of points on the line."""


class NumericalError(RuntimeError):
    """A numerical routine did not converge; the CLI maps it to exit code 3."""


class PipelineError(RuntimeError):
    """An audited step failed; .step names the violated premise or lemma."""

    def __init__(self, step: str, message: str):
        super().__init__(f"step '{step}': {message}")
        self.step = step
        self.message = message


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


@dataclass(frozen=True)
class Ball:
    """The interval [center - radius, center + radius]."""

    center: float
    radius: float

    def __post_init__(self):
        if not isinstance(self.center, Real):
            raise ValueError("ball center must be a single point on the line")
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "radius", float(self.radius))

    @property
    def volume(self) -> float:
        return 2.0 * self.radius

    def interval(self) -> tuple:
        return (self.center - self.radius, self.center + self.radius)


# ---------------------------------------------------------------------------
# evaluation


def _clenshaw_scaled(coeffs: np.ndarray, x) -> np.ndarray:
    # g(x) * exp(x^2/2) (the polynomial part) for the coefficient vector g,
    # at real or complex points of any shape: stable at large |x|, where h_n
    # underflows. The points go as one flat vector, in blocks of _BLOCK
    # points. numpy rounds a complex product of two flat vectors to the same
    # bits at every length, so each value is that of its point alone.
    x = np.asarray(x)
    points = x.reshape(-1)
    out = np.empty(points.shape, dtype=np.result_type(x, 1.0))
    for lo in range(0, len(points), _BLOCK):
        out[lo : lo + _BLOCK] = _clenshaw_block(coeffs, points[lo : lo + _BLOCK])
    np.multiply(_PI_QUARTER, out, out=out)
    return out.reshape(x.shape)


def _clenshaw_block(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    # b_k = c_k + sqrt(2/(k+1)) x b_{k+1} - sqrt((k+1)/(k+2)) b_{k+2}, in
    # place and in the operation order of the expression
    b1 = np.zeros(x.shape, dtype=np.result_type(x, 1.0))
    b2 = np.zeros_like(b1)
    t = np.empty_like(b1)
    cx = np.empty_like(b1)
    mul, add, sub, sqrt = np.multiply, np.add, np.subtract, math.sqrt
    for k in range(len(coeffs) - 1, -1, -1):
        mul(sqrt(2.0 / (k + 1)), x, cx)
        mul(cx, b1, t)
        add(coeffs[k], t, t)
        mul(sqrt((k + 1.0) / (k + 2.0)), b2, b2)
        sub(t, b2, b2)
        b1, b2 = b2, b1
    return b1


def _stack_scaled(stack: np.ndarray, x) -> np.ndarray:
    # Row j is g_j(x) * exp(x^2/2) for the coefficient rows g_j of stack, at
    # real points: the scaled basis is built once per block of _STACK_BLOCK
    # points, and each value is the dot product of its row with its point's
    # basis vector. The einsum runs numpy's own contraction loop, no BLAS
    # gemm: with both operands contiguous along the summed axis each value
    # is one dot product of the row's width, so its bits depend on nothing
    # else (np.matmul's change with the batch layout and the BLAS threads).
    points = np.ravel(x)
    out = np.empty((len(stack), len(points)))
    for lo in range(0, len(points), _STACK_BLOCK):
        basis = _scaled_basis_matrix(stack.shape[1] - 1, points[lo : lo + _STACK_BLOCK])
        out[:, lo : lo + _STACK_BLOCK] = np.einsum("rw,pw->rp", stack, np.ascontiguousarray(basis.T))
    return out.reshape((len(stack),) + np.shape(x))


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


def majorant(coeffs: np.ndarray, r) -> np.ndarray:
    """pi^(-1/4) sum_n |c_n| B_n(r), vectorized over radii r >= 0: a bound on
    the polynomial part |sum_n c_n h_n(z) exp(z^2/2)| on |z| <= r.

    It runs the Clenshaw recurrence of _clenshaw_block on |c| with every sign
    positive, B_k = |c_k| + sqrt(2/(k+1)) r B_{k+1} + sqrt((k+1)/(k+2)) B_{k+2},
    so that |b_k| <= B_k for each intermediate at z, by induction from the
    top. Each float step rounds terms bounded by their positive counterparts,
    so every computed intermediate, and |_clenshaw_scaled(c, z)| at any z of
    the disc, stays within (1 + theta) of the majorant, theta about
    6 (n+2) 2^-53 for degree n; the majorant itself is within 4 (n+2) 2^-53
    of its exact sum. Where it is finite, no computed value there is NaN.
    """
    b1 = b2 = np.zeros_like(np.asarray(r, dtype=float))
    for k in range(len(coeffs) - 1, -1, -1):
        b1, b2 = abs(coeffs[k]) + math.sqrt(2.0 / (k + 1)) * r * b1 + math.sqrt((k + 1.0) / (k + 2.0)) * b2, b1
    return _PI_QUARTER * b1


def evaluate(f: SpectralFunction, x) -> np.ndarray:
    """Pointwise values of f at real points (scalar or vector)."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim > 1:
        raise DimensionMismatchError("expansions take scalar or vector points")
    vals = _clenshaw_scaled(f.coeffs, pts) * np.exp(-0.5 * pts**2)
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
# special functions

# log m! is read from this table of math.lgamma values below its length, and
# from the Stirling sum at and above it
_LOG_FACTORIAL_TABLE = np.array([math.lgamma(m + 1.0) for m in range(256)])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def log_factorial(m):
    """log m! for an integer m >= 0 or an integer array of them.

    A scalar gives math.lgamma(m + 1). An array reads the table below 256
    and above it takes the Stirling sum in x = m + 1,

        (x - 1/2) log x - x + log(2 pi)/2 + 1/(12 x) - 1/(360 x^3) + 1/(1260 x^5),

    whose truncation error lies in (-1/(1680 x^7), 0), below 1e-19 for
    x >= 257. What is left is rounding: every value is within
    1e-15 max(log m!, 1) of log m!. The array case works in place on a few
    float arrays of m's size.
    """
    if np.ndim(m) == 0:
        return math.lgamma(m + 1)
    m = np.asarray(m)
    x = np.add(m, 1.0)
    out = np.log(x)
    out *= x - 0.5
    out -= x
    out += _HALF_LOG_2PI
    inv = np.reciprocal(x, out=x)
    inv_sq = inv * inv
    series = inv_sq * (1.0 / 1260.0)
    series -= 1.0 / 360.0
    series *= inv_sq
    series += 1.0 / 12.0
    series *= inv
    out += series
    small = m < len(_LOG_FACTORIAL_TABLE)
    if small.any():
        out[small] = _LOG_FACTORIAL_TABLE[m[small]]
    return out


def logsumexp(a) -> float:
    """log sum_i exp(a_i) of a nonempty array, shifted by its maximum.

    As in Blanchard, Higham and Higham, "Accurately computing the log-sum-exp
    and softmax functions" (IMA J. Numer. Anal. 2021), the maximum's own
    term is left out of the sum s of the shifted exponentials and the result
    is max + log1p(s). All -inf gives -inf; a +inf or a NaN is returned as
    it is.
    """
    a = np.asarray(a, dtype=float).ravel()
    at = int(np.argmax(a))
    top = float(a[at])
    if not math.isfinite(top):
        return top
    shifted = np.subtract(a, top)
    np.exp(shifted, out=shifted)
    shifted[at] = 0.0
    return math.log1p(float(np.sum(shifted))) + top


_LOG2 = math.log(2.0)


def _log(x: float) -> float:
    """log x, -inf for x <= 0, and NaN for NaN, so that a step with a NaN
    side fails."""
    return math.log(x) if x > 0 else -math.inf if x <= 0 else math.nan


def _exp(arg: float) -> float:
    """exp(arg), and inf where it would overflow."""
    return math.exp(arg) if arg < 709.0 else math.inf


# ---------------------------------------------------------------------------
# quadrature


def gauss_hermite(order: int) -> tuple:
    """Gauss-Hermite (nodes, weights) for the weight exp(-x^2) on R, from
    numpy's hermgauss.

    The rule integrates polynomials up to degree 2 order - 1 exactly.
    The arrays are computed once per order and shared, so they are read-only.
    No program code calls it; it is kept under this name for
    perfbench/tracer.py's span.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    return _read_only_rule(hermgauss, order)


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
    # A NaN on either side fails: every comparison with it is False.
    tol = _REFINEMENT_RTOL * max(abs(fine), abs(coarse)) + atol + 1e-280
    if not abs(fine - coarse) <= tol:
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
    # g's one row carries the weight power delta*n
    line = Ball(0.0, effective_support_radius(g))
    ((coarse, fine),) = ball_norms_squared(g.coeffs[None], [line], weight_delta, first=n)
    (value,) = refined_rows(coarse, fine, [0.0], "weighted_norm")
    return math.sqrt(max(value, 0.0))


def _rule_sums(
    stack: np.ndarray, intervals, delta: float, order: int, max_panel: float, first: int = 0
) -> np.ndarray:
    """Squared norms ||(1+x^2)^(p_n/2) g_n||^2 of the rows g_n of stack on
    each interval, row n with the weight power p_n = delta * (first + n), by
    the order-point rule on panels of at most max_panel: shape
    (len(intervals), len(stack)).

    One pass over all the intervals' nodes: Clenshaw in blocks of _BLOCK
    points for a one-row stack, the shared basis (_stack_scaled) in blocks
    of _STACK_BLOCK points for more rows. Each sum is np.sum over its
    interval's own nodes, with the weight raised to the row's scalar power,
    so every value is bit for bit that of the interval evaluated alone.
    """
    x, w, ends = _interval_rules(intervals, order, max_panel)
    terms = np.empty((len(stack), len(x)))
    size = _BLOCK if len(stack) == 1 else _STACK_BLOCK
    for lo in range(0, len(x), size):
        xb, wb = x[lo : lo + size], w[lo : lo + size]
        scaled = _clenshaw_scaled(stack[0], xb)[None] if len(stack) == 1 else _stack_scaled(stack, xb)
        vals = scaled * np.exp(-0.5 * xb**2)
        weight = 1.0 + xb**2
        for n, row in enumerate(vals):
            terms[n, lo : lo + size] = wb * weight ** (delta * (first + n)) * row**2
    sums = np.empty((len(ends) - 1, len(stack)))
    for i in range(len(sums)):
        sums[i] = np.sum(terms[:, ends[i] : ends[i + 1]], axis=1)
    return sums


def ball_norms_squared(stack: np.ndarray, balls, delta: float, first: int = 0) -> list:
    """Squared norms ||(1+x^2)^(p_n/2) g_n||^2_{L2(ball)} of the rows g_n of
    the zero-padded coefficient stack, p_n = delta * (first + n), on each of
    the balls.

    Each rule runs once over all the balls: 24 points on panels of at most
    0.5 (coarse) and 48 points on panels of at most 0.25 (fine). Returns per
    ball the pair (coarse, fine) of lists of row values, unchecked:
    refined_rows checks a pair and returns its fine values.
    """
    intervals = [ball.interval() for ball in balls]
    coarse = _rule_sums(stack, intervals, delta, 24, 0.5, first).tolist()
    fine = _rule_sums(stack, intervals, delta, 48, 0.25, first).tolist()
    return list(zip(coarse, fine))


def refined_rows(coarse: list, fine: list, atol, what: str) -> list:
    """The fine values of a (coarse, fine) pair of ball_norms_squared, checked
    row by row in order: the first row that refinement moves by more than a
    relative 1e-8 plus atol[n], or that is NaN on either rule, raises
    QuadratureConvergenceError, with `what` naming the quantity."""
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
    return norm_squared_on_interval_lists(f, [intervals])[0]


def norm_squared_on_interval_lists(f: SpectralFunction, lists) -> list:
    """norm_squared_on_intervals of each list of intervals in one batched pass;
    each total is bit for bit that of its own call."""
    cutoff = effective_support_radius(f)
    kept = [[(max(float(a), -cutoff), min(float(b), cutoff)) for a, b in pieces] for pieces in lists]
    kept = [[(a, b) for a, b in pieces if b > a] for pieces in kept]
    sums = _rule_sums(f.coeffs[None], [iv for pieces in kept for iv in pieces], 0.0, 20, 0.5)
    values, totals = iter(sums[:, 0].tolist()), []
    for pieces in kept:
        totals.append(0.0)
        for _ in pieces:
            totals[-1] += next(values)
    return totals


def norm_squared_on_ball(f: SpectralFunction, ball: Ball, atol: float = 0.0) -> float:
    """Integral of f^2 over a ball, with refinement-convergence check."""
    ((coarse, fine),) = ball_norms_squared(f.coeffs[None], [ball], 0.0)
    (value,) = refined_rows(coarse, fine, [atol], "norm_squared_on_ball")
    return max(value, 0.0)


def interval_gram(max_degree: int, pieces) -> np.ndarray:
    """G[j, k] = sum over the pieces (a, b) of int_a^b h_j h_k, for
    j, k <= max_degree, in closed form from the basis at the ends.

    From h_n'' = (x^2 - 2n - 1) h_n, the Wronskian gives the off-diagonal
    entries [h_j' h_k - h_j h_k']_a^b / (2 (k - j)), and with h = h_(n-1)
    the diagonal runs n I_n = n I_(n-1) + [h h' - x h^2]_a^b / 2 up from
    I_0 = (erf b - erf a) / 2, taken by erfc on each side of 0. Both take
    h_n' = g_n - x h_n with g_n = sqrt(2n) h_(n-1), in which the x h terms
    of the Wronskian cancel exactly; the Gaussian factor takes x^2 split
    exactly into two floats. The ends are clipped to +-40, where every h_n
    (n <= 90) and erfc evaluate to 0.0, so infinite and far ends give exact
    zeros. Each sum over the ends is np.sum's pairwise one, no BLAS call,
    as a running sum over the 640 ends of a decaying sensor loses 5e-14.
    G is exactly symmetric.
    """
    ab = np.array([(a, b) for a, b in pieces if b > -_CLIP and a < _CLIP], dtype=float).reshape(-1, 2)
    ab = np.clip(ab, -_CLIP, _CLIP)
    x, sign = ab.ravel(), np.tile([-1.0, 1.0], len(ab))
    # x^2 = sq + err exactly, by Dekker's split of x into two 26-bit halves
    sq, hi = x * x, x * 134217729.0
    hi -= hi - x
    err = hi * hi - sq + 2.0 * hi * (x - hi) + (x - hi) ** 2
    h = _scaled_basis_matrix(max_degree, x) * (np.exp(-0.5 * sq) * (1.0 - 0.5 * err))
    n = np.arange(max_degree + 1)
    g = np.sqrt(2.0 * n)[:, None] * h[n - 1]
    wronskian = np.array([np.sum(row * h, axis=1) for row in g * sign])
    gram = (wronskian - wronskian.T) / (2.0 * (n - n[:, None]) + np.eye(len(n)))
    steps = np.sum(h * sign * (g - 2.0 * x * h), axis=1)
    # erf x = s (1 - erfc |x|) with s the sign of x: the 1s add up exactly
    s = np.where(x < 0, -1.0, 1.0) * sign
    i0 = np.sum(s) - np.sum(s * np.array([math.erfc(v) for v in np.abs(x).tolist()]))
    np.fill_diagonal(gram, np.cumsum(np.concatenate(([i0 / 2.0], steps[:-1] / (2.0 * n[1:])))))
    return gram


def norm_squared_outside_radius(f: SpectralFunction, r: float) -> float:
    """Mass of f^2 outside [-r, r], rounded up: c^T G c over the half-lines
    by interval_gram, plus 4 (N+2) 2^-53 |c|^T |G| |c| for degree N. Below
    the smallest normal float it is the mass to a few subnormal units."""
    if r <= 0:
        raise ValueError("radius must be positive")
    c = f.coeffs
    gram = interval_gram(f.max_degree, [(-math.inf, -r), (r, math.inf)])
    slack = 4 * (f.max_degree + 2) * 2.0**-53 * np.einsum("j,jk,k", abs(c), abs(gram), abs(c))
    return float(np.einsum("j,jk,k", c, gram, c) + slack)
