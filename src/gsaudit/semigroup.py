"""Model smoothing semigroups and Gelfand-Shilov bound certificates.

The harmonic flow acts diagonally on Hermite coefficients with eigenvalues
n + 1/2 (the generator is (-Laplace + |x|^2)/2, so k = m = 1 below is the
same operator). The anharmonic family uses the Galerkin matrix of

    ((-d^2/dx^2)^m + x^(2k)) / 2

assembled exactly in the ladder algebra and raised to a fractional power
theta by symmetric eigendecomposition. Smoothing certificates record the
quantitative estimate

    ||(1+|x|^2)^(n/2) d^b T(t) g|| <= C^(1+n+b) t^(-r1-r2(n+b)) (n!)^nu (b!)^mu ||g||

and fixed-function bounds the D1 D2^(n+b) (n!)^nu (b!)^mu
form, fitted by log-linear minimax on a derivative grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .hermite import (
    MAX_DEGREE,
    NumericalError,
    PipelineError,
    SpectralFunction,
    _log,
    log_factorial,
    norm_squared_outside_radius,
    weighted_norm,
)

__all__ = [
    "SMOOTHING_SLACK",
    "SMOOTHING_T0",
    "GSBound",
    "SmoothingCertificate",
    "SmoothingValidationReport",
    "TailMassReport",
    "delta_weight_transfer",
    "fit_gs_bound",
    "fit_smoothing_certificate",
    "harmonic_flow",
    "shubin_exponents",
    "shubin_galerkin_flow",
    "shubin_operator_matrix",
    "tail_mass_check",
    "tail_radius",
    "validate_smoothing",
]

# fitted smoothing certificates hold for t < SMOOTHING_T0
SMOOTHING_T0 = 0.5
SMOOTHING_SLACK = 1e-9  # a measured norm passes within 1 + this times its bound


@dataclass(frozen=True)
class SmoothingCertificate:
    """Constants of a Gelfand-Shilov smoothing estimate for a semigroup,
    valid for t < t0. A fitted certificate records the t-grid it was fitted
    on."""

    C: float
    t0: float
    nu: float
    mu: float
    r1: float
    r2: float
    fitted_t_grid: tuple = ()

    def __post_init__(self):
        if not self.C >= 1.0:
            raise ValueError("C must satisfy C >= 1")
        if not 0.0 < self.t0 < 1.0:
            raise ValueError("t0 must lie in (0, 1)")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        if self.r1 < 0 or not self.r2 > 0:
            raise ValueError("require r1 >= 0 and r2 > 0")

    def log_bound(self, n: int, b: int, t: float) -> float:
        q = n + b
        return (
            (1 + n + q) * math.log(self.C)
            - (self.r1 + self.r2 * q) * math.log(t)
            + self.nu * log_factorial(n)
            + self.mu * log_factorial(b)
        )


@dataclass(frozen=True)
class GSBound:
    """Fixed-function derivative bound D1 D2^(n+b) (n!)^nu (b!)^mu."""

    D1: float
    D2: float
    nu: float
    mu: float

    def __post_init__(self):
        if not self.D1 > 0:
            raise ValueError("D1 must be positive")
        if not self.D2 >= 1.0:
            raise ValueError("D2 must satisfy D2 >= 1")
        if self.nu < 0 or self.mu < 0:
            raise ValueError("exponents must be nonnegative")

    @property
    def s(self) -> float:
        """Regularity index nu + mu (below one after a delta transfer)."""
        return self.nu + self.mu

    def log_value(self, n: int, b: int) -> float:
        q = n + b
        return (
            math.log(self.D1)
            + q * math.log(self.D2)
            + self.nu * log_factorial(n)
            + self.mu * log_factorial(b)
        )


# ---------------------------------------------------------------------------
# flows


def harmonic_flow(g: SpectralFunction, t: float) -> SpectralFunction:
    """Diagonal heat flow of the harmonic oscillator: c_n -> e^(-(n+1/2)t) c_n."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    lam = np.arange(len(g.coeffs)) + 0.5
    return SpectralFunction(g.coeffs * np.exp(-lam * t))


def _ladder_matrices(size: int) -> tuple:
    # Position and differentiation matrices on span(h_0 .. h_{size-1}).
    n = np.arange(1, size)
    up = np.sqrt(n / 2.0)
    x_mat = np.diag(up, 1) + np.diag(up, -1)
    d_mat = np.diag(up, 1) - np.diag(up, -1)
    return x_mat, d_mat


def shubin_operator_matrix(max_degree: int, k: int, m: int) -> np.ndarray:
    """Exact Galerkin matrix of ((-d^2/dx^2)^m + x^(2k))/2 up to max_degree.

    Assembled in a ladder basis enlarged by 2*max(k, m) so every retained
    entry equals the exact operator matrix element.
    """
    if k < 1 or m < 1:
        raise ValueError("Shubin indices must satisfy k, m >= 1")
    pad = 2 * max(k, m)
    size = max_degree + 1 + pad
    x_mat, d_mat = _ladder_matrices(size)
    a_full = ((-1) ** m) * np.linalg.matrix_power(d_mat, 2 * m)
    a_full = 0.5 * (a_full + np.linalg.matrix_power(x_mat, 2 * k))
    block = a_full[: max_degree + 1, : max_degree + 1]
    return 0.5 * (block + block.T)


def shubin_galerkin_flow(
    g: SpectralFunction,
    t: float,
    k: int,
    m: int,
    theta: float = 1.0,
    n_trunc: int = MAX_DEGREE,
) -> SpectralFunction:
    """Flow e^(-t A^theta) for the Shubin operator A, via eigendecomposition.

    theta must exceed 1/(2m) for the flow to smooth into the
    Gelfand-Shilov scale; smaller values are rejected. The flow is computed
    in the degree-n_trunc Galerkin space and repeated at half the working
    truncation; a relative L2 change above 1e-4 between the two raises
    NumericalError. Inputs with mass above degree n_trunc // 2 are projected
    in the halved run, so for such inputs the check is conservative.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not 1 <= n_trunc <= MAX_DEGREE:
        raise ValueError(f"working truncation must lie in [1, {MAX_DEGREE}]")
    if g.max_degree > n_trunc:
        raise ValueError("input degree exceeds the working truncation")
    if not theta > 1.0 / (2 * m):
        raise ValueError("theta must exceed 1/(2m)")

    def flow_at(degree: int) -> np.ndarray:
        a_mat = shubin_operator_matrix(degree, k, m)
        lam, vec = np.linalg.eigh(a_mat)
        coeff = np.zeros(degree + 1)
        upto = min(degree + 1, len(g.coeffs))
        coeff[:upto] = g.coeffs[:upto]
        return vec @ (np.exp(-t * lam**theta) * (vec.T @ coeff))

    out_full = flow_at(n_trunc)
    out_half = flow_at(max(n_trunc // 2, 1))
    pad_half = np.zeros(n_trunc + 1)
    pad_half[: len(out_half)] = out_half
    denom = max(g.norm(), 1e-300)
    change = float(np.linalg.norm(out_full - pad_half) / denom)
    if change > 1e-4:
        raise NumericalError(f"Galerkin flow truncation drift {change:.3e} at t={t}")
    return SpectralFunction(out_full)


def shubin_exponents(k: int, m: int, theta) -> tuple:
    """Gelfand-Shilov exponents (nu, mu) of the Shubin-theta flow, exact.

    nu = max(1/(2 k theta), m/(k+m)), mu = max(1/(2 m theta), k/(k+m)),
    returned as Fractions when theta is rational.
    """
    if k < 1 or m < 1:
        raise ValueError("Shubin indices must satisfy k, m >= 1")
    th = Fraction(theta)
    if not th > Fraction(1, 2 * m):
        raise ValueError("theta must exceed 1/(2m)")
    nu = max(Fraction(1, 1) / (2 * k * th), Fraction(m, k + m))
    mu = max(Fraction(1, 1) / (2 * m * th), Fraction(k, k + m))
    return nu, mu


# ---------------------------------------------------------------------------
# bound fitting and validation


# the (n, b) grid, n and b up to 8, that bounds and certificates are fitted
# and validated on
_SMOOTHING_GRID = tuple((n, b) for n in range(9) for b in range(9))


def _norm_samples(flow, g_ensemble, t_grid, grid_cap: int):
    """(g index, t, n, b, W, log ||g||) for every g of the ensemble, every t
    and every grid (n, b) with n + b <= grid_cap, in that nesting order, where
    W = ||(1+|x|^2)^(n/2) d^b flow(g, t)||."""
    for gi, g in enumerate(g_ensemble):
        log_g = math.log(g.norm())
        for t in t_grid:
            f = flow(g, t)
            for n, b in _SMOOTHING_GRID:
                if n + b <= grid_cap:
                    yield gi, t, n, b, weighted_norm(f, n=n, beta=b, weight_delta=1.0), log_g


def fit_gs_bound(f: SpectralFunction, nu: float, mu: float) -> GSBound:
    """Least (D1, D2) with W(n,b) <= D1 D2^(n+b) (n!)^nu (b!)^mu for n, b <= 8.

    W(n,b) = ||(1+|x|^2)^(n/2) d^b f||. The fit is anchored at the (0,0)
    constraint (D1 = ||f||) and then takes the least admissible D2 >= 1, so
    every slack on the grid is nonnegative by construction.
    """
    d1 = weighted_norm(f, n=0, beta=0, weight_delta=1.0)
    if d1 <= 0:
        raise ValueError("cannot fit a derivative bound for the zero function")
    log_d2 = 0.0
    for n, b in _SMOOTHING_GRID[1:]:  # every (n, b) but (0, 0)
        w = weighted_norm(f, n=n, beta=b, weight_delta=1.0)
        y = _log(w) - nu * log_factorial(n) - mu * log_factorial(b)
        log_d2 = max(log_d2, (y - math.log(d1)) / (n + b))
    return GSBound(D1=d1, D2=max(1.0, math.exp(log_d2)), nu=nu, mu=mu)


# pivots after which the certificate fit gives up; the committed fit takes a
# handful
_MAX_PIVOTS = 100


def _vertex_simplex(cost: np.ndarray, a: np.ndarray, b: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Minimize cost @ x subject to a @ x >= b and x >= lower, for cost > 0
    and a[:, 0] > 0: an active-set simplex over the vertices.

    The constraints are the rows of a, then the bounds. The walk starts with
    every component but the first at its bound, the first tight at its
    binding constraint. At each vertex the multipliers lam solve
    active^T lam = cost. If none is negative the vertex is optimal;
    otherwise the constraint with a negative multiplier and the smallest
    index leaves, and the first constraint that blocks the edge along which
    the others stay tight (the smallest index among ties) enters. That is
    Bland's rule, which cannot cycle (Bland, "New finite pivoting rules for
    the simplex method", Math. Oper. Res. 1977). A component whose bound is
    active is set exactly to the bound. cost > 0 and x >= lower bound the
    LP below, so the walk ends at an optimum; more than _MAX_PIVOTS pivots
    raise NumericalError.
    """
    n, rows = len(cost), len(a)
    g = np.vstack([a, np.eye(n)])
    h = np.concatenate([b, lower])
    scale = np.abs(g).sum(axis=1)
    x = np.array(lower, dtype=float)
    lift = np.append((b - a[:, 1:] @ x[1:]) / a[:, 0], lower[0])
    first = int(np.argmax(lift))
    x[0] = lift[first]
    active = [first, *range(rows + 1, rows + n)]
    tol = 1e-12 * float(np.max(cost))
    for _ in range(_MAX_PIVOTS):
        lam = np.linalg.solve(g[active].T, cost)
        negative = [j for j in range(n) if lam[j] < -tol]
        if not negative:
            return x
        leave = min(negative, key=lambda j: active[j])
        d = np.linalg.solve(g[active], np.eye(n)[leave])
        rate = g @ d
        rate[active] = 0.0
        blocking = np.flatnonzero(rate < -1e-12 * scale * np.max(np.abs(d)))
        steps = np.maximum(g[blocking] @ x - h[blocking], 0.0) / -rate[blocking]
        active[leave] = int(blocking[np.argmin(steps)])
        x = x + float(np.min(steps)) * d
        bounds = [k - rows for k in active if k >= rows]
        x[bounds] = lower[bounds]
    raise NumericalError(f"certificate fit LP failed: no optimum after {_MAX_PIVOTS} pivots")


def fit_smoothing_certificate(
    flow,
    g_ensemble,
    t_grid,
    nu: float,
    mu: float,
    grid_cap: int = 8,
) -> SmoothingCertificate:
    """Fit (C, r1, r2) so the smoothing estimate holds on the sampled data.

    Linear program in (log C, r1, r2), solved by _vertex_simplex: every
    sampled weighted norm must sit under the certificate surface, with
    log C, r1 >= 0 and r2 >= 1e-9; the objective minimizes the total slack,
    so the fit is tight at several grid points. The grid takes n, b <= 8,
    and grid_cap restricts it to n + b <= grid_cap. The fitted C is then
    inflated by a safety factor of 1.05: the minimal envelope touches the
    data at the grid times, and the measured norms are concave in log t
    between them, so an exact fit can dip below off-grid data. The inflation
    scales as 1.05^(1+n+b), which matches how the dip grows with the
    derivative order. The certificate holds for t < t0 = SMOOTHING_T0. A
    slack below -1e-9 raises PipelineError at step certificate-fit.
    """
    if not all(0 < t < 1 for t in t_grid):
        raise ValueError("fitting times must lie in (0, 1)")
    rows, rhs = [], []
    for _, t, n, b, w, log_g in _norm_samples(flow, g_ensemble, t_grid, grid_cap):
        if w > 0:
            q = n + b
            rows.append((1.0 + n + q, -math.log(t), -q * math.log(t)))
            rhs.append(math.log(w) - nu * log_factorial(n) - mu * log_factorial(b) - log_g)
    if not rows:
        raise ValueError("no data points to fit")
    rows = np.asarray(rows)
    log_c, r1, r2 = _vertex_simplex(
        np.sum(rows, axis=0), rows, np.asarray(rhs), np.array([0.0, 0.0, 1e-9])
    )
    log_c += math.log(1.05)
    fitted = np.array([log_c, r1, r2])
    if np.min(rows @ fitted - np.asarray(rhs)) < -1e-9:
        raise PipelineError("certificate-fit", "a sampled norm lies above the fitted surface")
    return SmoothingCertificate(
        C=max(1.0, math.exp(log_c)),
        t0=SMOOTHING_T0,
        nu=nu,
        mu=mu,
        r1=float(r1),
        r2=float(max(r2, 1e-9)),
        fitted_t_grid=tuple(sorted(set(float(t) for t in t_grid))),
    )


@dataclass(frozen=True)
class SmoothingValidationReport:
    worst_ratio: float
    worst_case: tuple  # (g index, t, n, b)
    n_checked: int
    skipped_times: tuple
    worst_by_time: dict  # t -> worst ratio at t

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + SMOOTHING_SLACK


def validate_smoothing(
    cert: SmoothingCertificate,
    flow,
    g_ensemble,
    t_grid,
    grid_cap: int = 8,
) -> SmoothingValidationReport:
    """Worst ratio of measured weighted norms to the certificate bound,
    overall and at each time.

    The (n, b) grid is the one fit_smoothing_certificate fits on. Times at
    or beyond t0 are excluded and reported as skipped.
    """
    worst, worst_case = -math.inf, None
    worst_by_time = {}
    skipped = tuple(t for t in t_grid if not 0 < t < cert.t0)
    used = [t for t in t_grid if 0 < t < cert.t0]
    count = 0
    for gi, t, n, b, w, log_g in _norm_samples(flow, g_ensemble, used, grid_cap):
        count += 1
        if w <= 0:
            continue
        ratio = math.exp(math.log(w) - log_g - cert.log_bound(n, b, t))
        worst_by_time[t] = max(worst_by_time.get(t, 0.0), ratio)
        if ratio > worst:
            worst, worst_case = ratio, (gi, t, n, b)
    if worst_case is None:
        raise ValueError("validation grid is empty")
    return SmoothingValidationReport(
        worst_ratio=worst,
        worst_case=worst_case,
        n_checked=count,
        skipped_times=skipped,
        worst_by_time=worst_by_time,
    )


# ---------------------------------------------------------------------------
# tail localization and weight transfer


def tail_radius(d2: float, eps: float) -> float:
    """Localization radius D2 sqrt(2/eps); at least 1 for eps <= 1, D2 >= 1."""
    if not d2 >= 1.0:
        raise ValueError("D2 must satisfy D2 >= 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    return d2 * math.sqrt(2.0 / eps)


@dataclass(frozen=True)
class TailMassReport:
    r: float
    tail_mass: float
    budget: float  # eps * D1^2 / 2


def tail_mass_check(f: SpectralFunction, bound: GSBound, eps: float) -> TailMassReport:
    """The sides of the localization step: the mass outside B(0, r), to be at
    most eps D1^2 / 2."""
    r = tail_radius(bound.D2, eps)
    return TailMassReport(
        r=r, tail_mass=norm_squared_outside_radius(f, r), budget=eps * bound.D1**2 / 2.0
    )


def delta_weight_transfer(bound: GSBound, delta: float) -> GSBound:
    """Transfer a unit-weight bound to the (1+|x|^2)^(delta/2) weight scale.

    The exponent pair becomes (delta nu, mu) and D2 is inflated to
    8^nu e^nu D2 when delta < 1 (unchanged at delta = 1). The transferred
    regularity index s = delta nu + mu is available as .s on the result.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    factor = 1.0 if delta == 1.0 else (8.0 * math.e) ** bound.nu
    return GSBound(D1=bound.D1, D2=factor * bound.D2, nu=delta * bound.nu, mu=bound.mu)
