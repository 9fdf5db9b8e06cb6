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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .hermite import (
    MAX_DEGREE,
    NumericalError,
    SpectralFunction,
    norm_squared_outside_radius,
    weighted_norm,
)

__all__ = [
    "SMOOTHING_T0",
    "GSBound",
    "GalerkinFlowResult",
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


@dataclass(frozen=True)
class SmoothingCertificate:
    """Constants of a Gelfand-Shilov smoothing estimate for a semigroup,
    valid for t < t0. A fitted certificate records the t-grid it was fitted
    on and the slack of each fitted data point."""

    C: float
    t0: float
    nu: float
    mu: float
    r1: float
    r2: float
    fitted_t_grid: tuple = ()
    fit_residuals: tuple = ()

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
            + self.nu * gammaln(n + 1)
            + self.mu * gammaln(b + 1)
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
            + self.nu * gammaln(n + 1)
            + self.mu * gammaln(b + 1)
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


@dataclass(frozen=True)
class GalerkinFlowResult:
    function: SpectralFunction
    truncation_change: float  # relative change when the degree is halved
    unstable: bool
    eigenvalue_range: tuple


def shubin_galerkin_flow(
    g: SpectralFunction,
    t: float,
    k: int,
    m: int,
    theta: float = 1.0,
    n_trunc: int = MAX_DEGREE,
) -> GalerkinFlowResult:
    """Flow e^(-t A^theta) for the Shubin operator A, via eigendecomposition.

    theta must exceed 1/(2m) for the flow to smooth into the
    Gelfand-Shilov scale; smaller values are rejected. The flow is computed
    in the degree-n_trunc Galerkin space; the result carries a truncation
    stability indicator, the relative L2 change when the computation is
    repeated at half the working truncation, flagged unstable above 1e-4.
    Inputs with mass above degree n_trunc // 2 are projected in the halved
    run, so for such inputs the indicator is conservative.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    if not 1 <= n_trunc <= MAX_DEGREE:
        raise ValueError(f"working truncation must lie in [1, {MAX_DEGREE}]")
    if g.max_degree > n_trunc:
        raise ValueError("input degree exceeds the working truncation")
    if not theta > 1.0 / (2 * m):
        raise ValueError("theta must exceed 1/(2m)")

    def flow_at(degree: int) -> tuple:
        a_mat = shubin_operator_matrix(degree, k, m)
        lam, vec = np.linalg.eigh(a_mat)
        coeff = np.zeros(degree + 1)
        upto = min(degree + 1, len(g.coeffs))
        coeff[:upto] = g.coeffs[:upto]
        return vec @ (np.exp(-t * lam**theta) * (vec.T @ coeff)), lam

    out_full, lam = flow_at(n_trunc)
    out_half, _ = flow_at(max(n_trunc // 2, 1))
    pad_half = np.zeros(n_trunc + 1)
    pad_half[: len(out_half)] = out_half
    denom = max(g.norm(), 1e-300)
    change = float(np.linalg.norm(out_full - pad_half) / denom)
    return GalerkinFlowResult(
        function=SpectralFunction(out_full),
        truncation_change=change,
        unstable=change > 1e-4,
        eigenvalue_range=(float(lam[0]), float(lam[-1])),
    )


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
        log_w = math.log(w) if w > 0 else -math.inf
        y = log_w - nu * gammaln(n + 1) - mu * gammaln(b + 1)
        log_d2 = max(log_d2, (y - math.log(d1)) / (n + b))
    return GSBound(D1=d1, D2=max(1.0, math.exp(log_d2)), nu=nu, mu=mu)


def fit_smoothing_certificate(
    flow,
    g_ensemble,
    t_grid,
    nu: float,
    mu: float,
    grid_cap: int | None = 8,
) -> SmoothingCertificate:
    """Fit (C, r1, r2) so the smoothing estimate holds on the sampled data.

    Linear program in (log C, r1, r2): every sampled weighted norm must sit
    under the certificate surface; the objective minimizes the total slack,
    so the fit is tight at several grid points. The grid takes n, b <= 8,
    and grid_cap restricts it to n + b <= grid_cap. The fitted C is then
    inflated by a safety factor of 1.05: the minimal envelope touches the
    data at the grid times, and the measured norms are concave in log t
    between them, so an exact fit can dip below off-grid data. The inflation
    scales as 1.05^(1+n+b), which matches how the dip grows with the
    derivative order. The certificate holds for t < t0 = SMOOTHING_T0.
    """
    from scipy.optimize import linprog  # deferred: only this audit loads it

    rows, rhs, data = [], [], []
    for g in g_ensemble:
        log_g = math.log(g.norm())
        for t in t_grid:
            if not 0 < t < 1:
                raise ValueError("fitting times must lie in (0, 1)")
            f = flow(g, t)
            for n, b in _SMOOTHING_GRID:
                q = n + b
                if grid_cap is not None and q > grid_cap:
                    continue
                w = weighted_norm(f, n=n, beta=b, weight_delta=1.0)
                if w <= 0:
                    continue
                y = math.log(w) - nu * gammaln(n + 1) - mu * gammaln(b + 1) - log_g
                coef = (1.0 + n + q, -math.log(t), -q * math.log(t))
                rows.append(coef)
                rhs.append(y)
                data.append((n, b, t))
    if not rows:
        raise ValueError("no data points to fit")
    a_ub = -np.asarray(rows)
    b_ub = -np.asarray(rhs)
    cost = np.sum(np.asarray(rows), axis=0)
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0, None), (0, None), (1e-9, None)],
        method="highs",
    )
    if not res.success:
        raise NumericalError(f"certificate fit LP failed: {res.message}")
    log_c, r1, r2 = res.x
    log_c += math.log(1.05)
    fitted = np.array([log_c, r1, r2])
    residuals = tuple(float(v) for v in (np.asarray(rows) @ fitted - np.asarray(rhs)))
    if min(residuals) < -1e-9:
        raise RuntimeError("certificate fit produced a negative slack")
    return SmoothingCertificate(
        C=max(1.0, math.exp(log_c)),
        t0=SMOOTHING_T0,
        nu=nu,
        mu=mu,
        r1=float(r1),
        r2=float(max(r2, 1e-9)),
        fitted_t_grid=tuple(sorted(set(float(t) for t in t_grid))),
        fit_residuals=residuals,
    )


@dataclass(frozen=True)
class SmoothingValidationReport:
    worst_ratio: float
    worst_case: tuple  # (g index, t, n, b)
    n_checked: int
    skipped_times: tuple
    ratios: dict = field(repr=False, default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.worst_ratio <= 1.0 + 1e-9


def validate_smoothing(
    cert: SmoothingCertificate,
    flow,
    g_ensemble,
    t_grid,
    grid_cap: int | None = 8,
) -> SmoothingValidationReport:
    """Worst ratio of measured weighted norms to the certificate bound.

    The (n, b) grid is the one fit_smoothing_certificate fits on. Times at
    or beyond t0 are excluded and reported as skipped.
    """
    worst, worst_case = -math.inf, None
    ratios = {}
    skipped = tuple(t for t in t_grid if not 0 < t < cert.t0)
    used = [t for t in t_grid if 0 < t < cert.t0]
    count = 0
    for gi, g in enumerate(g_ensemble):
        log_g = math.log(g.norm())
        for t in used:
            f = flow(g, t)
            for n, b in _SMOOTHING_GRID:
                if grid_cap is not None and n + b > grid_cap:
                    continue
                w = weighted_norm(f, n=n, beta=b, weight_delta=1.0)
                count += 1
                if w <= 0:
                    continue
                log_ratio = math.log(w) - log_g - cert.log_bound(n, b, t)
                ratio = math.exp(log_ratio)
                ratios[(gi, t, n, b)] = ratio
                if ratio > worst:
                    worst, worst_case = ratio, (gi, t, n, b)
    if worst_case is None:
        raise ValueError("validation grid is empty")
    return SmoothingValidationReport(
        worst_ratio=worst,
        worst_case=worst_case,
        n_checked=count,
        skipped_times=skipped,
        ratios=ratios,
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
    ratio: float
    passed: bool


def tail_mass_check(f: SpectralFunction, bound: GSBound, eps: float) -> TailMassReport:
    """Check the localization step: mass outside B(0, r) is at most eps D1^2 / 2."""
    r = tail_radius(bound.D2, eps)
    tail = norm_squared_outside_radius(f, r)
    budget = eps * bound.D1**2 / 2.0
    return TailMassReport(
        r=r,
        tail_mass=tail,
        budget=budget,
        ratio=tail / budget,
        passed=tail <= budget,
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
