"""Observability constants of the harmonic flow on truncated spans.

The flow diagonalizes in the Hermite basis with rates lambda_n = n + 1/2, so
on span{h_0, ..., h_{N-1}} both sides of the observability inequality

    ||T(T) g||^2 <= C * integral_0^T ||T(t) g||^2_{L^2(omega)} dt

are explicit quadratic forms: the left side is diagonal, and the right side
is the sensor mass matrix filtered through a closed-form time integral. The
smallest valid C is the top eigenvalue of the symmetric-definite pencil, and
bound_shape_fit compares the measured constants against the N exp(N / T^p)
shape predicted for Gelfand-Shilov smoothing flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FullSpaceSensorSet, sensor_id
from .hermite import (
    NumericalError,
    QuadratureConvergenceError,
    _interval_rules,
    basis_function,
    basis_matrix,
    effective_support_radius,
)

__all__ = [
    "GramianError",
    "MAX_TRUNCATION",
    "ObservabilityReport",
    "bound_shape_fit",
    "diagonal_constant",
    "mass_matrix",
    "observability_gramian",
    "observability_scan",
]

# pencil conditioning degrades past this truncation; keep solves reliable
MAX_TRUNCATION = 48

# Gramian condition numbers beyond this make the pencil solve meaningless
_COND_LIMIT = 1e13


class GramianError(NumericalError):
    """The observation Gramian is numerically singular.

    Happens when the sensor set is too thin for the requested truncation:
    some combination of the first N modes is invisible to omega at working
    precision, so no finite observability constant can be certified.
    """


def _check_trunc(n_trunc: int):
    if not 1 <= n_trunc <= MAX_TRUNCATION:
        raise ValueError(f"truncation must lie in [1, {MAX_TRUNCATION}]")


def _rates(n_trunc: int) -> np.ndarray:
    return np.arange(n_trunc) + 0.5


def mass_matrix(omega, n_trunc: int) -> np.ndarray:
    """Matrix of sensor-set inner products A[m, n] = int_omega h_m h_n.

    Composite Gauss-Legendre on the sensor intervals clipped to the
    effective support of the retained modes, with a refinement check:
    doubling the resolution must move every entry by at most 1e-11 of the
    largest entry (or of 1, if that is larger).
    """
    _check_trunc(n_trunc)
    if isinstance(omega, FullSpaceSensorSet):
        return np.eye(n_trunc)

    cutoff = effective_support_radius(basis_function(n_trunc - 1))
    pieces = [
        (max(a, -cutoff), min(b, cutoff))
        for a, b in zip(omega.starts, omega.ends)
        if b > -cutoff and a < cutoff
    ]
    if not pieces:
        return np.zeros((n_trunc, n_trunc))

    def assemble(order: int, max_panel: float) -> np.ndarray:
        x, w, _ = _interval_rules(pieces, order, max_panel)
        basis = basis_matrix(n_trunc - 1, x)
        return (basis * w) @ basis.T

    coarse = assemble(24, 0.5)
    fine = assemble(48, 0.25)
    scale = max(1.0, float(np.abs(fine).max()))
    drift = float(np.abs(fine - coarse).max())
    if drift > 1e-11 * scale:
        raise QuadratureConvergenceError(
            f"mass matrix: refinement moved an entry by {drift:.3e}"
        )
    return 0.5 * (fine + fine.T)


def observability_gramian(mass: np.ndarray, T: float) -> np.ndarray:
    """G[m, n] = A[m, n] (1 - e^{-(lam_m+lam_n) T}) / (lam_m + lam_n) for the
    sensor mass matrix A = mass_matrix(omega, N)."""
    if T < 0:
        raise ValueError("T must be nonnegative")
    lam = _rates(len(mass))
    rate_sum = lam[:, None] + lam[None, :]
    return mass * (-np.expm1(-rate_sum * T)) / rate_sum


def diagonal_constant(T: float, n_trunc: int) -> float:
    """Closed form for omega = R: max_n 2 lam_n / (e^{2 lam_n T} - 1)."""
    if not T > 0:
        raise ValueError("T must be positive")
    lam = _rates(n_trunc)
    return float(np.max(2.0 * lam / np.expm1(2.0 * lam * T)))


def _pencil_top(energy_diag: np.ndarray, gramian: np.ndarray) -> tuple:
    from scipy.linalg import eigvalsh  # deferred: only this audit loads it

    geigs = eigvalsh(gramian)
    norm = float(geigs[-1])
    floor = float(geigs[0])
    if norm <= 0 or floor <= norm / _COND_LIMIT:
        raise GramianError(
            "observation Gramian is numerically singular "
            f"(eigenvalue range [{floor:.3e}, {norm:.3e}]); "
            "the sensor set is too thin for this truncation"
        )
    top = float(eigvalsh(np.diag(energy_diag), gramian)[-1])
    return top, norm / floor, floor / norm


def bound_shape_fit(t_grid, c_grid, r2: float, s: float, n_cap: int = 10**12) -> int:
    """Smallest integer N >= 1 with log C(T) <= log N + N T^{-4 r2/(1-s)}.

    The right side is strictly increasing in N, so a finite N always exists;
    the search doubles then bisects.
    """
    if not 0.0 <= s < 1.0:
        raise ValueError("s must lie in [0, 1)")
    if not r2 > 0:
        raise ValueError("r2 must be positive")
    t = np.asarray(t_grid, dtype=float)
    c = np.asarray(c_grid, dtype=float)
    if t.shape != c.shape or t.ndim != 1 or len(t) == 0:
        raise ValueError("t_grid and c_grid must be matching nonempty vectors")
    if np.any(t <= 0) or np.any(c <= 0):
        raise ValueError("grid values must be positive")
    t_pow = t ** (-4.0 * r2 / (1.0 - s))
    log_c = np.log(c)

    def admissible(n: int) -> bool:
        return bool(np.all(log_c <= math.log(n) + n * t_pow + 1e-12))

    if admissible(1):
        return 1
    hi = 2
    while not admissible(hi):
        hi *= 2
        if hi > n_cap:
            raise NumericalError(f"no admissible N below {n_cap}")
    lo = hi // 2  # largest known-inadmissible value
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ObservabilityReport:
    """Empirical constants over a T-grid with the fitted bound shape."""

    omega_id: str
    n_trunc: int
    t_grid: tuple
    c_obs: tuple
    conditioning: tuple
    psd_ratios: tuple
    fitted_n: int
    r2: float
    s: float
    monotone: bool  # C_obs nonincreasing along the (ascending) T-grid


def observability_scan(omega, t_grid, n_trunc: int, r2: float, s: float) -> ObservabilityReport:
    """Pencil solves over an ascending T-grid plus the bound-shape fit.

    At each T the constant is the smallest C valid on the truncated span,
    the top eigenvalue of the (E_T, G_T) pencil; the Gramian's condition
    number and relative smallest eigenvalue are reported next to it.
    """
    _check_trunc(n_trunc)
    times = [float(t) for t in t_grid]
    if not times or any(t <= 0 for t in times):
        raise ValueError("t_grid must be nonempty with positive entries")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("t_grid must be strictly increasing")
    mass = mass_matrix(omega, n_trunc)
    lam = _rates(n_trunc)
    constants, conds, ratios = [], [], []
    for t in times:
        gramian = observability_gramian(mass, t)
        c_obs, conditioning, psd_ratio = _pencil_top(np.exp(-2.0 * lam * t), gramian)
        constants.append(c_obs)
        conds.append(conditioning)
        ratios.append(psd_ratio)
    fitted = bound_shape_fit(times, constants, r2, s)
    return ObservabilityReport(
        omega_id=sensor_id(omega),
        n_trunc=n_trunc,
        t_grid=tuple(times),
        c_obs=tuple(constants),
        conditioning=tuple(conds),
        psd_ratios=tuple(ratios),
        fitted_n=fitted,
        r2=r2,
        s=s,
        monotone=all(
            later <= earlier * (1.0 + 1e-12)
            for earlier, later in zip(constants, constants[1:])
        ),
    )
