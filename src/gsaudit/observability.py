"""Observability constants of the harmonic flow on truncated spans.

The flow diagonalizes in the Hermite basis with rates lambda_n = n + 1/2, so
on span{h_0, ..., h_{N-1}} both sides of the observability inequality

    ||T(T) g||^2 <= C * integral_0^T ||T(t) g||^2_{L^2(omega)} dt

are explicit quadratic forms: the left side is diagonal, and the right side
is the sensor mass matrix, itself in closed form from the basis at the
interval ends, filtered through a closed-form time integral. The
smallest valid C is the top eigenvalue of the symmetric-definite pencil.
As 1_omega <= 1 puts G_omega below G_R in PSD order, a scan checks every
constant against the closed-form full-line one, and monotonicity in T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FullSpaceSensorSet, sensor_id
from .hermite import NumericalError, interval_gram

__all__ = [
    "GramianError",
    "MAX_TRUNCATION",
    "ObservabilityReport",
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
    """Matrix of sensor-set inner products A[m, n] = int_omega h_m h_n, in
    closed form from the basis at the interval ends (interval_gram)."""
    _check_trunc(n_trunc)
    if isinstance(omega, FullSpaceSensorSet):
        return np.eye(n_trunc)
    return interval_gram(n_trunc - 1, zip(omega.starts, omega.ends))


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
    decay = 2.0 * lam * T  # divided through by e^decay, no term can overflow
    return float(np.max(2.0 * lam * np.exp(-decay) / -np.expm1(-decay)))


def _pencil_top(energy_diag: np.ndarray, gramian: np.ndarray) -> tuple:
    geigs = np.linalg.eigvalsh(gramian)
    norm = float(geigs[-1])
    floor = float(geigs[0])
    if norm <= 0 or floor <= norm / _COND_LIMIT:
        raise GramianError(
            "observation Gramian is numerically singular "
            f"(eigenvalue range [{floor:.3e}, {norm:.3e}]); "
            "the sensor set is too thin for this truncation"
        )
    # the pencil (diag(energy), G) through G = L L^T: the eigenvalues of
    # L^-1 diag(energy) L^-T, the reduction LAPACK's sygvd makes
    try:
        chol = np.linalg.cholesky(gramian)
    except np.linalg.LinAlgError as err:
        raise GramianError(f"observation Gramian has no Cholesky factor: {err}") from err
    half = np.linalg.solve(chol, np.diag(energy_diag))
    reduced = np.linalg.solve(chol, half.T)
    top = float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1])
    return top, norm / floor


@dataclass(frozen=True)
class ObservabilityReport:
    """Empirical constants over a T-grid, checked against the full line."""

    omega_id: str
    n_trunc: int
    t_grid: tuple
    c_obs: tuple
    conditioning: tuple
    log_margins: tuple  # log(c_obs / diagonal_constant(T, n_trunc)) per T
    monotone: bool  # C_obs nonincreasing along the (ascending) T-grid

    @property
    def passed(self) -> bool:
        """Monotone, and no constant below the full-line one."""
        return self.monotone and all(m >= math.log1p(-1e-12) for m in self.log_margins)


def observability_scan(omega, t_grid, n_trunc: int) -> ObservabilityReport:
    """Pencil solves over an ascending T-grid.

    At each T the constant is the smallest C valid on the truncated span,
    the top eigenvalue of the (E_T, G_T) pencil; the Gramian's condition
    number and the log-ratio to the full-line constant go next to it.
    """
    _check_trunc(n_trunc)
    times = [float(t) for t in t_grid]
    if not times or any(t <= 0 for t in times):
        raise ValueError("t_grid must be nonempty with positive entries")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("t_grid must be strictly increasing")
    mass = mass_matrix(omega, n_trunc)
    lam = _rates(n_trunc)
    constants, conds, margins = [], [], []
    for t in times:
        gramian = observability_gramian(mass, t)
        c_obs, conditioning = _pencil_top(np.exp(-2.0 * lam * t), gramian)
        floor = diagonal_constant(t, n_trunc)
        if not floor >= np.finfo(float).tiny:  # subnormal: too few bits to compare
            raise NumericalError(f"the full-line constant leaves the float range at T = {t}")
        constants.append(c_obs)
        conds.append(conditioning)
        margins.append(math.log(c_obs / floor))
    return ObservabilityReport(
        omega_id=sensor_id(omega),
        n_trunc=n_trunc,
        t_grid=tuple(times),
        c_obs=tuple(constants),
        conditioning=tuple(conds),
        log_margins=tuple(margins),
        monotone=all(
            later <= earlier * (1.0 + 1e-12)
            for earlier, later in zip(constants, constants[1:])
        ),
    )
