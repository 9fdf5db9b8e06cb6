"""Admissible radius profiles, greedy Besicovitch coverings, and sensor sets.

The default radius profile

    rho(x) = min(R (1+|x|^2)^(delta/2), eta * max(|x|, r0))

satisfies both covering hypotheses by construction: growth controlled by
R (1+|x|^2)^(delta/2) everywhere, and rho(x) <= eta |x| for |x| >= r0.
Coverings are built greedily (largest admissible radius first) over the
interval [-max(r0, r/(1-eta)), max(r0, r/(1-eta))] and carry their exact
overlap count and uncovered measure, both from one sweep over the interval
ends; sensor sets are exact interval unions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import Ball, NumericalError

__all__ = [
    "Covering",
    "DENSITY_SLACK",
    "DensityReport",
    "FullSpaceSensorSet",
    "IntervalSensorSet",
    "OVERLAP_CAP",
    "RadiusProfile",
    "besicovitch_cover",
    "certify_density",
    "density_threshold",
    "sensor_decaying_density",
    "sensor_id",
    "sensor_periodic",
]

# Declared overlap cap of the greedy construction, audited on every covering.
OVERLAP_CAP = 4

# A ball's sensor fraction may fall this far below its density floor.
DENSITY_SLACK = 1e-12

# Largest candidate grid a covering builds; the committed configs need ~2e4.
MAX_CANDIDATES = 10**7


@dataclass(frozen=True)
class RadiusProfile:
    """Parameters of the admissible ball-radius profile.

    R >= 1 and delta in [0, 1] control the growth bound; eta in (0, 1) and
    r0 >= 1 enforce the relative-smallness bound rho(x) <= eta |x| outside
    B(0, r0).
    """

    R: float = 1.0
    delta: float = 0.0
    eta: float = 0.5
    r0: float = 1.0

    def __post_init__(self):
        if not self.R >= 1.0:
            raise ValueError("R must satisfy R >= 1")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        if not self.r0 >= 1.0:
            raise ValueError("r0 must satisfy r0 >= 1")

    def rho(self, x) -> np.ndarray:
        """Radius at x (scalar or array of points)."""
        pts = np.asarray(x, dtype=float)
        dist = np.abs(pts)
        growth = self.R * (1.0 + dist**2) ** (self.delta / 2.0)
        smallness = self.eta * np.maximum(dist, self.r0)
        out = np.minimum(growth, smallness)
        return out if out.ndim else float(out)

    @property
    def min_radius(self) -> float:
        """Infimum of rho, attained at the origin."""
        return float(self.rho(0.0))

    def covering_extent(self, r: float) -> float:
        """Radius max(r0, r/(1-eta)) of the region a covering must fill."""
        return max(self.r0, r / (1.0 - self.eta))


@dataclass(frozen=True)
class Covering:
    """Ball family over [-target_radius, target_radius]; a cover if uncovered_measure is 0."""

    centers: np.ndarray
    radii: np.ndarray
    target_radius: float
    kappa_measured: int
    uncovered_measure: float

    def __len__(self) -> int:
        return len(self.radii)

    def balls(self) -> list:
        return [Ball(c, r) for c, r in zip(self.centers, self.radii)]


class CoveringConstructionError(NumericalError):
    """The candidate grid is too large, or the greedy construction hit its cap."""


def _candidate_grid(extent: float, step: float) -> np.ndarray:
    # Strictly interior candidates, the outermost within two steps of the rim.
    half = (extent - step) / step
    if not 2.0 * half + 1.0 <= MAX_CANDIDATES:
        raise CoveringConstructionError(f"covering grid of {2.0 * half + 1.0:.3e} candidates")
    n = int(math.floor(half))
    return np.arange(-n, n + 1) * step


def _sweep(lo: np.ndarray, hi: np.ndarray, extent: float) -> tuple:
    """(kappa, uncovered measure) of the open intervals (lo, hi) on [-extent, extent].

    The running sum over the ends, sorted once with closing before opening
    ends at a tie, is the depth between neighbouring ends. Touching intervals
    neither overlap nor leave a gap: the proof needs the cover and the
    overlap bound only almost everywhere.
    """
    ends = np.concatenate([lo, hi])
    steps = np.concatenate([np.ones(len(lo), np.intp), np.full(len(hi), -1, np.intp)])
    order = np.lexsort((steps, ends))
    depth = np.concatenate([[0], np.cumsum(steps[order])])
    # depth[j] holds between edges[j] and edges[j + 1]
    edges = np.clip(np.concatenate([[-extent], ends[order], [extent]]), -extent, extent)
    uncovered = float(np.sum(np.diff(edges)[depth == 0]))
    return int(depth.max()), uncovered


def besicovitch_cover(profile: RadiusProfile, r: float) -> Covering:
    """Greedy covering of [-e, e], e = max(r0, r/(1-eta)), by balls B(y, rho(y)).

    Candidates sit on a grid of step min(min_radius / 25, 0.05). Repeatedly
    picks the uncovered candidate of largest radius and marks covered with a
    one-grid-step margin, so the chosen balls cover every point within one
    grid step of a candidate. The outermost candidates sit up to two steps
    inside the rim, so a rim point +-e left outside every chosen ball gets
    the ball B(+-e, rho(+-e)) of its own, which covers the band next to it
    (rho >= 25 steps). The overlap count kappa and the uncovered measure of
    [-e, e] are exact for the float intervals (c - r, c + r) of Ball.interval().
    """
    if not r >= 1.0:
        raise ValueError("covering radius must satisfy r >= 1")
    extent = profile.covering_extent(r)
    grid_step = min(profile.min_radius / 25.0, 0.05)
    candidates = _candidate_grid(extent, grid_step)
    rho = np.atleast_1d(profile.rho(candidates))
    covered = np.zeros(len(candidates), dtype=bool)
    centers, radii = [], []
    cap = len(candidates)
    for _ in range(cap):
        if covered.all():
            break
        masked = np.where(covered, -np.inf, rho)
        pick = int(np.argmax(masked))
        c, rad = candidates[pick], rho[pick]
        centers.append(c)
        radii.append(rad)
        covered |= np.abs(candidates - c) <= rad - grid_step
    else:
        raise CoveringConstructionError("greedy covering did not terminate under its cap")
    for rim in (-extent, extent):
        if not any(abs(rim - c) < rad for c, rad in zip(centers, radii)):
            centers.append(rim)
            radii.append(profile.rho(rim))
    centers = np.asarray(centers)
    radii = np.asarray(radii)
    kappa, uncovered = _sweep(centers - radii, centers + radii, extent)
    return Covering(
        centers=centers,
        radii=radii,
        target_radius=extent,
        kappa_measured=kappa,
        uncovered_measure=uncovered,
    )


# ---------------------------------------------------------------------------
# sensor sets


class FullSpaceSensorSet:
    """omega = R; every window has density one."""

    def __init__(self, description: str = "full space"):
        self.description = description

    def intersect_interval(self, a: float, b: float) -> list:
        return [(a, b)] if b > a else []


class IntervalSensorSet:
    """Sensor set as a disjoint sorted union of half-open intervals."""

    def __init__(self, intervals, description: str = ""):
        merged = []
        for a, b in sorted((float(a), float(b)) for a, b in intervals):
            if b <= a:
                continue
            if merged and a <= merged[-1][1] + 1e-12:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self.starts = np.array([a for a, _ in merged])
        self.ends = np.array([b for _, b in merged])
        self.description = description
        self._cum = np.concatenate([[0.0], np.cumsum(self.ends - self.starts)])

    def measure_in_many(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._measure_prefix(np.asarray(b, float)) - self._measure_prefix(
            np.asarray(a, float)
        )

    def _measure_prefix(self, x: np.ndarray) -> np.ndarray:
        # measure of the set in (-inf, x]
        if len(self.starts) == 0:
            return np.zeros_like(np.asarray(x, dtype=float))
        idx = np.searchsorted(self.starts, x, side="right")
        full = self._cum[idx]
        prev_end = np.where(idx > 0, self.ends[np.maximum(idx - 1, 0)], -np.inf)
        prev_len = np.where(idx > 0, self.ends[np.maximum(idx - 1, 0)] - self.starts[np.maximum(idx - 1, 0)], 0.0)
        overshoot = np.clip(prev_end - x, 0.0, prev_len)
        return full - overshoot

    def intersect_interval(self, a: float, b: float) -> list:
        """Disjoint interval list of the set clipped to [a, b]."""
        lo = np.searchsorted(self.ends, a, side="right")
        hi = np.searchsorted(self.starts, b, side="left")
        out = []
        for i in range(lo, hi):
            s, e = max(self.starts[i], a), min(self.ends[i], b)
            if e > s:
                out.append((float(s), float(e)))
        return out


def sensor_id(omega) -> str:
    """The name a report gives a sensor set: its description, else its kind."""
    return omega.description or ("full" if isinstance(omega, FullSpaceSensorSet) else "intervals")


def sensor_periodic(period: float, fill: float, extent: float = 400.0):
    """Periodic 1D sensor set: the union of [j p, j p + fill p) over j.

    fill = 1 returns the full line; fill = 0 returns the empty set (which
    density certification rejects).
    """
    if not period > 0:
        raise ValueError("period must be positive")
    if not 0.0 <= fill <= 1.0:
        raise ValueError("fill must lie in [0, 1]")
    if not extent > 0:
        raise ValueError("extent must be positive")
    if fill == 1.0:
        return FullSpaceSensorSet(description=f"periodic(period={period}, fill=1)")
    j_max = int(math.ceil(extent / period)) + 1
    intervals = [
        (j * period, (j + fill) * period) for j in range(-j_max, j_max + 1)
    ]
    return IntervalSensorSet(
        intervals, description=f"periodic(period={period}, fill={fill}, extent={extent})"
    )


def sensor_decaying_density(
    gamma0: float,
    a: float,
    profile: RadiusProfile,
    extent: float = 400.0,
) -> IntervalSensorSet:
    """Sensor set with local density at least gamma0 / (1 + |x|^a).

    Greedy per-cell filling: each lattice cell, of width
    min(0.25, min_radius / 4), carries a sub-interval sized for the decay
    target at its far edge, inflated by (1+eta)^a * 1.5 so that windows
    B(x, rho(x)) reaching outward (rho(x) <= eta |x|) still meet the target
    at their own center.
    """
    if not 0.0 < gamma0 <= 1.0:
        raise ValueError("gamma0 must lie in (0, 1]")
    if a < 0:
        raise ValueError("decay exponent a must be nonnegative")
    cell = min(0.25, profile.min_radius / 4.0)
    safety = (1.0 + profile.eta) ** a * 1.5
    j_max = int(math.ceil(extent / cell)) + 1
    intervals = []
    for j in range(-j_max, j_max + 1):
        lo, hi = j * cell, (j + 1) * cell
        near = min(abs(lo), abs(hi)) if lo * hi > 0 else 0.0
        target = min(1.0, safety * gamma0 / (1.0 + near**a))
        length = target * cell
        if length <= 0:
            continue
        if lo >= 0:
            intervals.append((lo, lo + length))  # hug the origin-facing edge
        else:
            intervals.append((hi - length, hi))
    return IntervalSensorSet(
        intervals,
        description=f"decaying(gamma0={gamma0}, a={a}, extent={extent}, cell={cell})",
    )


# ---------------------------------------------------------------------------
# density certification


@dataclass(frozen=True)
class DensityReport:
    min_ratio: float
    threshold: str
    n_violations: int


def density_threshold(gamma):
    """(floor, description) of a constant gamma or a decaying (gamma0, a): the
    floor maps |x| to gamma, or to gamma0 / (1 + |x|^a)."""
    if np.isscalar(gamma):
        g = float(gamma)
        if not 0.0 < g <= 1.0:
            raise ValueError("constant density must lie in (0, 1]")
        return (lambda d: np.full_like(d, g, dtype=float)), f"constant {g}"
    gamma0, a = (float(v) for v in gamma)
    if not 0.0 < gamma0 <= 1.0 or a < 0:
        raise ValueError("decaying density requires gamma0 in (0,1] and a >= 0")
    return (lambda d: gamma0 / (1.0 + d**a)), f"decaying gamma0={gamma0}, a={a}"


def certify_density(
    omega,
    profile: RadiusProfile,
    gamma,
    extent: float,
    sample_centers=None,
) -> DensityReport:
    """Check |B(x, rho(x)) cap omega| >= threshold(|x|) |B(x, rho(x))|.

    Exact interval arithmetic on the sensor intervals. Centers are a grid
    over [-extent, extent] with step min(0.1, min_radius / 5), plus any
    provided ones.
    """
    threshold, desc = density_threshold(gamma)
    step = min(0.1, profile.min_radius / 5.0)
    centers = np.arange(-extent, extent + step / 2, step)
    if sample_centers is not None:
        centers = np.concatenate([centers, np.asarray(sample_centers, float).ravel()])
    rho = profile.rho(centers)
    if isinstance(omega, FullSpaceSensorSet):
        ratios = np.ones_like(centers)
    else:
        ratios = omega.measure_in_many(centers - rho, centers + rho) / (2.0 * rho)
    dist = np.abs(centers)
    required = threshold(dist)
    bad = ratios < required - DENSITY_SLACK
    argmin = int(np.argmin(ratios / np.maximum(required, 1e-300)))
    return DensityReport(
        min_ratio=float(ratios[argmin]),
        threshold=desc,
        n_violations=int(bad.sum()),
    )
