"""Ball classification and the local-estimate toolchain.

A covering ball Q is good when for every m the combined weighted derivative
mass on Q stays under a multiple of the plain mass on Q,

    ||w^m d^m f||^2_{L2(Q)} / m!
        <= (2 kappa/eps) (2^(m+1) q_m^2 / m!) ||f||^2_{L2(Q)},

with w(x) = (1+|x|^2)^(delta/2) and q_m = tilde_D2^(2m) (m!)^s. The test is
run for m up to a cap; beyond the cap the condition is implied by the global
derivative bound once 2^(m+1) >= eps D1^2 / (2 kappa ||f||^2_Q), which is
recorded as a certified tail. Good balls admit a pointwise derivative bound
at a witness point, an analytic extension to a complex neighborhood whose
normalized sup M_k is bounded in closed form, and finally a local estimate
transferring mass from Q to Q intersected with a sensor set. Everything
large lives in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import gammaln, logsumexp

from .hermite import (
    Ball,
    NumericalError,
    SpectralFunction,
    _BLOCK,
    _clenshaw_scaled,
    _poly_part,
    ball_norms_squared,
    derivative,
    evaluate,
    norm_squared_on_intervals,
    norm_squared_outside_radius,
    refined_rows,
)

__all__ = [
    "AnalyticityReport",
    "BadMassReport",
    "BallAudit",
    "ClassifierConfig",
    "GoodBallResult",
    "LocalEstimateReport",
    "MkBound",
    "PolydiscSup",
    "SeriesBound",
    "WitnessResult",
    "analyticity_check",
    "bad_mass_bound",
    "classify_balls",
    "derivative_family",
    "derivative_stack",
    "good_ball_test",
    "local_estimate_check",
    "mk_bound",
    "mk_bruteforce",
    "pointwise_witness",
    "series_bound",
    "tail_condition_order",
]

# Balls carrying less than this fraction of the total mass are classified
# good and skipped: every inequality at stake degenerates to 0 <= 0.
DEGENERATE_MASS_REL = 1e-40

# series_bound certifies only within the terms m <= SERIES_TERM_CAP; past it
# the sum is left uncertified. mk_bound skips the series when its peak term
# lies past 0.9 of this.
SERIES_TERM_CAP = 30_000_000
# series_bound sums windows of +-40 sigma (and wider) around the peak in
# chunks of at most _SERIES_CHUNK terms, and certifies once the omitted tails
# stay within exp(_LOG_SERIES_REL_TAIL) of the sum: at 2^-53, the unit
# roundoff of a double, they stay below the rounding error of the sum itself
_SERIES_WINDOW_SIGMAS = 40.0
_SERIES_CHUNK = 1_000_000
_LOG_SERIES_REL_TAIL = math.log(2.0**-53)

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class ClassifierConfig:
    """Parameters of the good/bad classification.

    kappa is the measured covering overlap (an integer count), tilde_d2 and s
    describe the weighted derivative bound after the delta transfer, delta is
    the weight power shared with the radius profile.
    """

    eps: float
    kappa: int
    tilde_d2: float
    s: float
    delta: float
    m_cap: int = 24

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if not (isinstance(self.kappa, (int, np.integer)) and self.kappa >= 1):
            raise ValueError("kappa must be an integer overlap count >= 1")
        if not self.tilde_d2 >= 1.0:
            raise ValueError("tilde_d2 must satisfy tilde_d2 >= 1")
        if not 0.0 <= self.s < 1.0:
            raise ValueError("s must lie in [0, 1)")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must lie in [0, 1]")
        if not 0 <= self.m_cap <= 24:
            raise ValueError("m_cap must lie in [0, 24]")

    def log_q(self, m: int) -> float:
        return 2.0 * m * math.log(self.tilde_d2) + self.s * gammaln(m + 1)


def derivative_family(f: SpectralFunction, max_order: int) -> dict:
    """All derivatives d^m f for m <= max_order, keyed by m."""
    out = {0: f}
    for m in range(1, max_order + 1):
        out[m] = derivative(out[m - 1])
    return out


def derivative_stack(f: SpectralFunction, max_order: int) -> np.ndarray:
    """Read-only rows m = 0..max_order of d^m f's coefficients, zero-padded at
    the high end; built once per expansion and shared by every ball."""
    family = derivative_family(f, max_order)
    out = np.zeros((max_order + 1, len(family[max_order].coeffs)))
    for m, g in family.items():
        out[m, : len(g.coeffs)] = g.coeffs
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GoodBallResult:
    is_good: bool
    failing_m: int | None
    degenerate: bool
    mass_sq: float
    log_margins: tuple  # log RHS - log LHS per m; positive means good at m


def _degenerate(f: SpectralFunction, mass_sq: float) -> bool:
    return mass_sq <= DEGENERATE_MASS_REL * f.norm_squared()


def good_ball_test(
    f: SpectralFunction,
    cfg: ClassifierConfig,
    mass_rules: tuple,
    derivative_rules: tuple | None,
) -> GoodBallResult:
    """Classify a covering ball from its quadratures, checking the inequality
    for m <= m_cap.

    mass_rules and derivative_rules are the ball's (coarse, fine) pairs of
    ball_norms_squared for f and for derivative_stack(f, m_cap), as
    classify_balls computes them; derivative_rules is None for a degenerate
    ball. The mass refinement is checked first, then the degenerate
    threshold, then the refinement of each order. Quadrature noise guard:
    the derivative masses only matter on the scale of the right-hand side,
    so the check of order m runs with that floor.
    """
    (mass_sq,) = refined_rows(*mass_rules, [1e-30 * f.norm_squared()], "norm_squared_on_ball")
    mass_sq = max(mass_sq, 0.0)
    if _degenerate(f, mass_sq):
        return GoodBallResult(True, None, True, mass_sq, ())
    log_mass = math.log(mass_sq)
    log_prefactor = math.log(2.0 * cfg.kappa / cfg.eps)
    log_rhs = [
        log_prefactor
        + (m + 1) * _LOG2
        + 2.0 * cfg.log_q(m)
        - gammaln(m + 1)
        + log_mass
        for m in range(cfg.m_cap + 1)
    ]
    floors = [math.exp(min(rhs - 23.0, 700.0)) for rhs in log_rhs]
    norms_sq = refined_rows(*derivative_rules, floors, "weighted_norm")
    margins = []
    failing = None
    for m, (rhs, sq) in enumerate(zip(log_rhs, norms_sq)):
        w = math.sqrt(max(sq, 0.0))
        log_sq = 2.0 * math.log(w) if w > 0 else -math.inf
        log_lhs = log_sq - gammaln(m + 1)
        margins.append(rhs - log_lhs)
        if failing is None and log_lhs > rhs:
            failing = m
    return GoodBallResult(failing is None, failing, False, mass_sq, tuple(margins))


def classify_balls(
    f: SpectralFunction, balls, cfg: ClassifierConfig, derivatives: np.ndarray
) -> list:
    """good_ball_test on each ball, in order. derivatives is
    derivative_stack(f, m_cap).

    Each quadrature rule runs once: the mass rules over all the balls, then
    the derivative rules over the non-degenerate ones. Every refinement
    check runs in good_ball_test, ball by ball, so the checks, and the
    first that fails, are those of classifying the balls one at a time.
    """
    masses = ball_norms_squared(f.coeffs[None], balls, 0.0)
    live = [k for k, (_, (fine,)) in enumerate(masses) if not _degenerate(f, max(fine, 0.0))]
    norms = dict(zip(live, ball_norms_squared(derivatives, [balls[k] for k in live], cfg.delta)))
    return [good_ball_test(f, cfg, masses[k], norms.get(k)) for k in range(len(balls))]


def tail_condition_order(cfg: ClassifierConfig, d1: float, mass_sq: float) -> int:
    """Least order from which the global bound implies the ball condition.

    For m with 2^(m+1) >= eps D1^2 / (2 kappa mass) the classifier inequality
    follows from ||w^m d^beta f|| <= D1 q_m, so orders beyond the cap are
    certified whenever this kicks in by m_cap + 1.
    """
    if not mass_sq > 0:
        raise ValueError("tail certification needs positive ball mass")
    arg = cfg.eps * d1 * d1 / (2.0 * cfg.kappa * mass_sq)
    if arg <= 2.0:
        return 0
    return max(0, math.ceil(math.log2(arg) - 1.0))


@dataclass(frozen=True)
class BadMassReport:
    bad_mass: float
    uncertified_good_mass: float  # good balls whose tail is not certified
    q0_mass_upper: float
    budget: float  # eps * D1^2
    n_bad: int
    n_degenerate: int
    n_uncertified: int
    # per ball tail_condition_order, and whether it is <= m_cap + 1; None if bad or degenerate
    tail_orders: tuple
    tail_certified: tuple

    @property
    def total(self) -> float:
        return self.bad_mass + self.uncertified_good_mass + self.q0_mass_upper

    @property
    def passed(self) -> bool:
        return self.total <= self.budget * (1.0 + 1e-12)


def bad_mass_bound(f, covering, cfg: ClassifierConfig, bound, results) -> BadMassReport:
    """Audit the bad-ball mass estimate: bad + uncovered mass <= eps D1^2.

    Good balls without a certified tail are counted on the bad side, which
    only strengthens the audited inequality. The complement term uses that
    the covering provably contains the ball of its target radius, so the
    uncovered mass is at most the mass outside that radius. results holds
    good_ball_test's result for each ball of the covering, in order.
    """
    if len(results) != len(covering):
        raise ValueError("one classification result per covering ball required")
    bad = unc = 0.0
    n_bad = n_deg = n_unc = 0
    orders, certified = [], []
    for res in results:
        order = cert = None
        if res.degenerate:
            n_deg += 1
        elif not res.is_good:
            n_bad += 1
            bad += res.mass_sq
        else:
            order = tail_condition_order(cfg, bound.D1, res.mass_sq)
            cert = order <= cfg.m_cap + 1
            if not cert:
                n_unc += 1
                unc += res.mass_sq
        orders.append(order)
        certified.append(cert)
    q0 = norm_squared_outside_radius(f, covering.target_radius)
    return BadMassReport(
        bad_mass=bad,
        uncertified_good_mass=unc,
        q0_mass_upper=q0,
        budget=cfg.eps * bound.D1**2,
        n_bad=n_bad,
        n_degenerate=n_deg,
        n_uncertified=n_unc,
        tail_orders=tuple(orders),
        tail_certified=tuple(certified),
    )


# ---------------------------------------------------------------------------
# pointwise witness


def _log_w_inf_neg(ball: Ball, cfg: ClassifierConfig) -> float:
    # log sup_{x in Q} w(x)^{-2} = -delta * log(1 + max{0, |y| - rho}^2);
    # w is radially increasing, so the sup sits at the point nearest 0.
    nearest = max(0.0, ball.center_norm() - ball.radius)
    return -cfg.delta * math.log1p(nearest * nearest)


def _log_abs_derivatives_at(stack: np.ndarray, points: np.ndarray) -> np.ndarray:
    # row m: log |d^m f| at the points, from one Clenshaw pass over the stack
    vals = _clenshaw_scaled(stack, points) * np.exp(-0.5 * points**2)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals))


def _ball_grid(ball: Ball, n: int):
    return np.linspace(ball.center[0] - ball.radius, ball.center[0] + ball.radius, n)


@dataclass(frozen=True)
class WitnessResult:
    x_k: tuple | None
    verified: bool
    min_margin: float  # best over grid of worst log margin over m
    refined: bool


def pointwise_witness(
    f: SpectralFunction,
    ball: Ball,
    cfg: ClassifierConfig,
    mass_sq: float,
    derivatives: np.ndarray,
    n_grid: int = 1024,
) -> WitnessResult:
    """Search the ball for a point satisfying the pointwise derivative bounds.

    The bound at order m reads |d^m f(x)| <= (2 kappa/eps)^(1/2) 2^(m+1)
    C^(1/2) ||f||_Q / |Q|^(1/2) with C = q_m^2 sup_Q w^(-2m). A good
    ball must contain such a point; the grid is refined once before reporting
    failure. mass_sq is the ball's mass ||f||^2_Q and derivatives is
    derivative_stack(f, m_cap).
    """
    if not mass_sq > 0:
        raise ValueError("pointwise witness needs positive ball mass")
    log_w_neg = _log_w_inf_neg(ball, cfg)
    base = (
        0.5 * math.log(2.0 * cfg.kappa / cfg.eps)
        + 0.5 * math.log(mass_sq)
        - 0.5 * math.log(ball.volume)
    )
    log_rhs = {
        m: base
        + (m + 1) * _LOG2
        + cfg.log_q(m)
        + 0.5 * m * log_w_neg
        for m in range(cfg.m_cap + 1)
    }

    def scan(n: int):
        grid = _ball_grid(ball, n)
        logs = _log_abs_derivatives_at(derivatives, grid)
        worst = np.full(len(grid), np.inf)
        for m in range(cfg.m_cap + 1):
            worst = np.minimum(worst, log_rhs[m] - logs[m])
        best = int(np.argmax(worst))
        return grid[best], float(worst[best])

    point, margin = scan(n_grid)
    refined = False
    if margin < 0.0:
        refined = True
        point, margin = scan(4 * n_grid)
    return WitnessResult((float(point),), margin >= 0.0, margin, refined)


# ---------------------------------------------------------------------------
# polydisc sup: brute force and closed-form bound


def _log_abs_analytic(f: SpectralFunction, z: np.ndarray) -> np.ndarray:
    # log |F(z)| on complex points; the Gaussian factor is applied in logs so
    # large imaginary parts cannot overflow.
    vals = _poly_part(f, z)
    gauss = 0.5 * (z.imag**2 - z.real**2)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals)) + gauss


def _max_log_abs(f: SpectralFunction, pts: np.ndarray) -> float:
    # blocks of _BLOCK points; a NaN would vanish from max(best, nan), so it
    # stops the audit instead
    flat = pts.reshape(-1)
    best = -math.inf
    for i in range(0, len(flat), _BLOCK):
        top = float(np.max(_log_abs_analytic(f, flat[i : i + _BLOCK])))
        if math.isnan(top):
            raise NumericalError("polydisc sup: the analytic extension evaluated to NaN")
        best = max(best, top)
    return best


def _polydisc_points(ball: Ball, rho8: float, n_q: int, n_phi: int):
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    circle = np.exp(1j * phis)
    q = np.linspace(ball.center[0] - ball.radius, ball.center[0] + ball.radius, n_q)
    q = np.append(q, ball.center[0])
    rings = [q[:, None] + rho8 * v * circle[None, :] for v in (1.0, 0.5)]
    return np.concatenate([r.ravel() for r in rings] + [q.astype(complex)])


@dataclass(frozen=True)
class PolydiscSup:
    log_m: float
    log_sup: float
    n_samples: int
    rounds: int
    converged: bool


def mk_bruteforce(
    f: SpectralFunction,
    ball: Ball,
    rho_k: float,
    norm_sq: float,
) -> PolydiscSup:
    """Normalized sup of the analytic extension over Q + D(0, 8 rho_k).

    Samples the distinguished boundary (radius 8 rho_k around each real base
    point) plus interior slices, doubling the sampling density until the
    result moves by less than a relative 0.01, for at most five rounds. The
    sup is normalized by the ball's mass norm_sq = ||f||^2_Q and by
    |Q| = ball.volume, and clamped to M >= 1 as in the defining lemma.
    """
    if not norm_sq > 0:
        raise ValueError("polydisc sup needs positive mass on the ball")
    rho8 = 8.0 * rho_k
    n_q, n_phi = 24, 48
    log_sup = -math.inf
    rounds = 0
    converged = False
    n_samples = 0
    for rounds in range(1, 6):
        pts = _polydisc_points(ball, rho8, n_q, n_phi)
        n_samples = len(pts)
        new = _max_log_abs(f, pts)
        if rounds > 1 and abs(new - log_sup) <= math.log1p(0.01):
            log_sup = max(log_sup, new)
            converged = True
            break
        log_sup = max(log_sup, new)
        n_q, n_phi = 2 * n_q, 2 * n_phi
    log_m = 0.5 * math.log(ball.volume) - 0.5 * math.log(norm_sq) + log_sup
    return PolydiscSup(
        log_m=max(log_m, 0.0),
        log_sup=log_sup,
        n_samples=n_samples,
        rounds=rounds,
        converged=converged,
    )


@dataclass(frozen=True)
class SeriesBound:
    log_sum: float
    log_bound: float
    terms_used: int
    remainder_certified: bool
    log_remainder: float


def _series_windows(m_star: float, sigma: float, term_cap: int):
    """Windows [lo, hi] of m* +- 40, 80, 160, ... sigma clipped to [0, term_cap],
    ending with [0, term_cap] itself, the only window when m* lies past the cap."""
    half = _SERIES_WINDOW_SIGMAS * sigma
    while m_star <= term_cap and (m_star - half > 0.0 or m_star + half < term_cap):
        yield math.floor(max(m_star - half, 0.0)), math.ceil(min(m_star + half, term_cap))
        half *= 2.0
    yield 0, term_cap


def _log_series_term(m, log_d: float, one_ms: float):
    """log D^m/(m!)^(1-s), for an integer or an array of them."""
    return m * log_d - one_ms * gammaln(m + 1)


def _log_series_sum(lo: int, hi: int, log_d: float, one_ms: float) -> float:
    """log sum_{m=lo}^{hi} D^m/(m!)^(1-s), in chunks of at most _SERIES_CHUNK
    terms so that memory stays bounded."""
    log_sum = -math.inf
    while lo <= hi:
        end = min(lo + _SERIES_CHUNK, hi + 1)
        terms = _log_series_term(np.arange(lo, end), log_d, one_ms)
        log_sum = np.logaddexp(log_sum, logsumexp(terms))
        lo = end
    return float(log_sum)


def _log_geometric(log_first: float, ratio: float) -> float:
    """log of first/(1 - ratio), the sum of a geometric series; inf unless ratio < 1."""
    return float(log_first - math.log1p(-ratio)) if ratio < 1.0 else math.inf


def series_bound(
    D: float,
    s: float,
    term_cap: int = SERIES_TERM_CAP,
) -> SeriesBound:
    """Sum of sum_m D^m/(m!)^(1-s) against 2 (2D)^(3 (2D)^(1/(1-s))).

    The term ratio t(m+1)/t(m) = D/(m+1)^(1-s) falls with m, so the terms
    peak near m* = D^(1/(1-s)) and only a window m* +- 40 sigma,
    sigma = sqrt(max(m*, 1)/(1-s)), is summed, in log space and in chunks
    of at most 1M terms. Right of the window [lo, hi] the terms shrink at
    least geometrically by D/(hi+2)^(1-s), left of it by lo^(1-s)/D; the
    sum is certified once these two geometric tails together stay within
    2^-53 of the window's sum, below the rounding error of the sum itself,
    and the window doubles until they do. When no window within
    [0, term_cap] certifies (the peak can lie past any reasonable cap), the
    result is the uncertified partial sum over [0, term_cap] with the
    right-tail bound at term_cap as log_remainder (inf while the terms still
    grow there). terms_used counts every term summed. A certified sum above the proved bound is returned as it is;
    the callers audit it.
    """
    if not D >= 0.5:
        raise ValueError("series bound requires D >= 1/2")
    if not 0.0 <= s < 1.0:
        raise ValueError("s must lie in [0, 1)")
    log_d = math.log(D)
    one_ms = 1.0 - s
    peak_arg = log_d / one_ms
    m_star = math.exp(peak_arg) if peak_arg < 709.0 else math.inf
    sigma = math.sqrt(max(m_star, 1.0) / one_ms)
    terms = 0
    for lo, hi in _series_windows(m_star, sigma, term_cap):
        log_sum = _log_series_sum(lo, hi, log_d, one_ms)
        terms += hi - lo + 1
        log_right = _log_series_term(hi + 1, log_d, one_ms)
        log_rem = _log_geometric(log_right, D / (hi + 2) ** one_ms)
        if lo > 0:
            log_left = _log_series_term(lo - 1, log_d, one_ms)
            log_left = _log_geometric(log_left, lo**one_ms / D)
            log_rem = float(np.logaddexp(log_rem, log_left))
        certified = log_rem <= log_sum + _LOG_SERIES_REL_TAIL
        if certified:
            break
    arg = math.log(2.0 * D) / one_ms
    power = math.exp(arg) if arg < 709.0 else math.inf
    log_bound = _LOG2 + 3.0 * power * math.log(2.0 * D)
    return SeriesBound(
        log_sum=log_sum,
        log_bound=log_bound,
        terms_used=terms,
        remainder_certified=certified,
        log_remainder=log_rem,
    )


@dataclass(frozen=True)
class MkBound:
    d_value: float  # the constant D entering the series
    log_bound: float
    log_intermediate: float | None  # series-based bound, when computable
    series: SeriesBound | None
    exponent_overflow: bool


def mk_bound(cfg: ClassifierConfig, profile, bound) -> MkBound:
    """Closed-form bound on log M_k, plus the sharper series intermediate.

    D = 40 tilde_D2^2 R max{r0, (1-eta)^(-1)}; the uniform bound is
    log 4 + (1/2) log(2 kappa/eps) + 3 (2D)^(2/(1-s)). The intermediate bound
    2 (2 kappa/eps)^(1/2) sum_m D^m/(m!)^(1-s) is reported whenever the
    series is certifiable within SERIES_TERM_CAP terms.
    """
    if abs(bound.D2 - cfg.tilde_d2) > 1e-9 * cfg.tilde_d2:
        raise ValueError("config tilde_d2 must match the transferred bound")
    if abs(bound.s - cfg.s) > 1e-12:
        raise ValueError("config s must match the transferred bound")
    d_value = (
        40.0
        * cfg.tilde_d2**2
        * profile.R
        * max(profile.r0, 1.0 / (1.0 - profile.eta))
    )
    half_log = 0.5 * math.log(2.0 * cfg.kappa / cfg.eps)
    arg = (2.0 / (1.0 - cfg.s)) * math.log(2.0 * d_value)
    power = math.exp(arg) if arg < 709.0 else math.inf
    log_bound = math.log(4.0) + half_log + 3.0 * power
    series = None
    log_intermediate = None
    if d_value >= 0.5:
        peak_arg = math.log(d_value) / (1.0 - cfg.s)
        peak = math.exp(peak_arg) if peak_arg < 709.0 else math.inf
        if peak <= 0.9 * SERIES_TERM_CAP:
            series = series_bound(d_value, cfg.s)
            if series.remainder_certified:
                log_intermediate = _LOG2 + half_log + series.log_sum
    return MkBound(
        d_value=d_value,
        log_bound=log_bound,
        log_intermediate=log_intermediate,
        series=series,
        exponent_overflow=math.isinf(power),
    )


# ---------------------------------------------------------------------------
# the local estimate


@dataclass(frozen=True)
class LocalEstimateReport:
    applicable: bool
    log_lhs: float
    log_rhs: float
    intersection_measure: float
    intersection_mass_sq: float
    base: float
    exponent: float

    @property
    def log_ratio(self) -> float:
        return self.log_lhs - self.log_rhs

    @property
    def passed(self) -> bool:
        return self.applicable and self.log_ratio >= -1e-9


def local_estimate_check(
    f: SpectralFunction,
    ball: Ball,
    omega,
    log_m_k: float,
    mass_sq: float,
) -> LocalEstimateReport:
    """Check (48 |Q|/|Q cap omega|)^(1+4 log M/log 2) ||f||^2_{Q cap omega} >= ||f||^2_Q.

    The intersection is decomposed into intervals and both sides are
    integrated directly; the comparison runs in log space since the exponent
    is typically in the thousands. mass_sq is the ball's mass ||f||^2_Q.
    """
    if log_m_k < -1e-12:
        raise ValueError("log M_k must be nonnegative (M_k >= 1)")
    a, b = ball.interval()
    pieces = omega.intersect_interval(a, b)
    measure = sum(hi - lo for lo, hi in pieces)
    if measure <= 0.0:
        return LocalEstimateReport(False, -math.inf, -math.inf, 0.0, 0.0, math.inf, math.inf)
    inter_sq = norm_squared_on_intervals(f, pieces)
    base = 48.0 * ball.volume / measure  # 24 d 2^d = 48 in dimension 1
    exponent = 1.0 + 4.0 * max(log_m_k, 0.0) / _LOG2
    log_lhs = exponent * math.log(base) + (math.log(inter_sq) if inter_sq > 0 else -math.inf)
    log_rhs = math.log(mass_sq) if mass_sq > 0 else -math.inf
    return LocalEstimateReport(True, log_lhs, log_rhs, measure, inter_sq, base, exponent)


# ---------------------------------------------------------------------------
# analyticity


@dataclass(frozen=True)
class AnalyticityReport:
    premise_passed: bool
    violations: tuple
    residuals: tuple  # max Taylor error over the sample per partial degree
    fitted_ratio: float
    final_error: float

    @property
    def converged(self) -> bool:
        return self.fitted_ratio < 1.0 and self.final_error <= 1e-8


def analyticity_check(
    f: SpectralFunction,
    c1: float,
    c2: float,
    y,
    tau: float,
) -> AnalyticityReport:
    """Audit the analyticity lemma: derivative-bound premise and Taylor convergence.

    Premise: ||d^b f|| <= c1 c2^b b! for b <= 12,
    with the norms computed exactly from the ladder coefficients. Conclusion:
    partial Taylor sums of f around y, up to degree 20, converge geometrically
    on |x - y| < tau (the fitted residual ratio estimates the geometric rate).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    premise_order, taylor_degree = 12, 20
    derivatives = derivative_family(f, taylor_degree)
    violations = []
    for b in range(premise_order + 1):
        exact = derivatives[b].norm()
        cap = c1 * c2**b * math.exp(gammaln(b + 1))
        if exact > cap * (1.0 + 1e-12):
            violations.append((b, exact, cap))
    rng = np.random.default_rng(0)
    y0 = float(np.asarray(y).reshape(()))
    sample = y0 + 0.95 * tau * (2.0 * rng.random(16) - 1.0)
    offsets = sample - y0
    target = evaluate(f, sample)
    partial = np.zeros_like(target)
    residuals = []
    for b in range(taylor_degree + 1):
        coeff = evaluate(derivatives[b], y0)
        partial = partial + coeff / math.exp(gammaln(b + 1)) * offsets**b
        residuals.append(float(np.max(np.abs(partial - target))))
    tail = [r for r in residuals[-8:] if r > 1e-300]
    if len(tail) >= 2:
        slope = np.polyfit(np.arange(len(tail)), np.log(tail), 1)[0]
        ratio = float(math.exp(slope))
    else:
        ratio = 0.0
    return AnalyticityReport(
        premise_passed=not violations,
        violations=tuple(violations),
        residuals=tuple(residuals),
        fitted_ratio=ratio,
        final_error=residuals[-1],
    )


# ---------------------------------------------------------------------------
# per-ball audit record


@dataclass(frozen=True)
class BallAudit:
    """Everything measured about one covering ball during a theorem run."""

    k: int
    ball: Ball
    m_cap: int
    is_good: bool
    failing_m: int | None
    degenerate: bool
    mass_sq: float
    tail_certified: bool | None = None
    tail_order: int | None = None
    x_k: tuple | None = None
    witness_verified: bool | None = None
    witness_refined: bool | None = None
    log_mk_bruteforce: float | None = None
    mk_converged: bool | None = None
    log_mk_bound: float | None = None
    log_mk_intermediate: float | None = None
    log_local_lhs: float | None = None
    log_local_rhs: float | None = None
    local_applicable: bool | None = None

    @property
    def mk_consistent(self) -> bool | None:
        if self.log_mk_bruteforce is None or self.log_mk_bound is None:
            return None
        return self.log_mk_bruteforce <= self.log_mk_bound + 1e-9

    @property
    def local_passed(self) -> bool | None:
        if self.log_local_lhs is None or not self.local_applicable:
            return None
        return self.log_local_lhs >= self.log_local_rhs - 1e-9

    def to_dict(self) -> dict:
        """Every field but the ball, which gives its center and radius, plus
        the two derived verdicts."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "ball"}
        out.update(
            center=list(self.ball.center),
            radius=self.ball.radius,
            mk_consistent=self.mk_consistent,
            local_passed=self.local_passed,
        )
        return out
