"""Ball classification and the local-estimate toolchain.

A covering ball Q is good when for every m the combined weighted derivative
mass on Q stays under a multiple of the plain mass on Q,

    ||w^m d^m f||^2_{L2(Q)} / m!
        <= (2 kappa/eps) (2^(m+1) q_m^2 / m!) ||f||^2_{L2(Q)},

with w(x) = (1+|x|^2)^(delta/2) and q_m = tilde_D2^(2m) (m!)^s. The test is
run for m up to a cap; beyond the cap the condition is implied by the global
derivative bound once 2^(m+1) >= eps D1^2 / (2 kappa ||f||^2_Q), which is
recorded as a certified tail. Good balls admit a pointwise derivative bound
at a witness point (its grid scan reads eps, kappa and ||f||_Q only through
one additive constant in logs, and is kept without it), an analytic
extension to a complex neighborhood whose normalized sup M_k is bounded in
closed form, and finally a local estimate transferring mass from Q to Q
intersected with a sensor set. Everything large lives in log space.

The sampled sup M_k (mk_bruteforce) runs for all of a case's balls at once
(polydisc_sups). A round of many points evaluates, on a circle of radius r
around q, only the angles where log majorant(|q| + r) + (y^2 - x^2)/2 plus a
margin of 1e-9 (1 + |log M| + q^2 + r^2) reaches the best value evaluated
for its ball in the round, seeded by the real points and each circle's peak
of the bound. No computed value exceeds the bound by more than rounding far
below the margin (hermite.majorant), so the round's maximum stays the same
float. As a parabola in cos(phi) the bound leaves one window of angles per
circle; a non-finite majorant leaves the whole circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hermite import (
    Ball,
    NumericalError,
    SpectralFunction,
    _BLOCK,
    _LOG2,
    _ball_mass,
    _clenshaw_scaled,
    _exp,
    _log,
    _stack_scaled,
    ball_norms_squared,
    derivative,
    evaluate,
    log_factorial,
    logsumexp,
    majorant,
    norm_squared_outside_radius,
    refined_rows,
)

__all__ = [
    "AnalyticityReport",
    "BadMassReport",
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
    "polydisc_sups",
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
# blocks of at most _SERIES_BLOCK terms, and certifies once the omitted tails
# stay within exp(_LOG_SERIES_REL_TAIL) of the sum: at 2^-53, the unit
# roundoff of a double, they stay below the rounding error of the sum itself
_SERIES_WINDOW_SIGMAS = 40.0
_SERIES_BLOCK = 1 << 16
_LOG_SERIES_REL_TAIL = math.log(2.0**-53)

# Constants of the method, not of the audited statement: the classifier
# checks the ball condition for m <= M_CAP and certifies the orders past it by
# the global bound (tail_condition_order), and pointwise_witness scans each
# good ball on WITNESS_GRID points, then on 4 * WITNESS_GRID.
M_CAP = 24
WITNESS_GRID = 1024


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

    def log_q(self, m: int) -> float:
        return 2.0 * m * math.log(self.tilde_d2) + self.s * log_factorial(m)

    @cached_property
    def order_terms(self) -> tuple:
        """(log q_m, log m!) for m <= M_CAP, shared by every ball's tests."""
        return tuple((self.log_q(m), log_factorial(m)) for m in range(M_CAP + 1))


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
    for m <= M_CAP.

    mass_rules and derivative_rules are the ball's (coarse, fine) pairs of
    ball_norms_squared for f and for derivative_stack(f, M_CAP), as
    classify_balls computes them; derivative_rules is None for a degenerate
    ball. The mass refinement is checked first, then the degenerate
    threshold, then the refinement of each order. Quadrature noise guard:
    the derivative masses only matter on the scale of the right-hand side,
    so the check of order m runs with that floor.
    """
    mass_sq = _ball_mass(f, mass_rules)
    if _degenerate(f, mass_sq):
        return GoodBallResult(True, None, True, mass_sq, ())
    log_mass = math.log(mass_sq)
    log_prefactor = math.log(2.0 * cfg.kappa / cfg.eps)
    log_rhs = [
        log_prefactor + (m + 1) * _LOG2 + 2.0 * log_q - log_fact + log_mass
        for m, (log_q, log_fact) in enumerate(cfg.order_terms)
    ]
    floors = [math.exp(min(rhs - 23.0, 700.0)) for rhs in log_rhs]
    norms_sq = refined_rows(*derivative_rules, floors, "weighted_norm")
    margins = []
    failing = None
    for m, (rhs, sq, (_, log_fact)) in enumerate(zip(log_rhs, norms_sq, cfg.order_terms)):
        w = math.sqrt(max(sq, 0.0))
        log_lhs = 2.0 * _log(w) - log_fact
        margins.append(rhs - log_lhs)
        if failing is None and log_lhs > rhs:
            failing = m
    return GoodBallResult(failing is None, failing, False, mass_sq, tuple(margins))


def classify_balls(
    f: SpectralFunction,
    balls,
    cfg: ClassifierConfig,
    derivatives: np.ndarray,
    rules: dict | None = None,
) -> list:
    """good_ball_test on each ball, in order. derivatives is
    derivative_stack(f, M_CAP).

    Each quadrature rule runs once: the mass rules over all the balls, by
    the Clenshaw recurrence of f, then the derivative rules over the
    non-degenerate ones, each node's M_CAP + 1 values from its one scaled
    basis vector (hermite._stack_scaled). Every refinement check runs in
    good_ball_test, ball by ball, so the checks, and the first that fails,
    are those of classifying the balls one at a time.

    rules: a dict of the balls' quadrature pairs from earlier calls with the
    same f, derivatives and cfg.delta, keyed by Ball. Only the balls it
    lacks are batched, and they are added to it; a batched pair is bit for
    bit that of the ball alone, so the results are those of rules=None.
    """
    rules = {} if rules is None else rules
    new = [ball for ball in dict.fromkeys(balls) if ball not in rules]
    masses = ball_norms_squared(f.coeffs[None], new, 0.0)
    live = [k for k, (_, (fine,)) in enumerate(masses) if not _degenerate(f, max(fine, 0.0))]
    norms = dict(zip(live, ball_norms_squared(derivatives, [new[k] for k in live], cfg.delta)))
    for k, ball in enumerate(new):
        rules[ball] = (masses[k], norms.get(k))
    return [good_ball_test(f, cfg, *rules[ball]) for ball in balls]


def tail_condition_order(cfg: ClassifierConfig, d1: float, mass_sq: float) -> int:
    """Least order from which the global bound implies the ball condition.

    For m with 2^(m+1) >= eps D1^2 / (2 kappa mass) the classifier inequality
    follows from ||w^m d^beta f|| <= D1 q_m, so orders beyond the cap are
    certified whenever this kicks in by M_CAP + 1.
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
    # per ball tail_condition_order, and whether it is <= M_CAP + 1; None if bad or degenerate
    tail_orders: tuple
    tail_certified: tuple

    @property
    def total(self) -> float:
        return self.bad_mass + self.uncertified_good_mass + self.q0_mass_upper


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
            cert = order <= M_CAP + 1
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
    nearest = max(0.0, abs(ball.center) - ball.radius)
    return -cfg.delta * math.log1p(nearest * nearest)


def _log_abs_derivatives_at(stack: np.ndarray, points: np.ndarray) -> np.ndarray:
    # row m: log |d^m f| at the points, from one scaled basis per point
    vals = _stack_scaled(stack, points) * np.exp(-0.5 * points**2)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals))


@dataclass(frozen=True)
class WitnessResult:
    x_k: float
    verified: bool
    refined: bool


def pointwise_witness(
    ball: Ball,
    cfg: ClassifierConfig,
    mass_sq: float,
    derivatives: np.ndarray,
    scans: dict,
) -> WitnessResult:
    """Search the ball for a point satisfying the pointwise derivative bounds.

    The bound at order m reads |d^m f(x)| <= (2 kappa/eps)^(1/2) 2^(m+1)
    C^(1/2) ||f||_Q / |Q|^(1/2) with C = q_m^2 sup_Q w^(-2m). A good
    ball must contain such a point; the scan of WITNESS_GRID points is refined
    once, to 4 * WITNESS_GRID, before reporting failure. mass_sq is the
    ball's mass ||f||^2_Q and derivatives is derivative_stack(f, M_CAP).
    The log bounds read eps, kappa and the mass only through the constant
    base = 0.5 log(2 kappa/eps) + 0.5 log ||f||^2_Q - 0.5 log |Q|. scans
    holds, by (ball, number of points), a scan's best point and its margin
    minus base, from calls with these derivatives and cfg's delta and order
    terms; the ball's are read or added.
    """
    if not mass_sq > 0:
        raise ValueError("pointwise witness needs positive ball mass")
    base = (
        0.5 * math.log(2.0 * cfg.kappa / cfg.eps)
        + 0.5 * math.log(mass_sq)
        - 0.5 * math.log(ball.volume)
    )

    def scan(n: int) -> tuple:
        if (ball, n) not in scans:
            log_w_neg = _log_w_inf_neg(ball, cfg)
            grid = np.linspace(*ball.interval(), n)
            logs = _log_abs_derivatives_at(derivatives, grid)
            worst = np.full(n, np.inf)
            for m, (log_q, _) in enumerate(cfg.order_terms):
                worst = np.minimum(worst, (m + 1) * _LOG2 + log_q + 0.5 * m * log_w_neg - logs[m])
            best = int(np.argmax(worst))
            if math.isnan(worst[best]):
                # argmax picks a NaN wherever there is one
                raise NumericalError("pointwise witness: a derivative evaluated to NaN")
            scans[ball, n] = (float(grid[best]), float(worst[best]))
        point, value = scans[ball, n]
        return point, base + value

    point, margin = scan(WITNESS_GRID)
    refined = margin < 0.0
    if refined:
        point, margin = scan(4 * WITNESS_GRID)
    return WitnessResult(point, margin >= 0.0, refined)


# ---------------------------------------------------------------------------
# polydisc sup: brute force and closed-form bound


def _log_abs_analytic(f: SpectralFunction, z: np.ndarray) -> np.ndarray:
    # log |F(z)| on complex points; the Gaussian factor is applied in logs so
    # large imaginary parts cannot overflow.
    vals = _clenshaw_scaled(f.coeffs, z)
    gauss = 0.5 * (z.imag**2 - z.real**2)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(vals)) + gauss


def _fold_max(f: SpectralFunction, best: np.ndarray, total: int, points) -> None:
    # log |F| of the samples lo..hi-1, points(lo, hi) = (z, owner), into
    # best[owner], for 0..total-1 in blocks of _BLOCK. A NaN would vanish
    # from a later max, so it raises
    for lo in range(0, total, _BLOCK):
        z, owner = points(lo, min(lo + _BLOCK, total))
        with np.errstate(invalid="ignore"):
            np.maximum.at(best, owner, _log_abs_analytic(f, z))
    if np.isnan(best).any():
        raise NumericalError("polydisc sup: the analytic extension evaluated to NaN")


def _round_maxima(f: SpectralFunction, discs, n_q: int, n_phi: int) -> np.ndarray:
    # max log |F| over the round's samples of each (ball, rho8) of discs, by
    # 3 (n_q + 1) rows a disc: its real points q, then the circles of radius
    # rho8 and rho8 / 2 around them at the angles 2 pi j / n_phi, j <= n_phi/2
    # (mirrors give the same bits). Below _BLOCK / 2 points pruning costs more
    half = n_phi // 2
    arc = np.exp(1j * (2.0 * math.pi * np.arange(half + 1) / n_phi))
    q = np.tile([np.append(np.linspace(*ball.interval(), n_q), ball.center) for ball, _ in discs], 3).ravel()
    r = np.repeat([(0.0, rho8 * 1.0, rho8 * 0.5) for _, rho8 in discs], n_q + 1, axis=1).ravel()
    owner = np.repeat(np.arange(len(discs)), 3 * (n_q + 1))
    circle, best = r > 0.0, np.full(len(discs), -math.inf)

    def fold(lo_j, counts):
        ends = np.cumsum(counts)

        def points(lo, hi):
            k = np.arange(lo, hi)
            row = np.searchsorted(ends, k, side="right")
            z = q[row] + r[row] * arc[lo_j[row] + k - (ends[row] - counts[row])]
            return np.where(circle[row], z, q[row]), owner[row]

        _fold_max(f, best, int(ends[-1]), points)

    if len(discs) * (n_q + 1) * (2 * half + 3) <= _BLOCK // 2:
        fold(np.zeros(len(q), dtype=np.intp), np.where(circle, half + 1, 1))
        return best
    # seeds: the real points and each circle's peak of the bound, at
    # c = cos(phi) = -q / (2 r); then each circle's window of c where
    # bound + margin >= best
    qc, rc, to_j = q[circle], r[circle], n_phi / (2.0 * math.pi)
    lo_j = np.zeros(len(q), dtype=np.intp)
    lo_j[circle] = np.rint(np.arccos(np.clip(-qc / (2.0 * rc), -1.0, 1.0)) * to_j)
    fold(lo_j, np.ones(len(q), dtype=np.intp))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_m = np.log(majorant(f.coeffs, np.abs(qc) + rc))
        margin = 1e-9 * (1.0 + np.abs(log_m) + qc * qc + rc * rc)
        disc = qc * qc + 4.0 * (log_m + 0.5 * (rc * rc - qc * qc) + margin - best[owner[circle]])
        root = np.sqrt(np.maximum(disc, 0.0))
        c_lo, c_hi = (-qc - root) / (2.0 * rc), (-qc + root) / (2.0 * rc)
        j_lo = np.floor(np.arccos(np.clip(c_hi, -1.0, 1.0)) * to_j)
        j_hi = np.minimum(np.ceil(np.arccos(np.clip(c_lo, -1.0, 1.0)) * to_j), half)
    whole, hit = ~np.isfinite(disc), (disc >= 0.0) & (c_lo <= 1.0) & (c_hi >= -1.0)
    counts = np.zeros(len(q), dtype=np.intp)
    lo_j[circle] = np.where(whole, 0, j_lo)
    counts[circle] = np.where(whole, half + 1, np.where(hit, j_hi - j_lo + 1, 0))
    fold(lo_j, counts)
    return best


@dataclass(frozen=True)
class PolydiscSup:
    log_m: float
    n_samples: int
    rounds: int
    converged: bool


def polydisc_sups(f: SpectralFunction, items) -> list:
    """mk_bruteforce of each (ball, rho_k, norm_sq) of items, bit for bit:
    the items stay in step, each round one pass over all the live items'
    samples, and an item leaves once it converges. Large rounds are pruned
    (see the module docstring)."""
    items = list(items)
    if not all(norm_sq > 0 for _, _, norm_sq in items):
        raise ValueError("polydisc sup needs positive mass on the ball")
    out, log_sup = [None] * len(items), [-math.inf] * len(items)
    live, n_q, n_phi = list(range(len(items))), 24, 48
    for rounds in range(1, 6):
        if not live:
            break
        n_samples = (n_q + 1) * (2 * n_phi + 1)
        new = _round_maxima(f, [(items[i][0], 8.0 * items[i][1]) for i in live], n_q, n_phi)
        for i, value in zip(live, new.tolist()):
            converged = rounds > 1 and abs(value - log_sup[i]) <= math.log1p(0.01)
            log_sup[i] = max(log_sup[i], value)
            if converged or rounds == 5:
                ball, _, norm_sq = items[i]
                log_m = 0.5 * math.log(ball.volume) - 0.5 * math.log(norm_sq) + log_sup[i]
                out[i] = PolydiscSup(max(log_m, 0.0), n_samples, rounds, converged)
        live = [i for i in live if out[i] is None]
        n_q, n_phi = 2 * n_q, 2 * n_phi
    return out


def mk_bruteforce(f: SpectralFunction, ball: Ball, rho_k: float, norm_sq: float) -> PolydiscSup:
    """Normalized sup of the analytic extension over Q + D(0, 8 rho_k).

    Samples the distinguished boundary (radius 8 rho_k around each real base
    point) plus interior slices, doubling the sampling density until the
    result moves by less than a relative 0.01, for at most five rounds. The
    sup is normalized by the ball's mass norm_sq = ||f||^2_Q and by
    |Q| = ball.volume, and clamped to M >= 1 as in the defining lemma.
    n_samples counts the sample set, n_q + 1 real points and two circles of
    n_phi angles around each, symmetric under conjugation; of its upper half
    (|F(conj z)| = |F(z)| bit for bit) only what the majorant cannot rule
    out is evaluated, as in polydisc_sups.
    """
    return polydisc_sups(f, [(ball, rho_k, norm_sq)])[0]


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
    return m * log_d - one_ms * log_factorial(m)


def _log_series_sum(lo: int, hi: int, log_d: float, one_ms: float) -> float:
    """log sum_{m=lo}^{hi} D^m/(m!)^(1-s): the logsumexp of the logsumexps of
    blocks of at most _SERIES_BLOCK terms, so that memory stays small."""
    return logsumexp(
        [
            logsumexp(_log_series_term(np.arange(start, min(start + _SERIES_BLOCK, hi + 1)), log_d, one_ms))
            for start in range(lo, hi + 1, _SERIES_BLOCK)
        ]
    )


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
    sigma = sqrt(max(m*, 1)/(1-s)), is summed, in log space and in blocks
    of at most 64Ki terms. Right of the window [lo, hi] the terms shrink at
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
    m_star = _exp(log_d / one_ms)
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
    power = _exp(math.log(2.0 * D) / one_ms)
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


def mk_bound(cfg: ClassifierConfig, profile) -> MkBound:
    """Closed-form bound on log M_k, plus the sharper series intermediate.

    D = 40 tilde_D2^2 R max{r0, (1-eta)^(-1)}; the uniform bound is
    log 4 + (1/2) log(2 kappa/eps) + 3 (2D)^(2/(1-s)). The intermediate bound
    2 (2 kappa/eps)^(1/2) sum_m D^m/(m!)^(1-s) is reported whenever the
    series is certifiable within SERIES_TERM_CAP terms.
    """
    d_value = (
        40.0
        * cfg.tilde_d2**2
        * profile.R
        * max(profile.r0, 1.0 / (1.0 - profile.eta))
    )
    half_log = 0.5 * math.log(2.0 * cfg.kappa / cfg.eps)
    power = _exp((2.0 / (1.0 - cfg.s)) * math.log(2.0 * d_value))
    log_bound = math.log(4.0) + half_log + 3.0 * power
    series = None
    log_intermediate = None
    if d_value >= 0.5 and _exp(math.log(d_value) / (1.0 - cfg.s)) <= 0.9 * SERIES_TERM_CAP:
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


def local_estimate_check(
    ball: Ball,
    pieces,
    log_m_k: float,
    mass_sq: float,
    inter_sq: float,
) -> LocalEstimateReport:
    """Check (48 |Q|/|Q cap omega|)^(1+4 log M/log 2) ||f||^2_{Q cap omega} >= ||f||^2_Q.

    pieces are the intervals of Q cap omega, mass_sq is the ball's mass
    ||f||^2_Q and inter_sq the mass ||f||^2_{Q cap omega} on the pieces;
    the comparison runs in log space since the exponent is typically in the
    thousands.
    """
    if log_m_k < -1e-12:
        raise ValueError("log M_k must be nonnegative (M_k >= 1)")
    measure = sum(hi - lo for lo, hi in pieces)
    if measure <= 0.0:
        return LocalEstimateReport(False, -math.inf, -math.inf, 0.0, 0.0, math.inf, math.inf)
    base = 48.0 * ball.volume / measure  # 24 d 2^d = 48 in dimension 1
    exponent = 1.0 + 4.0 * max(log_m_k, 0.0) / _LOG2
    log_lhs = exponent * math.log(base) + _log(inter_sq)
    return LocalEstimateReport(True, log_lhs, _log(mass_sq), measure, inter_sq, base, exponent)


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
        cap = c1 * c2**b * math.exp(log_factorial(b))
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
        partial = partial + coeff / math.exp(log_factorial(b)) * offsets**b
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
