"""End-to-end audits of the uncertainty principles with error term.

verify_uncertainty runs the full proof pipeline on a concrete instance
(f, omega, eps): localize the mass of f to a ball, cover it, classify the
covering into good and bad balls, then, in one pass over the certified good
balls, find a pointwise witness, bound the analytic-extension sup and apply
the local estimate on each, and sum with the covering overlap. Every
inequality along the way is audited with both its measured sides and the
closed-form constants; the report records each step, the pipeline's
provable constant in the formal-chain step, and next to them the smallest
constant that actually works for the instance. STEPS declares every step
once, with the slack of its inequality, and a step's verdict is derived from
the two log sides it records, so it is exactly the margin the report shows.
A report's JSON form is derived from its fields by _jsonable.

verify_uncertainty_decay does the same for sensor sets whose density decays
polynomially, with per-ball density floors and the squared-log constant.
Every failure aborts with the violated step identified: the underlying
statements are theorems, so a red inequality means an invalid certificate
or a bug, never a counterexample.

k_effective_sweep audits one f, with its bound and radius profile, on a
list of cases of either kind, one after another in case order. The sensor
enters the proof only at the density premise and the local estimates, so the
sweep keeps one store of sensor-free stages: the first case to reach a stage
computes it, and the later cases reuse it. The premise, the derivative
stack, each ball's mass and derivative quadratures, witness scans (two
floats each, see pointwise_witness) and polydisc sup at a given rho_k read
no eps and are computed once per sweep, the sups a case lacks in one batch
after its witnesses. The tail, covering, classification, bad mass and
polydisc bound read eps and are keyed on it, so they are computed once per eps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .geometry import (
    DENSITY_SLACK,
    OVERLAP_CAP,
    FullSpaceSensorSet,
    RadiusProfile,
    besicovitch_cover,
    certify_density,
    density_threshold,
    sensor_id,
)
from .hermite import (
    NumericalError,
    PipelineError,
    SpectralFunction,
    _LOG2,
    _exp,
    _log,
    effective_support_radius,
    log_factorial,
    norm_squared_on_interval_lists,
    weighted_norm,
)
from .local_estimates import (
    ClassifierConfig,
    bad_mass_bound,
    classify_balls,
    derivative_stack,
    local_estimate_check,
    mk_bound,
    pointwise_witness,
    polydisc_sups,
)
from .semigroup import GSBound, delta_weight_transfer, tail_mass_check

__all__ = [
    "BallAudit",
    "PipelineError",
    "STEPS",
    "StepRecord",
    "UncertaintyReport",
    "k_effective_spread",
    "k_effective_sweep",
    "verify_uncertainty",
    "verify_uncertainty_decay",
]

def _jsonable(x):
    """x as JSON data: a non-finite float becomes a string, a numpy scalar a
    Python one, a tuple a list, and a dataclass the dict of its fields. The
    common scalar and container cases are tested first, as they make up most
    of a report."""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(float(x)) if isinstance(x, np.floating) else int(x)
    if is_dataclass(x):
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    return x


# Every step of the pipeline, in the order a passing run records them, with
# the slack of its inequality log_lhs <= log_rhs + slack; None marks a
# condition step, which records no sides. center-norm-bound runs for a
# decaying density only. The slacks absorb rounding, and the premise's
# quadrature noise on the fractional-weight route.
STEPS = {
    "admissibility": None,
    "premise": 1e-7,
    "tail": 0.0,
    "covering": None,
    "center-norm-bound": 1e-12,
    "density": None,
    "classification": None,
    "bad-mass": 1e-12,
    "decomposition": 1e-8,
    "witness": None,
    "mk-bound": 1e-9,
    "local-estimate": 1e-9,
    "overlap-sum": 1e-9,
    "measured-chain": 1e-9,
    "formal-chain": 1e-9,
}


@dataclass(frozen=True)
class StepRecord:
    """One audited step: passed is its condition and, where it records sides,
    log_lhs <= log_rhs + STEPS[name]; a NaN side fails it."""

    name: str
    passed: bool
    log_lhs: float | None = None
    log_rhs: float | None = None
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BallAudit:
    """What one non-degenerate covering ball measured: its classification,
    and for a certified good ball its witness, polydisc sup and local
    estimate. The case-level bounds these are checked against sit in the
    steps."""

    k: int
    center: float
    radius: float
    is_good: bool
    failing_m: int | None
    mass_sq: float
    tail_certified: bool | None
    tail_order: int | None
    x_k: float | None = None
    witness_verified: bool | None = None
    witness_refined: bool | None = None
    log_mk_bruteforce: float | None = None
    mk_converged: bool | None = None
    log_local_lhs: float | None = None
    log_local_rhs: float | None = None
    local_applicable: bool | None = None


@dataclass(frozen=True)
class UncertaintyReport:
    """One audited instance; its fields are the keys of its JSON form. Every
    value an audited inequality reads sits in its step's sides or detail."""

    kind: str  # "uncertainty" or "uncertainty-decay"
    f_id: str
    omega_id: str
    eps: float
    gamma: tuple  # ("constant", g) or ("decaying", gamma0, a)
    profile: RadiusProfile
    bound: dict
    ball_audits: tuple  # BallAudit per non-degenerate ball, in k order
    steps: tuple
    k_effective: float | None


def _masses_on_sensor(f: SpectralFunction, omega, balls) -> tuple:
    """The intervals of Q cap omega for each ball Q, ||f||^2 on each of them,
    and ||f||^2 on omega, in one quadrature pass; each mass is bit for bit
    norm_squared_on_intervals on its intervals (omega enters clipped to the
    effective support, where the quadrature clips)."""
    full = isinstance(omega, FullSpaceSensorSet)
    lists = [omega.intersect_interval(*ball.interval()) for ball in balls]
    radius = effective_support_radius(f)
    lists.append([] if full else omega.intersect_interval(-radius, radius))
    *inter, on_omega = norm_squared_on_interval_lists(f, lists)
    return lists[:-1], inter, f.norm_squared() if full else on_omega


def _premise_check(f, bound, tilde, delta):
    """The worst log-margin of the declared derivative bounds over a small
    (n, beta) grid, and where it sits. The integer-weight norms are exact
    ladder sums up to rounding; quadrature noise enters only on the
    fractional route of a profile delta in (0, 1)."""
    routes = [(1.0, bound)]
    if delta != 1.0:
        routes.append((delta, tilde))
    worst = math.inf
    worst_at = None
    for n in range(3):
        for b in range(3):
            for weight, gs in routes:
                measured = weighted_norm(f, n=n, beta=b, weight_delta=weight)
                margin = gs.log_value(n, b) - _log(measured)
                if margin < worst:
                    worst, worst_at = margin, (n, b, weight)
    return worst, worst_at


def _first_false_order(f, bound, exponent: str):
    """The first order n <= 10^4 at which |c_d| sqrt((d+n)!/d!) 2^(-n/2), a
    lower bound on ||x^n f|| ("nu") and on ||d^n f|| ("mu") from the top
    coefficient c_d of f alone, exceeds the declared bound; None if none
    does. It outgrows D1 D2^n (n!)^e for every e < 1/2."""
    d = int(np.flatnonzero(f.coeffs)[-1])
    n = np.arange(1, 10**4 + 1)
    lower = math.log(abs(f.coeffs[d])) + 0.5 * (log_factorial(d + n) - log_factorial(d) - n * _LOG2)
    declared = bound.log_value(n, 0) if exponent == "nu" else bound.log_value(0, n)
    hit = np.flatnonzero(lower > declared)
    return int(n[hit[0]]) if hit.size else None


def _run_pipeline(
    f: SpectralFunction,
    bound: GSBound,
    profile: RadiusProfile,
    omega,
    gamma_spec: tuple,
    eps: float,
    f_id: str,
    shared: dict | None,
) -> UncertaintyReport:
    steps = []
    shared = {} if shared is None else shared
    decaying = gamma_spec[0] == "decaying"

    def once(key, compute):
        # a sensor-free value: computed by the first case of the sweep that
        # gets this far, reused by the later cases; the key of a value that
        # reads eps holds eps
        if key not in shared:
            shared[key] = compute()
        return shared[key]

    def record(name, ok=True, log_lhs=None, log_rhs=None, **detail):
        passed = ok and (log_lhs is None or log_lhs <= log_rhs + STEPS[name])
        steps.append(StepRecord(name, passed, log_lhs, log_rhs, detail))
        if not passed:
            raise PipelineError(name, f"audit failed with detail {detail}")

    # admissibility of the instance
    if not 0.0 < eps <= 1.0:
        raise PipelineError("admissibility", "eps must lie in (0, 1]")
    tilde = delta_weight_transfer(bound, profile.delta)
    s = tilde.s
    if not s < 1.0:
        raise PipelineError("admissibility", f"s = delta nu + mu = {s} must be below 1")
    if not decaying and not 0.0 < gamma_spec[1] <= 1.0:
        raise PipelineError("admissibility", "gamma must lie in (0, 1]")
    if decaying and (not 0.0 < gamma_spec[1] <= 1.0 or gamma_spec[2] < 0.0):
        raise PipelineError("admissibility", "need gamma0 in (0, 1] and a >= 0")
    record("admissibility")

    # the declared derivative bounds must actually majorize f; no nonzero
    # expansion meets an exponent below 1/2
    for exponent, value in (("nu", bound.nu), ("mu", bound.mu)):
        if value < 0.5 and f.coeffs.any():
            first = _first_false_order(f, bound, exponent)
            record("premise", False, exponent=exponent, value=value, first_false_order=first)
    worst_margin, worst_at = once("premise", lambda: _premise_check(f, bound, tilde, profile.delta))
    record(
        "premise", log_lhs=-worst_margin, log_rhs=0.0, worst_margin=worst_margin, worst_at=worst_at
    )

    # localization: mass outside B(0, r) fits in half the error budget
    tail = once(("tail", eps), lambda: tail_mass_check(f, bound, eps))
    record(
        "tail",
        log_lhs=_log(tail.tail_mass),
        log_rhs=math.log(tail.budget),
        r=tail.r,
        tail_mass=tail.tail_mass,
        budget=tail.budget,
    )

    covering = once(("covering", eps), lambda: besicovitch_cover(profile, tail.r))
    balls = covering.balls()
    kappa = covering.kappa_measured
    summary = {
        "n_balls": len(balls),
        "kappa": kappa,
        "target_radius": covering.target_radius,
        "uncovered_measure": covering.uncovered_measure,
    }
    record("covering", covering.uncovered_measure == 0.0 and kappa <= OVERLAP_CAP, **summary)

    if decaying:
        # per-center norm bound from the proof: 1 + |y_k|^a is controlled by
        # the localization radius uniformly over the covering
        _, _, a = gamma_spec
        lhs = max(1.0 + abs(c) ** a for c in covering.centers)
        rhs = (
            2.0 ** (1.0 + a)
            * profile.r0**a
            * (1.0 - profile.eta) ** (-a)
            * tail.r**a
        )
        record("center-norm-bound", log_lhs=math.log(lhs), log_rhs=math.log(rhs))

    gamma_arg = gamma_spec[1:] if decaying else gamma_spec[1]
    density = certify_density(
        omega, profile, gamma_arg, covering.target_radius, sample_centers=covering.centers
    )
    record(
        "density",
        density.n_violations == 0,
        min_ratio=density.min_ratio,
        threshold=density.threshold,
        n_violations=density.n_violations,
    )
    gamma_floor, _ = density_threshold(gamma_arg)

    # classification; bad balls and the uncovered remainder fit in the
    # error budget
    cfg = ClassifierConfig(eps=eps, kappa=kappa, tilde_d2=tilde.D2, s=s, delta=profile.delta)
    derivs = once("derivatives", lambda: derivative_stack(f, cfg.m_cap))
    results = once(
        ("classification", eps),
        lambda: classify_balls(f, balls, cfg, derivs, rules=shared.setdefault("ball-rules", {})),
    )
    bad_report = once(
        ("bad-mass", eps), lambda: bad_mass_bound(f, covering, cfg, tilde, results=results)
    )
    audits = {
        k: BallAudit(
            k=k,
            center=ball.center,
            radius=ball.radius,
            is_good=res.is_good,
            failing_m=res.failing_m,
            mass_sq=res.mass_sq,
            tail_certified=bad_report.tail_certified[k],
            tail_order=bad_report.tail_orders[k],
        )
        for k, (ball, res) in enumerate(zip(balls, results))
        if not res.degenerate
    }
    # the certified good balls; an uncertified ball's tail condition is
    # unknown beyond the classifier cap, and its mass already sits in the eps budget
    active = [a for a in audits.values() if a.tail_certified]
    record(
        "classification",
        n_good=len(active),
        n_uncertified=bad_report.n_uncertified,
        n_bad=bad_report.n_bad,
        n_degenerate=bad_report.n_degenerate,
    )
    record(
        "bad-mass",
        log_lhs=_log(bad_report.total),
        log_rhs=math.log(bad_report.budget),
        bad_mass=bad_report.bad_mass,
        uncertified_good_mass=bad_report.uncertified_good_mass,
        q0_mass_upper=bad_report.q0_mass_upper,
        n_uncertified=bad_report.n_uncertified,
    )

    total_mass = f.norm_squared()
    good_mass = sum(a.mass_sq for a in active)
    deg_mass = sum((res.mass_sq for res in results if res.degenerate), 0.0)
    # bad_report.total = bad + uncertified-good + outside-mass, all inside the
    # eps budget; certified good balls and degenerate slop carry the rest
    covered = good_mass + deg_mass + bad_report.total
    record(
        "decomposition",
        log_lhs=_log(total_mass),
        log_rhs=_log(covered),
        covered_mass=covered,
        total_mass=total_mass,
        good_mass=good_mass,
        degenerate_mass=deg_mass,
    )

    # the certified good balls: a pass of witnesses, one batch of
    # analytic-extension sups, and a pass of local estimates; the failures
    # are raised after them, step by step, each naming its first ball
    ub = once(("mk-bound", eps), lambda: mk_bound(cfg, profile))
    log_mk_reference = ub.log_bound if ub.log_intermediate is None else ub.log_intermediate
    scans = shared.setdefault("witness-scans", {})
    pieces, inter_masses, omega_mass = _masses_on_sensor(f, omega, [balls[a.k] for a in active])
    unwitnessed, unconverged, missed, witnessed = [], [], [], []
    gamma_floors, log_measured_factors = [], []
    for audit, cut, inter_sq in zip(active, pieces, inter_masses):
        ball = balls[audit.k]
        gamma_floors.append(float(gamma_floor(abs(ball.center))))
        wit = pointwise_witness(ball, cfg, audit.mass_sq, derivs, scans)
        audits[audit.k] = replace(
            audit, x_k=wit.x_k, witness_verified=wit.verified, witness_refined=wit.refined
        )
        if not wit.verified:
            unwitnessed.append(audit.k)
            continue
        key = ("mk-bruteforce", ball, float(profile.rho(wit.x_k)))
        witnessed.append((audit, cut, inter_sq, gamma_floors[-1], key))
    # the polydisc sups the store lacks, in one batch: x_k reads no sup
    todo = {key: key[1:] + (audit.mass_sq,) for audit, *_, key in witnessed if key not in shared}
    shared.update(zip(todo, polydisc_sups(f, list(todo.values()))))
    worst_mk, worst_local, worst_ball_density = -math.inf, math.inf, math.inf
    sum_inter = 0.0
    for audit, cut, inter_sq, floor, key in witnessed:
        ball, brute = balls[audit.k], shared[key]
        local = local_estimate_check(ball, cut, brute.log_m, audit.mass_sq, inter_sq)
        audits[audit.k] = replace(
            audits[audit.k],
            log_mk_bruteforce=brute.log_m,
            mk_converged=brute.converged,
            log_local_lhs=local.log_lhs,
            log_local_rhs=local.log_rhs,
            local_applicable=local.applicable,
        )
        if not brute.converged:
            unconverged.append(audit.k)
        worst_mk = max(worst_mk, brute.log_m - log_mk_reference)
        if not local.applicable:
            missed.append(audit.k)
            continue
        worst_local = min(worst_local, local.log_lhs - local.log_rhs)
        sum_inter += local.intersection_mass_sq
        worst_ball_density = min(worst_ball_density, local.intersection_measure / ball.volume - floor)
        log_measured_factors.append(local.exponent * math.log(local.base))
    record("witness", not unwitnessed, n_checked=len(active), unwitnessed_balls=unwitnessed)

    if unconverged:
        raise NumericalError(f"polydisc sampling did not stabilize on ball {unconverged[0]}")
    series = ub.series
    if series and series.remainder_certified and not (
        series.log_sum <= series.log_bound + STEPS["mk-bound"]
    ):
        raise PipelineError("mk-bound", "certified series sum exceeds its proved bound")
    record(
        "mk-bound",
        log_lhs=worst_mk,
        log_rhs=0.0,
        log_mk_uniform_bound=ub.log_bound,
        log_mk_series_bound=ub.log_intermediate,
        d_value=ub.d_value,
        exponent_overflow=ub.exponent_overflow,
    )

    if missed:
        raise PipelineError(
            "local-estimate", f"ball {missed[0]} does not meet omega (density violation)"
        )
    record(
        "local-estimate",
        worst_ball_density >= -DENSITY_SLACK,
        log_lhs=-worst_local if active else None,
        log_rhs=0.0,
        n_checked=len(active),
        worst_ball_density_margin=worst_ball_density,
    )

    # summation with overlap kappa
    record(
        "overlap-sum",
        log_lhs=_log(sum_inter),
        log_rhs=_log(kappa * omega_mass),
        sum_good_intersections=sum_inter,
        omega_mass=omega_mass,
        kappa=kappa,
    )

    error_term = eps * bound.D1**2
    dominated = total_mass <= error_term * (1.0 + 1e-12)
    log_main = -math.inf if dominated else math.log(total_mass - error_term)

    # measured chain: ||f||^2 - eps D1^2 <= max_k(base^exp) kappa ||f||^2_omega
    # plus the degenerate slop
    log_chain = max(log_measured_factors, default=-math.inf) + math.log(kappa)
    log_chain_rhs = float(np.logaddexp(log_chain + _log(omega_mass), _log(deg_mass)))
    record(
        "measured-chain",
        log_lhs=log_main,
        log_rhs=log_chain_rhs,
        error_term=error_term,
        error_term_dominated=dominated,
    )

    # formal chain with the closed-form constants
    arg = (2.0 / (1.0 - s)) * math.log(2.0 * ub.d_value)
    power = _exp(arg)
    exponent_formal = 9.0 + (2.0 / _LOG2) * math.log(2.0 * kappa / eps) + (12.0 / _LOG2) * power
    gamma_min = min(gamma_floors, default=float(gamma_floor(covering.target_radius)))
    log_formal_factor = exponent_formal * math.log(48.0 / gamma_min) + math.log(kappa)
    log_rhs_formal = float(np.logaddexp(log_formal_factor + _log(omega_mass), _log(error_term)))
    d2_power = _exp((4.0 / (1.0 - s)) * math.log(bound.D2))
    bracket = 1.0 + math.log(1.0 / eps) + d2_power
    denom = bracket**2 if decaying else bracket
    record(
        "formal-chain",
        log_lhs=_log(total_mass),
        log_rhs=log_rhs_formal,
        k_formal=log_formal_factor / denom,
        exponent_formal=exponent_formal,
        bracket=bracket,
    )

    if dominated or omega_mass <= 0:
        k_effective = None
    else:
        k_effective = (log_main - math.log(omega_mass)) / denom

    return UncertaintyReport(
        kind="uncertainty-decay" if decaying else "uncertainty",
        f_id=f_id,
        omega_id=sensor_id(omega),
        eps=eps,
        gamma=gamma_spec,
        profile=profile,
        bound={**asdict(bound), "tilde_D2": tilde.D2, "s": s},
        ball_audits=tuple(audits.values()),
        steps=tuple(steps),
        k_effective=k_effective,
    )


def verify_uncertainty(
    f: SpectralFunction,
    bound: GSBound,
    profile: RadiusProfile,
    omega,
    gamma: float,
    eps: float,
    f_id: str = "f",
    shared: dict | None = None,
) -> UncertaintyReport:
    """Audit the constant-density uncertainty principle on one instance.

    Runs tail localization, covering, good/bad classification, witnesses,
    polydisc sups, local estimates, and the overlap summation; each audited
    inequality becomes a step record. Raises PipelineError naming the failed
    step if any inequality breaks; with valid certificates that indicates a
    bug, since every step is a proved statement.

    shared: a dict holding the sensor-free stages of earlier calls with the
    same f, bound and profile, at any eps (the stages that read eps are keyed
    on it); the stages this call computes first are added to it. None
    computes every stage.
    """
    return _run_pipeline(
        f, bound, profile, omega, ("constant", float(gamma)), eps, f_id=f_id, shared=shared
    )


def verify_uncertainty_decay(
    f: SpectralFunction,
    bound: GSBound,
    profile: RadiusProfile,
    omega,
    gamma0: float,
    a: float,
    eps: float,
    f_id: str = "f",
    shared: dict | None = None,
) -> UncertaintyReport:
    """Audit the variant with polynomially decaying density gamma0/(1+|x|^a).

    Adds the per-center norm bound check and applies the per-ball density
    floor in the local-estimate base; the reported constant divides by the
    squared bracket (1 + log(1/eps) + D2^(4/(1-s)))^2. a = 0 degenerates to
    the constant-density audit at level gamma0/2. shared is as in
    verify_uncertainty.
    """
    return _run_pipeline(
        f, bound, profile, omega, ("decaying", float(gamma0), float(a)), eps,
        f_id=f_id, shared=shared,
    )


def _sweep_row(report: UncertaintyReport) -> dict:
    k_eff = report.k_effective
    detail = {step.name: step.detail for step in report.steps}
    if report.kind == "uncertainty":
        norm = 1.0 + math.log(1.0 / report.eps)
        density = {
            "gamma": report.gamma[1],
            "k_effective": k_eff,
            "k_effective_normalized": None if k_eff is None else k_eff / norm,
        }
    else:
        density = {"gamma0": report.gamma[1], "a": report.gamma[2], "k_effective": k_eff}
    return {
        "f_id": report.f_id,
        "omega_id": report.omega_id,
        "eps": report.eps,
        **density,
        "k_formal": detail["formal-chain"]["k_formal"],
        "error_term_dominated": detail["measured-chain"]["error_term_dominated"],
        "n_good": detail["classification"]["n_good"],
        "n_bad": detail["classification"]["n_bad"],
        "passed": True,  # every failing step raises
        "x": report.eps,
        "y": k_eff,
    }


def k_effective_sweep(
    f: SpectralFunction,
    bound: GSBound,
    profile: RadiusProfile,
    cases,
    f_id: str = "f",
    reports_out: list | None = None,
) -> list:
    """Audit f, with its bound and radius profile, on each case and tabulate
    the empirical constant.

    cases: iterable of dicts with keys omega, eps and the density (gamma for
    a constant one, gamma0 and a for a decaying one). Returns one row per
    case with the report's headline numbers, plotted as x = eps,
    y = K_effective; a constant-density row also carries K_effective
    normalized by (1 + log(1/eps)). Pass a list as reports_out to also
    collect the full reports.

    The cases run in order in this process, share one store of sensor-free
    stages (see the module docstring), and the first PipelineError or
    NumericalError propagates.
    """
    shared = {}
    reports = []
    for case in cases:
        if "gamma" in case:
            audit, density = verify_uncertainty, (case["gamma"],)
        else:
            audit, density = verify_uncertainty_decay, (case["gamma0"], case["a"])
        reports.append(
            audit(f, bound, profile, case["omega"], *density, case["eps"], f_id=f_id, shared=shared)
        )
    if reports_out is not None:
        reports_out.extend(reports)
    return [_sweep_row(report) for report in reports]


def k_effective_spread(rows) -> dict:
    """Max/min ratio of the normalized constant over main-term-active rows."""
    vals = [
        r["k_effective_normalized"]
        for r in rows
        if r["k_effective_normalized"] is not None and r["k_effective_normalized"] > 0
    ]
    if not vals:
        return {"n_active": 0, "max": None, "min": None, "ratio": None}
    return {
        "n_active": len(vals),
        "max": max(vals),
        "min": min(vals),
        "ratio": max(vals) / min(vals),
    }
