"""End-to-end audits of the uncertainty principles with error term.

verify_uncertainty runs the full proof pipeline on a concrete instance
(f, omega, eps): localize the mass of f to a ball, cover it, classify the
covering into good and bad balls, then, in one pass over the certified good
balls, find a pointwise witness, bound the analytic-extension sup and apply
the local estimate on each, and sum with the covering overlap. Every
inequality along the way is audited with both its measured sides and the
closed-form constants; the report records each step and the smallest
constant that actually works for the instance next to the pipeline's
provable one. A report's JSON form is derived from its fields by _jsonable.

verify_uncertainty_decay does the same for sensor sets whose density decays
polynomially, with per-ball density floors and the squared-log constant.
Every failure aborts with the violated step identified: the underlying
statements are theorems, so a red inequality means an invalid certificate
or a bug, never a counterexample.

k_effective_sweep runs a list of such instances of either kind. The sensor
enters the proof only at the density premise and the local estimates, so
the sweep groups the instances that share f, its bound, the radius profile
and eps: the first instance of a group to reach a sensor-free stage (premise,
tail, covering, classification, bad mass, the polydisc bound, and each
ball's witness and polydisc sup) computes it, and the others reuse it.
Groups are independent, so the sweep is the one place that runs in
parallel: with more than one worker it hands whole groups to a pool of
forked processes and reads the reports back in case order. Inside a group
every loop is sequential.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import partial
from multiprocessing import get_context

import numpy as np

from .geometry import (
    OVERLAP_CAP,
    FullSpaceSensorSet,
    RadiusProfile,
    besicovitch_cover,
    certify_density,
    sensor_id,
)
from .hermite import (
    NumericalError,
    SpectralFunction,
    norm_squared_on_intervals,
    weighted_norm,
)
from .local_estimates import (
    BallAudit,
    ClassifierConfig,
    bad_mass_bound,
    classify_balls,
    derivative_stack,
    local_estimate_check,
    mk_bound,
    mk_bruteforce,
    pointwise_witness,
)
from .semigroup import GSBound, delta_weight_transfer, tail_mass_check

__all__ = [
    "PipelineError",
    "StepRecord",
    "UncertaintyReport",
    "k_effective_spread",
    "k_effective_sweep",
    "verify_uncertainty",
    "verify_uncertainty_decay",
]

_LOG2 = math.log(2.0)


class PipelineError(RuntimeError):
    """A pipeline step failed; .step names the violated premise or lemma."""

    def __init__(self, step: str, message: str):
        super().__init__(f"step '{step}': {message}")
        self.step = step
        self.message = message

    def __reduce__(self):
        # the default rebuilds from self.args, the formatted text alone
        return type(self), (self.step, self.message)


def _safe_exp_arg(arg: float) -> float:
    return math.exp(arg) if arg < 709.0 else math.inf


def _log(x: float) -> float:
    return math.log(x) if x > 0 else -math.inf


def _jsonable(x):
    """x as JSON data: a non-finite float becomes a string, a numpy scalar a
    Python one, a tuple a list, and a dataclass the dict of its fields, or its
    to_dict() where it derives more. The common scalar and container cases are
    tested first, as they make up most of a report."""
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
        if hasattr(x, "to_dict"):
            return _jsonable(x.to_dict())
        return {f.name: _jsonable(getattr(x, f.name)) for f in fields(x)}
    return x


@dataclass(frozen=True)
class StepRecord:
    """One audited inequality: passed means log_lhs <= log_rhs (+ tolerance)."""

    name: str
    passed: bool
    log_lhs: float | None = None
    log_rhs: float | None = None
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class UncertaintyReport:
    """One audited instance; its fields are the keys of its JSON form."""

    kind: str  # "uncertainty" or "uncertainty-decay"
    f_id: str
    omega_id: str
    eps: float
    gamma: tuple  # ("constant", g) or ("decaying", gamma0, a)
    profile: RadiusProfile
    bound: dict
    tail_radius: float
    covering: dict
    n_good: int
    n_uncertified: int
    n_bad: int
    n_degenerate: int
    ball_audits: tuple
    steps: tuple
    total_mass: float
    omega_mass: float
    error_term: float  # eps * D1^2
    good_mass: float
    bad_mass: float
    q0_mass_upper: float
    log_lhs: float  # log ||f||^2
    log_rhs_formal: float  # log of the explicit-constant right-hand side
    k_formal: float
    k_effective: float | None
    error_term_dominated: bool
    passed: bool

    def step(self, name: str) -> StepRecord:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)


def _mass_on_sensor(f: SpectralFunction, omega) -> float:
    if isinstance(omega, FullSpaceSensorSet):
        return f.norm_squared()
    return norm_squared_on_intervals(f, zip(omega.starts, omega.ends))


def _premise_check(f, bound, tilde, delta):
    """Spot-check the declared derivative bounds on a small (n, beta) grid,
    allowing a log-margin of -1e-7. The integer-weight norms are exact
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
    return worst, worst_at, worst >= -1e-7


def _gamma_floor(gamma_spec, center_norm: float) -> float:
    if gamma_spec[0] == "constant":
        return gamma_spec[1]
    _, gamma0, a = gamma_spec
    return gamma0 / (1.0 + center_norm**a)


def _run_pipeline(
    f: SpectralFunction,
    bound: GSBound,
    profile: RadiusProfile,
    omega,
    gamma_spec: tuple,
    eps: float,
    m_cap: int,
    f_id: str,
    witness_grid: int,
    shared: dict | None,
) -> UncertaintyReport:
    steps = []
    shared = {} if shared is None else shared
    decaying = gamma_spec[0] == "decaying"

    def once(key, compute):
        # a sensor-free value: computed by the first case of the sweep group
        # that gets this far, reused by the group's later cases
        if key not in shared:
            shared[key] = compute()
        return shared[key]

    def record(name, passed, log_lhs=None, log_rhs=None, **detail):
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
    record("admissibility", True, s=s, tilde_d2=tilde.D2, eps=eps)

    # the declared derivative bounds must actually majorize f
    worst_margin, worst_at, ok = once(
        "premise", lambda: _premise_check(f, bound, tilde, profile.delta)
    )
    record(
        "premise",
        ok,
        log_lhs=-worst_margin,
        log_rhs=0.0,
        worst_margin=worst_margin,
        worst_at=worst_at,
    )

    # localization: mass outside B(0, r) fits in half the error budget
    tail = once("tail", lambda: tail_mass_check(f, bound, eps))
    record(
        "tail",
        tail.passed,
        log_lhs=_log(tail.tail_mass),
        log_rhs=math.log(tail.budget),
        r=tail.r,
        tail_mass=tail.tail_mass,
        budget=tail.budget,
    )

    covering = once("covering", lambda: besicovitch_cover(profile, tail.r))
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
        record("center-norm-bound", lhs <= rhs * (1.0 + 1e-12), math.log(lhs), math.log(rhs))

    gamma_arg = gamma_spec[1:] if decaying else gamma_spec[1]
    density = certify_density(
        omega, profile, gamma_arg, covering.target_radius, sample_centers=covering.centers
    )
    record(
        "density",
        density.passed,
        min_ratio=density.min_ratio,
        threshold=density.threshold,
        n_violations=density.n_violations,
    )

    # classification; bad balls and the uncovered remainder fit in the
    # error budget
    cfg = ClassifierConfig(
        eps=eps, kappa=kappa, tilde_d2=tilde.D2, s=s, delta=profile.delta, m_cap=m_cap
    )
    derivs = once("derivatives", lambda: derivative_stack(f, m_cap))
    results = once("classification", lambda: classify_balls(f, balls, cfg, derivs))
    bad_report = once(
        "bad-mass", lambda: bad_mass_bound(f, covering, cfg, tilde, results=results)
    )
    audits = [
        BallAudit(
            k=k,
            ball=ball,
            m_cap=m_cap,
            is_good=res.is_good,
            failing_m=res.failing_m,
            degenerate=res.degenerate,
            mass_sq=res.mass_sq,
            tail_certified=bad_report.tail_certified[k],
            tail_order=bad_report.tail_orders[k],
        )
        for k, (ball, res) in enumerate(zip(balls, results))
    ]
    # the certified good balls; an uncertified ball's tail condition is
    # unknown beyond m_cap, and its mass already sits in the eps budget
    active = [a for a in audits if a.tail_certified]
    counts = {
        "n_good": len(active),
        "n_uncertified": bad_report.n_uncertified,
        "n_bad": bad_report.n_bad,
        "n_degenerate": bad_report.n_degenerate,
    }
    record("classification", True, **counts)
    record(
        "bad-mass",
        bad_report.passed,
        log_lhs=_log(bad_report.total),
        log_rhs=math.log(bad_report.budget),
        bad_mass=bad_report.bad_mass,
        uncertified_good_mass=bad_report.uncertified_good_mass,
        q0_mass_upper=bad_report.q0_mass_upper,
        n_uncertified=bad_report.n_uncertified,
    )

    total_mass = f.norm_squared()
    good_mass = sum(a.mass_sq for a in active)
    deg_mass = sum(a.mass_sq for a in audits if a.degenerate)
    # bad_report.total = bad + uncertified-good + outside-mass, all inside the
    # eps budget; certified good balls and degenerate slop carry the rest
    covered = good_mass + deg_mass + bad_report.total
    record(
        "decomposition",
        covered >= total_mass * (1.0 - 1e-8) - 1e-12,
        log_lhs=_log(total_mass),
        log_rhs=_log(covered),
        covered_mass=covered,
        total_mass=total_mass,
    )

    # one pass over the certified good balls: witness, analytic-extension
    # sup and local estimate; the failures are raised after the pass, step by
    # step, each naming its first ball
    ub = once("mk-bound", lambda: mk_bound(cfg, profile, tilde))
    log_mk_reference = ub.log_bound if ub.log_intermediate is None else ub.log_intermediate
    unwitnessed, unconverged, missed = [], [], []
    worst_mk, worst_local, worst_ball_density = -math.inf, math.inf, math.inf
    sum_inter = 0.0
    gamma_floors, log_measured_factors = [], []
    for audit in active:
        gamma_floors.append(_gamma_floor(gamma_spec, audit.ball.center_norm()))
        wit = once(
            ("witness", audit.k),
            lambda: pointwise_witness(
                f, audit.ball, cfg, mass_sq=audit.mass_sq, derivatives=derivs,
                n_grid=witness_grid,
            ),
        )
        audits[audit.k] = replace(
            audit,
            x_k=wit.x_k,
            witness_verified=wit.verified,
            witness_refined=wit.refined,
            log_mk_bound=ub.log_bound,
            log_mk_intermediate=ub.log_intermediate,
        )
        if not wit.verified:
            unwitnessed.append(audit.k)
            continue
        rho_k = float(profile.rho(wit.x_k[0]))
        brute = once(
            ("mk-bruteforce", audit.k),
            lambda: mk_bruteforce(f, audit.ball, rho_k, norm_sq=audit.mass_sq),
        )
        local = local_estimate_check(f, audit.ball, omega, brute.log_m, mass_sq=audit.mass_sq)
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
        worst_ball_density = min(
            worst_ball_density, local.intersection_measure / audit.ball.volume - gamma_floors[-1]
        )
        log_measured_factors.append(local.exponent * math.log(local.base))
    record(
        "witness",
        not unwitnessed,
        n_checked=len(active),
        unwitnessed_balls=unwitnessed,
    )

    if unconverged:
        raise PipelineError(
            "mk-bound", f"polydisc sampling did not stabilize on ball {unconverged[0]}"
        )
    series = ub.series
    if series and series.remainder_certified and series.log_sum > series.log_bound + 1e-9:
        raise PipelineError("mk-bound", "certified series sum exceeds its proved bound")
    record(
        "mk-bound",
        worst_mk <= 1e-9,
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
        worst_local >= -1e-9 and worst_ball_density >= -1e-12,
        log_lhs=-worst_local if active else None,
        log_rhs=0.0,
        n_checked=len(active),
        worst_ball_density_margin=worst_ball_density,
    )

    # summation with overlap kappa
    omega_mass = _mass_on_sensor(f, omega)
    record(
        "overlap-sum",
        sum_inter <= kappa * omega_mass * (1.0 + 1e-9) + 1e-300,
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
        dominated or log_main <= log_chain_rhs + 1e-9,
        log_lhs=log_main,
        log_rhs=log_chain_rhs,
        error_term_dominated=dominated,
    )

    # formal chain with the closed-form constants
    arg = (2.0 / (1.0 - s)) * math.log(2.0 * ub.d_value)
    power = _safe_exp_arg(arg)
    exponent_formal = 9.0 + (2.0 / _LOG2) * math.log(2.0 * kappa / eps) + (12.0 / _LOG2) * power
    gamma_min = min(gamma_floors, default=_gamma_floor(gamma_spec, covering.target_radius))
    log_formal_factor = exponent_formal * math.log(48.0 / gamma_min) + math.log(kappa)
    log_rhs_formal = float(np.logaddexp(log_formal_factor + _log(omega_mass), _log(error_term)))
    log_lhs = _log(total_mass)
    formal_ok = log_lhs <= log_rhs_formal + 1e-9
    d2_power = _safe_exp_arg((4.0 / (1.0 - s)) * math.log(bound.D2))
    bracket = 1.0 + math.log(1.0 / eps) + d2_power
    denom = bracket**2 if decaying else bracket
    k_formal = log_formal_factor / denom
    record(
        "formal-chain",
        formal_ok,
        log_lhs=log_lhs,
        log_rhs=log_rhs_formal,
        k_formal=k_formal,
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
        tail_radius=tail.r,
        covering=summary,
        **counts,
        ball_audits=tuple(audits),
        steps=tuple(steps),
        total_mass=total_mass,
        omega_mass=omega_mass,
        error_term=error_term,
        good_mass=good_mass,
        bad_mass=bad_report.bad_mass,
        q0_mass_upper=bad_report.q0_mass_upper,
        log_lhs=log_lhs,
        log_rhs_formal=log_rhs_formal,
        k_formal=k_formal,
        k_effective=k_effective,
        error_term_dominated=dominated,
        passed=formal_ok,
    )


def verify_uncertainty(
    f: SpectralFunction,
    bound: GSBound,
    profile: RadiusProfile,
    omega,
    gamma: float,
    eps: float,
    m_cap: int = 24,
    f_id: str = "f",
    witness_grid: int = 1024,
    shared: dict | None = None,
) -> UncertaintyReport:
    """Audit the constant-density uncertainty principle on one instance.

    Runs tail localization, covering, good/bad classification, witnesses,
    polydisc sups, local estimates, and the overlap summation; each audited
    inequality becomes a step record. Raises PipelineError naming the failed
    step if any inequality breaks; with valid certificates that indicates a
    bug, since every step is a proved statement.

    shared: a dict holding the sensor-free stages of earlier calls with the
    same f, bound, profile, eps, m_cap and witness_grid; the stages this call
    computes first are added to it. None computes every stage.
    """
    return _run_pipeline(
        f, bound, profile, omega, ("constant", float(gamma)), eps,
        m_cap=m_cap, f_id=f_id, witness_grid=witness_grid, shared=shared,
    )


def verify_uncertainty_decay(
    f: SpectralFunction,
    bound: GSBound,
    profile: RadiusProfile,
    omega,
    gamma0: float,
    a: float,
    eps: float,
    m_cap: int = 24,
    f_id: str = "f",
    witness_grid: int = 1024,
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
        m_cap=m_cap, f_id=f_id, witness_grid=witness_grid, shared=shared,
    )


def _audit_case(case: dict, m_cap: int, witness_grid: int, shared: dict) -> UncertaintyReport:
    instance = (case["f"], case["bound"], case["profile"], case["omega"])
    options = {"m_cap": m_cap, "f_id": case.get("f_id", "f"), "witness_grid": witness_grid}
    if "gamma" in case:
        return verify_uncertainty(*instance, case["gamma"], case["eps"], shared=shared, **options)
    return verify_uncertainty_decay(
        *instance, case["gamma0"], case["a"], case["eps"], shared=shared, **options
    )


def _audit_group(cases: list, m_cap: int, witness_grid: int) -> tuple:
    """One group's cases in order, in whichever process runs them; top-level
    so it pickles. Returns the reports up to the first case that fails its
    audit or does not converge, and that case's error (None if none fails)."""
    shared = {}
    reports = []
    for case in cases:
        try:
            reports.append(_audit_case(case, m_cap, witness_grid, shared))
        except (PipelineError, NumericalError) as err:
            return reports, err
    return reports, None


def _sweep_row(report: UncertaintyReport) -> dict:
    k_eff = report.k_effective
    if report.kind == "uncertainty":
        norm = 1.0 + math.log(1.0 / report.eps)
        density = {
            "gamma": report.gamma[1],
            "k_effective_normalized": None if k_eff is None else k_eff / norm,
        }
    else:
        density = {"gamma0": report.gamma[1], "a": report.gamma[2]}
    return {
        "f_id": report.f_id,
        "omega_id": report.omega_id,
        "eps": report.eps,
        **density,
        "k_effective": k_eff,
        "k_formal": report.k_formal,
        "error_term_dominated": report.error_term_dominated,
        "n_good": report.n_good,
        "n_bad": report.n_bad,
        "passed": report.passed,
        "x": report.eps,
        "y": k_eff,
    }


def k_effective_sweep(
    cases,
    m_cap: int = 24,
    threads: int = 1,
    reports_out: list | None = None,
    witness_grid: int = 1024,
) -> list:
    """Audit a family of instances and tabulate the empirical constant.

    cases: iterable of dicts with keys f, bound, profile, omega, eps, the
    density (gamma for a constant one, gamma0 and a for a decaying one) and
    optionally f_id. Returns one row per case with the report's headline
    numbers, plotted as x = eps, y = K_effective; a constant-density row
    also carries K_effective normalized by (1 + log(1/eps)). Pass a list as
    reports_out to also collect the full reports.

    Cases with the same f, bound and profile objects and an equal eps form a
    group, which audits its sensor-free stages once (see the module
    docstring) and runs its cases in case order up to the first that raises
    PipelineError or NumericalError. One worker runs the groups in a loop
    and stops before a group whose first case comes after a failed case.
    With threads > 1 the groups run in min(threads, number of groups)
    forked worker processes. The reports are
    put back in case order and the error raised is that of the first case
    without a report, so the rows, and the exception, are those of a loop
    over the cases; any other exception is a bug and propagates at once.
    """
    cases = list(cases)
    groups = {}
    for i, case in enumerate(cases):
        key = (id(case["f"]), id(case["bound"]), id(case["profile"]), case["eps"])
        groups.setdefault(key, []).append(i)
    groups = list(groups.values())
    audit = partial(_audit_group, m_cap=m_cap, witness_grid=witness_grid)
    work = [[cases[i] for i in group] for group in groups]
    reports = [None] * len(cases)
    errors = {}

    def collect(group, outcome):
        done, err = outcome
        for i, report in zip(group, done):
            reports[i] = report
        if err is not None:
            errors[group[len(done)]] = err

    workers = min(threads, len(groups))
    if workers <= 1:
        for group, group_cases in zip(groups, work):
            if errors and group[0] > min(errors):
                break  # the loop over the cases stops before this group
            collect(group, audit(group_cases))
    else:
        with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
            for group, outcome in zip(groups, pool.map(audit, work)):
                collect(group, outcome)
    if errors:
        raise errors[min(errors)]
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
