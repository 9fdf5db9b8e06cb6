"""End-to-end pipeline audits: step records, constants, failure modes."""

import json
import math
import pickle
from dataclasses import replace

import pytest

from gsaudit import uncertainty
from gsaudit.geometry import (
    FullSpaceSensorSet,
    RadiusProfile,
    sensor_decaying_density,
    sensor_periodic,
)
from gsaudit.hermite import SpectralFunction
from gsaudit.semigroup import GSBound, fit_gs_bound, harmonic_flow
from gsaudit.uncertainty import (
    PipelineError,
    _jsonable,
    k_effective_spread,
    k_effective_sweep,
    verify_uncertainty,
    verify_uncertainty_decay,
)

from conftest import random_expansion

STEP_ORDER = [
    "admissibility",
    "premise",
    "tail",
    "covering",
    "density",
    "classification",
    "bad-mass",
    "decomposition",
    "witness",
    "mk-bound",
    "local-estimate",
    "overlap-sum",
    "measured-chain",
    "formal-chain",
]


@pytest.fixture(scope="module")
def instance():
    g = random_expansion(7, 12)
    f = harmonic_flow(g, 0.3)
    bound = fit_gs_bound(f, 0.5, 0.5)
    profile = RadiusProfile(R=1.0, delta=0.0, eta=0.5, r0=1.0)
    return f, bound, profile


@pytest.fixture(scope="module")
def report_full(instance):
    f, bound, profile = instance
    omega = FullSpaceSensorSet("full line")
    return verify_uncertainty(f, bound, profile, omega, gamma=1.0, eps=0.1, f_id="flow")


@pytest.fixture(scope="module")
def report_periodic(instance):
    f, bound, profile = instance
    return verify_uncertainty(
        f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.3, eps=0.1, f_id="flow"
    )


@pytest.fixture(scope="module")
def report_decay(instance):
    f, bound, profile = instance
    omega = sensor_decaying_density(0.5, 1.0, profile)
    return verify_uncertainty_decay(
        f, bound, profile, omega, gamma0=0.5, a=1.0, eps=0.1, f_id="flow"
    )


class TestFullSpaceSensor:
    def test_passes_with_small_constant(self, report_full):
        assert report_full.passed
        # omega = R gives ||f||_omega = ||f||, so the empirical constant is
        # essentially zero (slightly negative: the error term helps)
        assert report_full.k_effective is not None
        assert report_full.k_effective <= 0.01
        assert report_full.k_formal > 0.0

    def test_all_steps_recorded_in_order(self, report_full):
        assert [s.name for s in report_full.steps] == STEP_ORDER
        assert all(s.passed for s in report_full.steps)

    def test_omega_mass_is_total_mass(self, report_full, instance):
        f, _, _ = instance
        assert report_full.omega_mass == pytest.approx(f.norm_squared(), rel=1e-12)

    def test_report_roundtrips_through_json(self, report_full):
        data = json.loads(json.dumps(_jsonable(report_full)))
        assert data["kind"] == "uncertainty"
        assert data["passed"] is True
        assert data["gamma"] == ["constant", 1.0]
        assert len(data["steps"]) == len(STEP_ORDER)
        assert len(data["ball_audits"]) == data["covering"]["n_balls"]


class TestPeriodicSensor:
    def test_pipeline_passes(self, report_periodic):
        assert report_periodic.passed
        assert report_periodic.n_good >= 1
        assert report_periodic.n_bad == 0

    def test_empirical_constant_positive(self, report_periodic):
        # omega is a strict subset, so recovering the mass costs a factor > 1
        assert report_periodic.k_effective > 0.0
        assert report_periodic.omega_mass < report_periodic.total_mass

    def test_formal_dominates_empirical(self, report_periodic):
        assert report_periodic.k_formal >= report_periodic.k_effective

    def test_chain_inequalities(self, report_periodic):
        for name in ("measured-chain", "formal-chain"):
            step = report_periodic.step(name)
            assert step.passed
            assert step.log_lhs <= step.log_rhs + 1e-9

    def test_overlap_sum_bounded_by_kappa(self, report_periodic):
        step = report_periodic.step("overlap-sum")
        kappa = step.detail["kappa"]
        assert kappa <= 4
        assert step.detail["sum_good_intersections"] <= kappa * step.detail["omega_mass"] * (
            1.0 + 1e-9
        )

    def test_good_ball_audits_fully_populated(self, report_periodic):
        checked = 0
        for audit in report_periodic.ball_audits:
            if not (audit.is_good and not audit.degenerate):
                continue
            if not audit.tail_certified:
                # unknown beyond m_cap: counted in the eps budget, not audited
                assert audit.log_mk_bruteforce is None
                continue
            checked += 1
            assert audit.witness_verified
            # closed ball: the witness may sit on the boundary
            assert abs(audit.x_k[0] - audit.ball.center[0]) <= audit.ball.radius + 1e-12
            assert audit.mk_consistent
            assert audit.local_passed
        assert checked == report_periodic.n_good

    def test_decomposition_accounts_for_all_mass(self, report_periodic):
        r = report_periodic
        covered = r.good_mass + r.bad_mass + r.q0_mass_upper
        deg = sum(a.mass_sq for a in r.ball_audits if a.degenerate)
        assert covered + deg >= r.total_mass * (1.0 - 1e-8) - 1e-12


class TestErrorTermDominated:
    def test_eps_one_dominates(self, instance):
        # the fitted bound anchors D1 at ||f||, so eps = 1 makes the error
        # term swallow the whole mass
        f, bound, profile = instance
        rep = verify_uncertainty(
            f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.3, eps=1.0
        )
        assert rep.passed
        assert rep.error_term_dominated
        assert rep.k_effective is None
        assert rep.total_mass <= rep.error_term * (1.0 + 1e-12)


class TestPipelineFailures:
    def test_understated_bound_fails_premise(self, instance):
        f, bound, profile = instance
        lie = GSBound(D1=bound.D1 * 1e-3, D2=bound.D2, nu=bound.nu, mu=bound.mu)
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, lie, profile, FullSpaceSensorSet(), gamma=1.0, eps=0.1)
        assert err.value.step == "premise"

    def test_overstated_density_fails(self, instance):
        # periodic fill 1/2 has worst window ratio 1/3 on this profile, so
        # claiming gamma = 0.45 must abort at the density certificate
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(
                f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.45, eps=0.1
            )
        assert err.value.step == "density"

    def test_supercritical_s_rejected(self, instance):
        f, bound, _ = instance
        steep = RadiusProfile(R=1.0, delta=1.0, eta=0.5, r0=1.0)
        # nu = mu = 1/2 and delta = 1 give s = 1, outside the theorem range
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, bound, steep, FullSpaceSensorSet(), gamma=1.0, eps=0.1)
        assert err.value.step == "admissibility"

    @pytest.mark.parametrize("eps", [0.0, 1.5])
    def test_eps_out_of_range(self, instance, eps):
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, bound, profile, FullSpaceSensorSet(), gamma=1.0, eps=eps)
        assert err.value.step == "admissibility"

    def test_gamma_out_of_range(self, instance):
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, bound, profile, FullSpaceSensorSet(), gamma=0.0, eps=0.1)
        assert err.value.step == "admissibility"

    # each per-ball audit: the name the pipeline calls it by, and the field
    # of its result that marks a failure
    BALL_AUDITS = {
        "witness": ("pointwise_witness", "verified"),
        "mk-bound": ("mk_bruteforce", "converged"),
        "local-estimate": ("local_estimate_check", "applicable"),
    }
    # which audits fail, on which of the certified good balls (positions in
    # their list), and the step that must report it
    BALL_FAILURES = [
        ({"witness": [1]}, "witness"),
        ({"witness": [-1, 0]}, "witness"),
        ({"mk-bound": [-1, 1]}, "mk-bound"),
        ({"local-estimate": [-1, 1]}, "local-estimate"),
        # the witness step comes first, then mk-bound, whatever the balls
        ({"witness": [-1], "mk-bound": [0], "local-estimate": [0]}, "witness"),
        ({"mk-bound": [-1], "local-estimate": [0]}, "mk-bound"),
    ]

    @pytest.mark.parametrize(
        "failing, step",
        BALL_FAILURES,
        ids=[
            "+".join(f"{name}@{','.join(map(str, where))}" for name, where in failing.items())
            for failing, _ in BALL_FAILURES
        ],
    )
    def test_failing_ball_audit_names_step_and_ball(
        self, monkeypatch, instance, report_periodic, failing, step
    ):
        f, bound, profile = instance
        active = [a for a in report_periodic.ball_audits if a.tail_certified]
        chosen = {name: sorted(active[i].k for i in where) for name, where in failing.items()}
        k_of = {a.ball: a.k for a in report_periodic.ball_audits}

        def fail_on(real, ks, flag):
            def audit(f, ball, *args, **kwargs):
                result = real(f, ball, *args, **kwargs)
                return replace(result, **{flag: False}) if k_of[ball] in ks else result

            return audit

        for name, ks in chosen.items():
            attr, flag = self.BALL_AUDITS[name]
            monkeypatch.setattr(uncertainty, attr, fail_on(getattr(uncertainty, attr), ks, flag))
        with pytest.raises(PipelineError) as err:
            verify_uncertainty(f, bound, profile, sensor_periodic(1.0, 0.5), gamma=0.3, eps=0.1)
        assert err.value.step == step
        ks = chosen[step]
        expected = {
            "witness": f"'unwitnessed_balls': {ks}",
            "mk-bound": f"polydisc sampling did not stabilize on ball {ks[0]}",
            "local-estimate": f"ball {ks[0]} does not meet omega",
        }
        assert expected[step] in err.value.message

    def test_two_dimensional_input_rejected(self):
        # a 2D coefficient matrix is refused before any pipeline can see it
        with pytest.raises(ValueError, match="vector"):
            SpectralFunction([[1.0, 0.0], [0.0, 1.0]])


class TestOmegaMonotonicity:
    def test_larger_sensor_needs_smaller_constant(self, instance, report_periodic):
        # fill 3/4 contains fill 1/2 cell by cell, so the same gamma
        # certificate holds and the empirical constant cannot grow
        f, bound, profile = instance
        bigger = verify_uncertainty(
            f, bound, profile, sensor_periodic(1.0, 0.75), gamma=0.3, eps=0.1
        )
        assert bigger.passed
        assert bigger.omega_mass >= report_periodic.omega_mass
        assert bigger.k_effective <= report_periodic.k_effective + 1e-12


class TestDecayVariant:
    def test_pipeline_passes(self, report_decay):
        assert report_decay.passed
        assert report_decay.kind == "uncertainty-decay"
        assert report_decay.gamma == ("decaying", 0.5, 1.0)
        assert report_decay.k_effective > 0.0

    def test_center_norm_bound_step(self, report_decay):
        step = report_decay.step("center-norm-bound")
        assert step.passed
        assert step.log_lhs <= step.log_rhs + 1e-12

    def test_per_ball_density_floor_respected(self, report_decay):
        step = report_decay.step("local-estimate")
        assert step.detail["worst_ball_density_margin"] >= -1e-12

    def test_squared_bracket_shrinks_constant(self, instance, report_decay):
        # same instance through the constant-density audit at the worst
        # per-ball level: the decay constant divides by the squared bracket,
        # so it comes out much smaller
        assert report_decay.k_effective < 0.01

    def test_a_zero_degenerates_to_constant_density(self, instance):
        f, bound, profile = instance
        rep = verify_uncertainty_decay(
            f, bound, profile, sensor_periodic(1.0, 0.5), gamma0=0.5, a=0.0, eps=0.1
        )
        assert rep.passed
        # gamma0 / (1 + |x|^0) = gamma0 / 2 everywhere
        assert rep.step("density").detail["min_ratio"] >= 0.25
        step = rep.step("center-norm-bound")
        assert step.log_lhs == pytest.approx(math.log(2.0), abs=1e-12)
        assert step.log_rhs == pytest.approx(math.log(2.0), abs=1e-12)

    def test_negative_a_rejected(self, instance):
        f, bound, profile = instance
        with pytest.raises(PipelineError) as err:
            verify_uncertainty_decay(
                f, bound, profile, FullSpaceSensorSet(), gamma0=0.5, a=-1.0, eps=0.1
            )
        assert err.value.step == "admissibility"


class TestSweep:
    def test_rows_and_spread(self, instance):
        f, bound, profile = instance
        periodic = sensor_periodic(1.0, 0.5)
        full = FullSpaceSensorSet("full line")
        cases = [
            {"f": f, "bound": bound, "profile": profile, "omega": omega, "gamma": g, "eps": eps}
            for (omega, g) in ((periodic, 0.3), (full, 1.0))
            for eps in (0.1, 1.0)
        ]
        rows = k_effective_sweep(cases)
        assert len(rows) == 4
        assert all(r["passed"] for r in rows)
        for r in rows:
            if r["eps"] == 1.0:
                assert r["error_term_dominated"]
                assert r["k_effective"] is None
        spread = k_effective_spread(rows)
        # only the periodic eps = 0.1 row has a positive constant
        assert spread["n_active"] == 1
        assert spread["ratio"] == pytest.approx(1.0)

    def test_spread_of_empty_sweep(self):
        assert k_effective_spread([])["ratio"] is None

    def test_rows_carry_each_kinds_density(self, instance):
        f, bound, profile = instance
        common = {"f": f, "bound": bound, "profile": profile, "eps": 1.0}
        cases = [
            {**common, "omega": FullSpaceSensorSet("full line"), "gamma": 1.0},
            {**common, "omega": sensor_decaying_density(0.5, 1.0, profile), "gamma0": 0.5, "a": 1.0},
        ]
        reports = []
        constant, decaying = k_effective_sweep(cases, reports_out=reports)
        assert [r.kind for r in reports] == ["uncertainty", "uncertainty-decay"]
        assert constant["gamma"] == 1.0 and "gamma0" not in constant
        assert "k_effective_normalized" in constant
        assert (decaying["gamma0"], decaying["a"]) == (0.5, 1.0)
        assert "gamma" not in decaying and "k_effective_normalized" not in decaying
        assert all(row["x"] == 1.0 for row in (constant, decaying))


class RecordingPool:
    """Stands in for the process pool: notes its size, runs tasks in-process."""

    def __init__(self, built, max_workers, mp_context=None):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestSweepWorkers:
    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            uncertainty,
            "ProcessPoolExecutor",
            lambda *args, **kwargs: RecordingPool(built, *args, **kwargs),
        )
        return built

    @pytest.fixture(scope="class")
    def cases(self, instance):
        # two sensors at two eps: four cases in two groups
        f, bound, profile = instance
        return [
            {"f": f, "bound": bound, "profile": profile, "omega": omega, "gamma": g, "eps": eps}
            for omega, g in ((FullSpaceSensorSet("full line"), 1.0), (sensor_periodic(1.0, 0.5), 0.3))
            for eps in (1.0, 0.5)
        ]

    def test_workers_capped_at_case_count(self, built, cases):
        # the pool runs over groups, so the cap is the number of groups
        pooled = k_effective_sweep(cases, threads=64)
        assert built == [2]
        assert pooled == k_effective_sweep(cases, threads=1)
        assert built == [2]

    def test_no_pool_for_one_case(self, built, cases):
        k_effective_sweep(cases[:1], threads=64)
        assert built == []

    def test_pipeline_error_pickles(self):
        err = pickle.loads(pickle.dumps(PipelineError("tail", "x")))
        assert isinstance(err, PipelineError)
        assert err.step == "tail"
        assert str(err) == str(PipelineError("tail", "x"))


class TestSweepSharing:
    """Cases that share f, bound, profile and eps audit the sensor-free
    stages once; every report and error stays that of its own audit."""

    @pytest.fixture(scope="class")
    def cases(self, instance):
        f, bound, profile = instance
        common = {"f": f, "bound": bound, "profile": profile, "f_id": "flow"}
        cases = [
            {**common, "omega": omega, "gamma": g, "eps": eps}
            for omega, g in ((FullSpaceSensorSet("full line"), 1.0), (sensor_periodic(1.0, 0.5), 0.3))
            for eps in (1.0, 0.5)
        ]
        decay = sensor_decaying_density(0.5, 1.0, profile)
        cases.append({**common, "omega": decay, "gamma0": 0.5, "a": 1.0, "eps": 1.0})
        return cases

    @pytest.fixture(scope="class")
    def independent(self, cases):
        reports = []
        for c in cases:
            args = (c["f"], c["bound"], c["profile"], c["omega"])
            if "gamma" in c:
                reports.append(verify_uncertainty(*args, c["gamma"], c["eps"], f_id="flow"))
            else:
                reports.append(
                    verify_uncertainty_decay(*args, c["gamma0"], c["a"], c["eps"], f_id="flow")
                )
        return _jsonable(reports)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_reports_equal_independent_audits(self, monkeypatch, cases, independent, threads):
        built = []
        monkeypatch.setattr(
            uncertainty,
            "ProcessPoolExecutor",
            lambda *args, **kwargs: RecordingPool(built, *args, **kwargs),
        )
        reports = []
        k_effective_sweep(cases, threads=threads, reports_out=reports)
        assert built == ([] if threads == 1 else [2])
        assert _jsonable(reports) == independent

    def test_sensor_free_stages_run_once_per_group(self, monkeypatch, cases):
        calls = {"cover": [], "ball": [], "witness": [], "polydisc": []}

        def counting(name, fn, keys):
            def wrapped(*args, **kwargs):
                calls[name].extend(keys(*args))
                return fn(*args, **kwargs)

            monkeypatch.setattr(uncertainty, fn.__name__, wrapped)

        def ball_key(f, ball, cfg):
            return [(cfg.eps, ball.center, ball.radius)]

        def covering_keys(f, balls, cfg, derivatives):
            return [(cfg.eps, ball.center, ball.radius) for ball in balls]

        counting("cover", uncertainty.besicovitch_cover, lambda profile, r: [r])
        counting("ball", uncertainty.classify_balls, covering_keys)
        counting("witness", uncertainty.pointwise_witness, ball_key)
        counting("polydisc", uncertainty.mk_bruteforce, lambda *args: [None])
        reports = []
        k_effective_sweep(cases, reports_out=reports)

        def per_eps(count):
            # a group's reports agree, so one entry per eps counts each once
            return sum({r.eps: count(r) for r in reports}.values())

        # one covering per eps, and each (eps, ball) classified once
        assert len(calls["cover"]) == 2
        assert len(calls["ball"]) == per_eps(lambda r: r.covering["n_balls"])
        assert len(set(calls["ball"])) == len(calls["ball"])
        # each active ball's witness and polydisc sup, once per eps
        checked = per_eps(lambda r: sum(a.witness_verified is not None for a in r.ball_audits))
        assert len(calls["witness"]) == checked > 0
        assert len(set(calls["witness"])) == len(calls["witness"])
        sampled = per_eps(lambda r: sum(a.mk_converged is not None for a in r.ball_audits))
        assert len(calls["polydisc"]) == sampled

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_failing_case_in_case_order_raises(self, instance, threads):
        # the failing eps = 1.0 case comes second, in the group after the
        # failing eps = 0.1 case's: the loop raises the eps = 1.0 error
        f, bound, profile = instance
        common = {"f": f, "bound": bound, "profile": profile}
        periodic = sensor_periodic(1.0, 0.5)
        cases = [
            {**common, "omega": periodic, "gamma": 0.3, "eps": 0.1},
            {**common, "omega": periodic, "gamma": 0.45, "eps": 1.0},
            {**common, "omega": periodic, "gamma": 0.45, "eps": 0.1},
        ]
        with pytest.raises(PipelineError) as loop:
            verify_uncertainty(f, bound, profile, periodic, 0.45, 1.0)
        with pytest.raises(PipelineError) as swept:
            k_effective_sweep(cases, threads=threads)
        assert swept.value.step == loop.value.step == "density"
        assert str(swept.value) == str(loop.value)

    def test_one_worker_stops_at_the_first_failing_case(self, monkeypatch, instance):
        # the first case fails at density, so the later groups never run
        f, bound, profile = instance
        common = {"f": f, "bound": bound, "profile": profile, "omega": sensor_periodic(1.0, 0.5)}
        cases = [{**common, "gamma": 0.45, "eps": eps} for eps in (0.1, 1.0, 0.5)]
        with pytest.raises(PipelineError) as loop:
            verify_uncertainty(f, bound, profile, common["omega"], 0.45, 0.1)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return verify_uncertainty(*args, **kwargs)

        monkeypatch.setattr(uncertainty, "verify_uncertainty", counting)
        with pytest.raises(PipelineError) as swept:
            k_effective_sweep(cases, threads=1)
        assert len(calls) == 1
        assert swept.value.step == loop.value.step == "density"
        assert str(swept.value) == str(loop.value)
