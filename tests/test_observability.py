"""Mass matrices, Gramian pencils, and the full-line comparison."""

import json
import math

import numpy as np
import pytest

from gsaudit import hermite, observability
from gsaudit.geometry import (
    FullSpaceSensorSet,
    IntervalSensorSet,
    RadiusProfile,
    sensor_decaying_density,
    sensor_periodic,
)
from gsaudit.hermite import NumericalError, norm_squared_on_intervals
from gsaudit.observability import (
    GramianError,
    MAX_TRUNCATION,
    ObservabilityReport,
    diagonal_constant,
    mass_matrix,
    observability_gramian,
    observability_scan,
)
from gsaudit.uncertainty import _jsonable

from conftest import basis_function, random_expansion

# closed-form half-line inner products: int_0^inf h_m h_n
HALF_A01 = 1.0 / math.sqrt(2.0 * math.pi)  # 0.3989422804014327
HALF_A12 = 0.5 / math.sqrt(math.pi)  # 0.28209479177387814

T_GRID = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)


@pytest.fixture(scope="module")
def half_line():
    return IntervalSensorSet([(0.0, 400.0)], "half line")


def _quadrature_mass_matrix(omega, n_trunc):
    """The mass matrix as it was assembled by quadrature: composite
    Gauss-Legendre on the sensor intervals clipped to the effective support,
    24 points on panels of at most 0.5 and 48 on panels of at most 0.25,
    which must agree to 1e-11 of the largest entry; the fine one, symmetrized."""
    cutoff = hermite.effective_support_radius(basis_function(n_trunc - 1))
    pieces = [(max(a, -cutoff), min(b, cutoff)) for a, b in zip(omega.starts, omega.ends) if b > -cutoff and a < cutoff]

    def assemble(order, max_panel):
        x, w, _ = hermite._interval_rules(pieces, order, max_panel)
        basis = hermite._scaled_basis_matrix(n_trunc - 1, x) * np.exp(-0.5 * x**2)
        return (basis * w) @ basis.T

    coarse, fine = assemble(24, 0.5), assemble(48, 0.25)
    assert np.abs(fine - coarse).max() <= 1e-11 * max(1.0, np.abs(fine).max())
    return 0.5 * (fine + fine.T)


SENSORS = {
    "fill-0.5": sensor_periodic(1.0, 0.5),
    "fill-0.75": sensor_periodic(1.0, 0.75),
    "period-0.3": sensor_periodic(0.3, 0.5),
    "decaying": sensor_decaying_density(0.25, 2.0, RadiusProfile()),
}


class TestMassMatrix:
    @pytest.mark.parametrize("n_trunc", [13, 40, 48])
    @pytest.mark.parametrize("sensor", SENSORS)
    def test_closed_form_matches_the_quadrature(self, sensor, n_trunc):
        omega = SENSORS[sensor]
        got = mass_matrix(omega, n_trunc)
        assert np.abs(got - _quadrature_mass_matrix(omega, n_trunc)).max() <= 1e-14

    @pytest.mark.parametrize("fill", [0.5, 0.75])
    def test_quadratic_form_is_the_interval_norm(self, fill):
        # two independent integrators of f^2 on omega: the closed-form mass
        # matrix and the 20-point rule on each sensor interval
        omega = sensor_periodic(1.0, fill)
        mass = mass_matrix(omega, 40)
        rng = np.random.default_rng(17)
        for _ in range(12):
            f = random_expansion(int(rng.integers(2**32)), int(rng.integers(0, 40)))
            c = np.zeros(40)
            c[: len(f.coeffs)] = f.coeffs
            want = norm_squared_on_intervals(f, list(zip(omega.starts, omega.ends)))
            assert c @ mass @ c == pytest.approx(want, rel=1e-12)

    def test_full_space_is_identity(self):
        A = mass_matrix(FullSpaceSensorSet(), 8)
        assert np.array_equal(A, np.eye(8))

    def test_half_line_closed_forms(self, half_line):
        A = mass_matrix(half_line, 4)
        # same-parity products are even functions: half the full-space integral
        assert A[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert A[1, 1] == pytest.approx(0.5, rel=1e-12)
        assert A[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert A[1, 3] == pytest.approx(0.0, abs=1e-12)
        # odd products survive with Gaussian closed forms
        assert A[0, 1] == pytest.approx(HALF_A01, rel=1e-10)
        assert A[1, 2] == pytest.approx(HALF_A12, rel=1e-10)

    def test_symmetric_with_unit_interval_diagonal(self):
        A = mass_matrix(sensor_periodic(1.0, 0.5), 16)
        assert np.allclose(A, A.T, atol=0.0)
        diag = np.diag(A)
        assert np.all(diag >= 0.0) and np.all(diag <= 1.0)

    def test_sensor_missing_the_support_gives_zero(self):
        far = IntervalSensorSet([(300.0, 301.0)], "far away")
        assert np.array_equal(mass_matrix(far, 4), np.zeros((4, 4)))

    def test_two_dimensional_sensor_rejected(self):
        # sensor sets take no dimension: every one lives on the line
        with pytest.raises(TypeError):
            FullSpaceSensorSet(dim=2)

    @pytest.mark.parametrize("n", [0, MAX_TRUNCATION + 1])
    def test_truncation_range(self, n):
        with pytest.raises(ValueError, match="truncation"):
            mass_matrix(FullSpaceSensorSet(), n)


class TestGramian:
    def test_full_space_diagonal_entries(self):
        T = 0.7
        G = observability_gramian(mass_matrix(FullSpaceSensorSet(), 6), T)
        lam = np.arange(6) + 0.5
        expected = np.diag(-np.expm1(-2.0 * lam * T) / (2.0 * lam))
        assert np.allclose(G, expected, rtol=1e-14, atol=0.0)

    def test_zero_time_vanishes(self):
        G = observability_gramian(mass_matrix(sensor_periodic(1.0, 0.5), 8), 0.0)
        assert np.array_equal(G, np.zeros((8, 8)))

    @pytest.mark.parametrize("T", [0.05, 1.0])
    def test_positive_semidefinite(self, T):
        G = observability_gramian(mass_matrix(sensor_periodic(1.0, 0.5), 24), T)
        eigs = np.linalg.eigvalsh(G)
        assert eigs[0] >= -1e-10 * eigs[-1]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            observability_gramian(mass_matrix(FullSpaceSensorSet(), 4), -0.1)


def c_obs_at(omega, T, n_trunc):
    """The observability constant at one time, from a one-point scan."""
    return observability_scan(omega, [T], n_trunc).c_obs[0]


class TestEmpiricalConstant:
    def test_diagonal_constant_is_first_rate(self):
        # 2 lam / (e^{2 lam T} - 1) is decreasing in lam, so n = 0 wins
        for T in T_GRID:
            assert diagonal_constant(T, 40) == pytest.approx(
                1.0 / math.expm1(T), rel=1e-14
            )

    @pytest.mark.parametrize("T", T_GRID)
    def test_full_space_pencil_matches_closed_form(self, T):
        c = c_obs_at(FullSpaceSensorSet(), T, 40)
        assert c == pytest.approx(1.0 / math.expm1(T), rel=1e-10)

    def test_monotone_in_time(self):
        omega = sensor_periodic(1.0, 0.5)
        assert c_obs_at(omega, 1.0, 24) <= c_obs_at(omega, 0.5, 24)

    def test_monotone_in_sensor(self):
        # fill 3/4 contains fill 1/2, so observing more can only help
        c_small = c_obs_at(sensor_periodic(1.0, 0.5), 0.5, 24)
        c_large = c_obs_at(sensor_periodic(1.0, 0.75), 0.5, 24)
        assert c_large <= c_small * (1.0 + 1e-12)

    def test_sensor_dominates_full_space(self):
        c_sub = c_obs_at(sensor_periodic(1.0, 0.5), 0.5, 24)
        assert c_sub >= diagonal_constant(0.5, 24)

    def test_thin_sensor_raises(self):
        thin = IntervalSensorSet([(0.0, 1e-8)], "sliver")
        with pytest.raises(GramianError, match="too thin"):
            c_obs_at(thin, 1.0, 40)

    def test_details_report_conditioning(self):
        report = observability_scan(sensor_periodic(1.0, 0.5), [0.5], 24)
        assert report.conditioning[0] >= 1.0

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            c_obs_at(FullSpaceSensorSet(), 0.0, 8)

    @pytest.mark.parametrize("fill", [0.5, 0.75])
    def test_pencil_top_matches_scipy(self, fill):
        linalg = pytest.importorskip("scipy.linalg")
        mass = mass_matrix(sensor_periodic(1.0, fill), 40)
        energy_rates = 2.0 * (np.arange(40) + 0.5)
        for T in T_GRID:
            gramian = observability_gramian(mass, T)
            energy = np.exp(-energy_rates * T)
            top = observability._pencil_top(energy, gramian)[0]
            want = linalg.eigvalsh(np.diag(energy), gramian)[-1]
            assert top == pytest.approx(want, rel=1e-13), T

    def test_failed_cholesky_is_gramian_error(self, monkeypatch):
        def no_factor(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", no_factor)
        with pytest.raises(GramianError, match="Cholesky"):
            c_obs_at(sensor_periodic(1.0, 0.5), 0.5, 24)


class TestScan:
    def test_periodic_scan_report(self):
        report = observability_scan(sensor_periodic(1.0, 0.5), T_GRID, 40)
        assert isinstance(report, ObservabilityReport)
        assert report.monotone and report.passed
        assert all(m > 0 for m in report.log_margins)
        assert len(report.c_obs) == len(T_GRID)
        assert all(c > 0 for c in report.c_obs)
        assert all(k >= 1.0 for k in report.conditioning)
        data = json.loads(json.dumps(_jsonable(report)))
        assert data["n_trunc"] == 40
        assert data["monotone"] is True

    def test_full_space_scan_matches_oracle(self):
        report = observability_scan(FullSpaceSensorSet(), T_GRID, 40)
        for t, c in zip(report.t_grid, report.c_obs):
            assert c == pytest.approx(1.0 / math.expm1(t), rel=1e-10)
        assert report.passed
        assert all(abs(m) < 1e-12 for m in report.log_margins)

    def test_underflowing_full_line_constant_raises(self):
        # 1 / (e^T - 1) is subnormal in double precision past T ~ 708.4
        assert observability_scan(FullSpaceSensorSet(), (1.0, 708.0), 8).passed
        with pytest.raises(NumericalError, match="float range"):
            observability_scan(FullSpaceSensorSet(), (1.0, 709.0), 8)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            observability_scan(FullSpaceSensorSet(), (1.0, 0.5), 8)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            observability_scan(FullSpaceSensorSet(), (), 8)
