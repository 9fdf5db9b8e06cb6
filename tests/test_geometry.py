"""Geometry: profiles, greedy coverings, sensor sets, density certification.
Oracles: brute-force membership counting and direct interval measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import depth_oracle
from gsaudit.geometry import (
    OVERLAP_CAP,
    FullSpaceSensorSet,
    IntervalSensorSet,
    RadiusProfile,
    _sweep,
    besicovitch_cover,
    certify_density,
    sensor_decaying_density,
    sensor_periodic,
)

QUARTERS = st.integers(min_value=-40, max_value=40)


@st.composite
def interval_families(draw):
    # ends on the quarter grid, so ties are exact: a chain of touching
    # intervals, free intervals, and duplicates of both
    cuts = sorted(draw(st.lists(QUARTERS, max_size=6, unique=True)))
    family = list(zip(cuts, cuts[1:]))
    free = draw(st.lists(st.tuples(QUARTERS, st.integers(min_value=1, max_value=20)), max_size=10))
    family += [(a, a + n) for a, n in free]
    if family:
        family += draw(st.lists(st.sampled_from(family), max_size=4))
    lo = np.array([a for a, _ in family], dtype=float) / 4
    hi = np.array([b for _, b in family], dtype=float) / 4
    return lo, hi, draw(st.integers(min_value=1, max_value=60)) / 4


class TestRadiusProfile:
    def test_default_profile_at_origin(self):
        p = RadiusProfile(R=1.0, delta=0.0, eta=0.5, r0=1.0)
        assert p.rho(0.0) == pytest.approx(0.5)

    def test_linear_growth_capped(self):
        p = RadiusProfile(R=1.0, delta=1.0, eta=0.5, r0=1.0)
        # min(sqrt(101), 5) = 5
        assert p.rho(10.0) == pytest.approx(5.0)
        assert p.rho(-10.0) == pytest.approx(5.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RadiusProfile(R=0.5)
        with pytest.raises(ValueError):
            RadiusProfile(delta=1.5)
        with pytest.raises(ValueError):
            RadiusProfile(eta=1.0)
        with pytest.raises(ValueError):
            RadiusProfile(r0=0.25)

    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=1.0, max_value=4.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_both_hypotheses_hold_everywhere(self, R, delta, eta, r0, seed):
        # growth bound and relative smallness at a million random points
        p = RadiusProfile(R=R, delta=delta, eta=eta, r0=r0)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1e3, 1e3, size=1_000_000)
        rho = p.rho(x)
        assert np.all(rho > 0)
        assert np.all(rho <= R * (1 + x**2) ** (delta / 2) + 1e-12)
        outside = np.abs(x) >= r0
        assert np.all(rho[outside] <= eta * np.abs(x[outside]) + 1e-12)

    def test_smallness_automatic_when_delta_below_one(self):
        # with r0 = (4R)^(1/(1-delta)) and eta = 1/2 the growth branch alone
        # already satisfies rho(x) <= |x|/2 outside B(0, r0)
        R, delta = 1.5, 0.5
        r0 = (4 * R) ** (1 / (1 - delta))
        x = np.linspace(r0, 1e4, 100000)
        growth = R * (1 + x**2) ** (delta / 2)
        assert np.all(growth <= 0.5 * x + 1e-9)


class TestBesicovitchCover:
    def test_unit_radius_lattice_overlap_two(self):
        # rho == 1 everywhere on the covered region
        p = RadiusProfile(R=1.0, delta=0.0, eta=0.5, r0=2.0)
        cov = besicovitch_cover(p, r=3.0)
        assert np.all(np.abs(cov.centers) < cov.target_radius)
        assert np.allclose(cov.radii, 1.0)
        # brute-force overlap count on a fresh sample set
        rng = np.random.default_rng(7)
        pts = rng.uniform(-cov.target_radius, cov.target_radius, size=10000)
        counts = np.sum(
            np.abs(pts[:, None] - cov.centers[None, :]) < cov.radii[None, :], axis=1
        )
        assert counts.min() >= 1
        assert counts.max() == cov.kappa_measured == 2

    @settings(max_examples=200, deadline=None)
    @given(interval_families())
    def test_sweep_matches_broadcast(self, family):
        lo, hi, extent = family
        kappa, uncovered = _sweep(lo, hi, extent)
        assert (kappa, uncovered) == depth_oracle(lo, hi, extent)

    @pytest.mark.parametrize(
        "profile, r",
        [
            (RadiusProfile(R=2.0, delta=0.1, eta=0.75, r0=1.0), 6.1),
            (RadiusProfile(R=3.0, delta=0.5, eta=0.6, r0=1.5), 19.3),
            (RadiusProfile(R=3.0, delta=0.5, eta=0.75, r0=1.5), 44.1),
        ],
    )
    def test_narrow_triple_overlap_counted(self, profile, r):
        # each covering holds a stretch of depth 3 under 0.012 wide, narrow
        # enough for a sampled count to miss
        cov = besicovitch_cover(profile, r)
        lo, hi = cov.centers - cov.radii, cov.centers + cov.radii
        assert cov.kappa_measured == 3
        assert depth_oracle(lo, hi, cov.target_radius) == (3, 0.0)

    def test_coverage_and_overlap_default_profile(self):
        p = RadiusProfile()
        cov = besicovitch_cover(p, r=5.0)
        lo, hi = cov.centers - cov.radii, cov.centers + cov.radii
        kappa, uncovered = depth_oracle(lo, hi, cov.target_radius)
        assert cov.kappa_measured == kappa <= OVERLAP_CAP
        assert cov.uncovered_measure == uncovered == 0.0

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            besicovitch_cover(RadiusProfile(), r=0.5)

    def test_growing_radius_profile(self):
        p = RadiusProfile(R=1.0, delta=0.5, eta=0.5, r0=1.0)
        cov = besicovitch_cover(p, r=4.0)
        assert cov.uncovered_measure == 0.0
        assert cov.kappa_measured <= OVERLAP_CAP
        # radii match the profile at the centers
        assert np.allclose(cov.radii, p.rho(cov.centers))

    def test_rim_covered_at_both_ends(self):
        # The outermost grid candidates sit up to two steps inside the rim;
        # here the greedy balls alone stop a full step short of +target_radius.
        cov = besicovitch_cover(RadiusProfile(), 25.95)
        assert np.min(cov.centers - cov.radii) < -cov.target_radius
        assert np.max(cov.centers + cov.radii) > cov.target_radius
        assert cov.uncovered_measure == 0.0
        assert cov.kappa_measured <= OVERLAP_CAP


class TestSensorSets:
    def test_periodic_measures(self):
        omega = sensor_periodic(1.0, 0.5, extent=50.0)
        measures = omega.measure_in_many([0.0, 0.25, -3.0], [10.0, 0.75, 3.0])
        assert measures == pytest.approx([5.0, 0.25, 3.0])

    def test_periodic_full_and_empty(self):
        assert isinstance(sensor_periodic(1.0, 1.0), FullSpaceSensorSet)
        empty = sensor_periodic(1.0, 0.0, extent=10.0)
        assert empty.measure_in_many([-10.0], [10.0]).tolist() == [0.0]

    def test_intersect_interval(self):
        omega = sensor_periodic(1.0, 0.5, extent=20.0)
        parts = omega.intersect_interval(0.25, 2.2)
        assert parts == [(0.25, 0.5), (1.0, 1.5), (2.0, 2.2)]

    def test_measure_in_many_matches_scalar(self):
        # each window's measure is the summed length of its intersection
        omega = sensor_periodic(0.7, 0.3, extent=30.0)
        rng = np.random.default_rng(5)
        a = rng.uniform(-20, 19, size=50)
        b = a + rng.uniform(0.0, 5.0, size=50)
        many = omega.measure_in_many(a, b)
        each = np.array([sum(e - s for s, e in omega.intersect_interval(x, y)) for x, y in zip(a, b)])
        assert np.allclose(many, each, atol=1e-12)

    def test_decaying_density_example(self):
        # gamma0 = 1/2, a = 1: local density near |x| = 3 at least 1/8
        p = RadiusProfile()
        omega = sensor_decaying_density(0.5, 1.0, p, extent=50.0)
        rho = p.rho(3.0)
        ratio = omega.measure_in_many([3.0 - rho], [3.0 + rho])[0] / (2 * rho)
        assert ratio >= 1.0 / 8.0


class TestDensityCertification:
    def test_periodic_half_fill_with_unit_windows(self):
        # windows of length 2 are two full periods: ratio exactly 1/2
        profile = RadiusProfile(R=1.0, delta=0.0, eta=0.5, r0=2.0)
        omega = sensor_periodic(1.0, 0.5, extent=60.0)
        report = certify_density(omega, profile, 0.5, extent=20.0)
        assert report.n_violations == 0
        assert report.min_ratio == pytest.approx(0.5, abs=1e-12)

    def test_quarter_windows_fall_in_gaps(self):
        profile = RadiusProfile(R=1.0, delta=0.0, eta=0.25, r0=1.0)
        omega = sensor_periodic(1.0, 0.5, extent=60.0)
        report = certify_density(omega, profile, 0.5, extent=20.0)
        assert report.n_violations != 0
        assert report.min_ratio < 1e-9  # some window misses omega entirely
        assert report.n_violations > 0

    def test_full_space_passes_any_gamma(self):
        report = certify_density(FullSpaceSensorSet(), RadiusProfile(), 1.0, extent=10.0)
        assert report.n_violations == 0 and report.min_ratio == 1.0

    def test_empty_set_rejected(self):
        omega = sensor_periodic(1.0, 0.0, extent=10.0)
        report = certify_density(omega, RadiusProfile(), 0.1, extent=5.0)
        assert report.n_violations != 0

    def test_monotone_under_superset(self):
        profile = RadiusProfile()
        small = sensor_periodic(1.0, 0.3, extent=60.0)
        large = sensor_periodic(1.0, 0.6, extent=60.0)
        r_small = certify_density(small, profile, 0.1, extent=15.0)
        r_large = certify_density(large, profile, 0.1, extent=15.0)
        assert r_large.min_ratio >= r_small.min_ratio - 1e-12

    def test_decaying_construction_certifies(self):
        profile = RadiusProfile()
        omega = sensor_decaying_density(0.5, 1.0, profile, extent=80.0)
        report = certify_density(omega, profile, (0.5, 1.0), extent=40.0)
        assert report.n_violations == 0, report.min_ratio

    def test_decaying_threshold_zero_a_constant(self):
        profile = RadiusProfile()
        omega = sensor_periodic(1.0, 0.5, extent=60.0)
        const = certify_density(omega, profile, 0.25, extent=15.0)
        decay0 = certify_density(omega, profile, (0.25, 0.0), extent=15.0)
        assert (const.n_violations == 0) == (decay0.n_violations == 0)
        assert const.min_ratio == pytest.approx(decay0.min_ratio)

    def test_invalid_gamma_rejected(self):
        with pytest.raises(ValueError):
            certify_density(FullSpaceSensorSet(), RadiusProfile(), 0.0, extent=5.0)
        with pytest.raises(ValueError):
            certify_density(FullSpaceSensorSet(), RadiusProfile(), 1.5, extent=5.0)
