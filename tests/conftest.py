import numpy as np
import pytest

from gsaudit.hermite import SpectralFunction, _log
from gsaudit.uncertainty import STEPS

# one line per acceptance criterion, filled in by test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def basis_function(degree: int) -> SpectralFunction:
    """Pure basis element h_n."""
    c = np.zeros(int(degree) + 1)
    c[-1] = 1.0
    return SpectralFunction(c)


def random_expansion(seed: int, degree: int) -> SpectralFunction:
    """Seeded random expansion with unit L2 norm."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(degree + 1)
    return SpectralFunction(c / np.linalg.norm(c))


def step_holds(name: str, lhs: float, rhs: float) -> bool:
    """The verdict of uncertainty step name on the sides lhs <= rhs, as the
    pipeline derives it: in logs, with the slack STEPS gives the step."""
    return _log(lhs) <= _log(rhs) + STEPS[name]


def step_of(report, name: str):
    """The step record of an uncertainty report with this name."""
    return next(s for s in report.steps if s.name == name)


def depth_oracle(lo, hi, extent: float):
    """Brute-force (kappa, uncovered measure) of the open intervals (lo, hi).

    Probes every interval end, +-extent and the midpoint of every pair of
    neighbouring distinct such points, and counts the intervals holding each
    probe in one points x intervals comparison. kappa is the largest count;
    the uncovered measure adds up the stretches between neighbours inside
    [-extent, extent] whose midpoint lies in no interval.
    """
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    points = np.unique(np.concatenate([lo, hi, [-extent, extent]]))
    mids = (points[1:] + points[:-1]) / 2
    probes = np.concatenate([points, mids])
    depth = np.sum((probes[:, None] > lo[None, :]) & (probes[:, None] < hi[None, :]), axis=1)
    gaps = (depth[len(points):] == 0) & (np.abs(mids) < extent)
    return int(depth.max()), float(np.sum(np.diff(points)[gaps]))


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
