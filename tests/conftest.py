import numpy as np
import pytest

from gsaudit.hermite import SpectralFunction

# one line per acceptance criterion, filled in by test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_expansion(seed: int, degree: int) -> SpectralFunction:
    """Seeded random expansion with unit L2 norm."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(degree + 1)
    return SpectralFunction(c / np.linalg.norm(c))


@pytest.fixture
def rng():
    return np.random.default_rng(20230817)
