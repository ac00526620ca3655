import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kreinsplit import GridSpec, compare, load_scenario

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"

#: Angle/coupling corpus for the generated degenerate-multiplier matrices.
#: Couplings need nonzero trace to produce a genuine one-chain (traceless
#: C makes the double multiplier semisimple).
THETAS = (np.pi / 6, np.pi / 3, np.pi / 2, 2 * np.pi / 3, 5 * np.pi / 6)
COUPLINGS = (
    np.eye(2),
    np.array([[1.0, 1.0], [1.0, 0.0]]),
    np.diag([2.0, 1.0]),
    np.array([[2.0, 1.0], [1.0, 1.0]]),
)
SEMISIMPLE_COUPLINGS = (
    np.zeros((2, 2)),
    np.diag([1.0, -1.0]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
)


@pytest.fixture(scope="session")
def pi3_scenario():
    return load_scenario(SCENARIOS / "jordan_pi3.json")


@pytest.fixture(scope="session")
def pi3_neg_scenario():
    return load_scenario(SCENARIOS / "jordan_pi3_neg.json")


@pytest.fixture(scope="session")
def resonant_scenario():
    return load_scenario(SCENARIOS / "resonant_eps.json")


def _timed_compare(scenario, **kwargs):
    start = time.perf_counter()
    report = compare(scenario, **kwargs)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def pi3_report(pi3_scenario):
    """Full t-mode comparison on the reference scenario, with wall time."""
    return _timed_compare(pi3_scenario, mode="t")


@pytest.fixture(scope="session")
def pi3_neg_report(pi3_neg_scenario):
    return _timed_compare(pi3_neg_scenario, mode="t")


@pytest.fixture(scope="session")
def pi3_halved_report(pi3_scenario):
    """Same scenario with the top of the t-grid halved (grid-refinement
    stability checks)."""
    halved = replace(pi3_scenario, t_grid=GridSpec(lo=1e-7, hi=5e-4, count=16))
    return _timed_compare(halved, mode="t")


@pytest.fixture(scope="session")
def resonant_report(resonant_scenario):
    return _timed_compare(resonant_scenario, mode="eps")
