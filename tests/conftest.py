"""Shared fixtures for the tegkit test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.teg.array import TEGArray
from repro.teg.datasheet import TGM_199_1_4_0_8


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running example scripts"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def gradient_delta_t() -> np.ndarray:
    """Radiator-like exponential dT profile over 20 modules."""
    x = np.linspace(0.0, 1.0, 20)
    return 12.0 + 55.0 * np.exp(-2.2 * x)


@pytest.fixture
def small_array(gradient_delta_t: np.ndarray) -> TEGArray:
    """20-module array on the gradient profile."""
    array = TEGArray(TGM_199_1_4_0_8, gradient_delta_t.size)
    array.set_delta_t(gradient_delta_t)
    return array


@pytest.fixture
def module_params(small_array: TEGArray):
    """(emf, resistance) vectors of the small array."""
    return small_array.emf_vector(), small_array.resistance_vector()


@pytest.fixture(scope="session")
def walk_edge_currents() -> dict:
    """MPP-current vectors at the accumulation walk's edges, by name.

    Each holds a negative or NaN current, so the greedy partition
    takes the back-biased walk.  All but ``long`` have 34 modules, so
    they also stack into one ``(C, N)`` grid.
    """
    rng = np.random.default_rng(1804)
    n = 34
    signed_zeros = rng.uniform(0.05, 1.0, n)
    signed_zeros[5:8] = [0.0, -0.25, -0.0]
    signed_zeros[14:18] = [-0.0, -0.1, 0.0, -0.0]
    signed_zeros[30:] = [0.0, -0.0, -0.05, 0.0]
    nan = rng.uniform(-0.2, 1.0, n)
    nan[[0, 13, 33]] = np.nan
    # All modules back-biased: a dead array's [1, N] window.
    dead = -rng.uniform(0.0, 0.5, n)
    dead[[3, 4]] = -0.0
    # For four groups the first closes at module 1 on an error rise;
    # the second accumulates the small run and one large current until
    # the tail clamp binds, which then forces the last group.
    tail_clamp = np.concatenate(([5.0, -0.01], np.full(29, 1e-3), [5.0] * 3))
    # Currents below half an ulp of the running sum leave it unchanged:
    # equal errors, which the walk breaks by extending.
    sub_ulp = np.concatenate(
        ([1.0, -1e-3], np.full(12, 1e-17), [0.7], np.full(10, 1e-20),
         rng.uniform(0.5, 1.0, 8), [1.0])
    )
    # The measured shape of sensed radiator chains: about a fifth of the
    # modules slightly back-biased among larger positive currents.
    long = rng.uniform(0.05, 0.4, 400)
    long[rng.uniform(size=long.size) < 0.21] = -0.037
    return {
        "signed_zeros": signed_zeros,
        "nan": nan,
        "dead": dead,
        "tail_clamp": tail_clamp,
        "sub_ulp": sub_ulp,
        "long": long,
    }
