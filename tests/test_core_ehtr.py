"""Tests for repro.core.ehtr — the reconstructed prior-work baseline."""

import numpy as np
import pytest

from repro.core.ehtr import ehtr
from repro.core.exhaustive import best_partition_brute_force
from repro.core.inor import inor
from repro.errors import ConfigurationError


def decaying_field(n: int, seed: int = 0) -> tuple:
    rng = np.random.default_rng(seed)
    delta_t = 12.0 + 55.0 * np.exp(-2.2 * np.linspace(0, 1, n))
    delta_t += rng.normal(0.0, 1.5, n)
    return 0.075 * delta_t, np.full(n, 2.9)


class TestEHTR:
    def test_returns_valid_configuration(self):
        emf, res = decaying_field(25)
        result = ehtr(emf, res)
        assert result.config.n_modules == 25
        assert sum(result.config.group_sizes) == 25

    def test_near_optimal_on_small_chain(self):
        for seed in range(4):
            emf, res = decaying_field(12, seed)
            exact = best_partition_brute_force(emf, res)
            result = ehtr(emf, res)
            assert result.mpp.power_w >= 0.97 * exact.mpp.power_w

    def test_raw_power_at_least_inor_raw(self):
        """EHTR scans every n and refines, so its *electrical* MPP
        should not lose to INOR's restricted scan."""
        emf, res = decaying_field(40, 3)
        e = ehtr(emf, res)
        i = inor(emf, res, n_min=6, n_max=14)
        assert e.mpp.power_w >= i.mpp.power_w * (1.0 - 1e-9)

    def test_refinement_improves_or_matches_greedy(self):
        emf, res = decaying_field(30, 1)
        refined = ehtr(emf, res)
        unrefined = ehtr(emf, res, max_sweeps_per_n=0)
        assert refined.mpp.power_w >= unrefined.mpp.power_w * (1.0 - 1e-12)

    def test_sweep_count_reported(self):
        emf, res = decaying_field(30, 1)
        result = ehtr(emf, res)
        assert result.refinement_sweeps > 0

    def test_slower_than_inor(self):
        """The complexity story of the paper: EHTR pays a big runtime
        premium over INOR at N = 100."""
        import time

        emf, res = decaying_field(100, 2)
        t0 = time.perf_counter()
        ehtr(emf, res)
        t_ehtr = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(5):
            inor(emf, res, n_min=8, n_max=16)
        t_inor = (time.perf_counter() - t0) / 5
        assert t_ehtr > 3.0 * t_inor

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ConfigurationError):
            ehtr(np.ones(5), np.ones(4))

    def test_deterministic(self):
        emf, res = decaying_field(30, 4)
        a = ehtr(emf, res)
        b = ehtr(emf, res)
        assert a.config == b.config
