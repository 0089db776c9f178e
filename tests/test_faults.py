"""Tests for the switch-fault model and fault-aware INOR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fault_aware import fault_aware_inor
from repro.core.inor import inor
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.teg.faults import FaultMask


def decaying_field(n=30, seed=0):
    rng = np.random.default_rng(seed)
    delta_t = 12.0 + 55.0 * np.exp(-2.2 * np.linspace(0, 1, n))
    delta_t += rng.normal(0.0, 1.0, n)
    return 0.075 * delta_t, np.full(n, 2.9)


class TestFaultMask:
    def test_healthy_mask(self):
        mask = FaultMask.healthy(10)
        assert mask.n_faults == 0
        assert mask.is_feasible(tuple(range(10)))
        assert mask.is_feasible((0,))

    def test_stuck_series_forces_boundary(self):
        mask = FaultMask(n_modules=10, stuck_series=frozenset({4}))
        assert mask.forced_boundaries() == (5,)
        assert mask.is_feasible((0, 5))
        assert not mask.is_feasible((0,))

    def test_stuck_parallel_forbids_boundary(self):
        mask = FaultMask(n_modules=10, stuck_parallel=frozenset({4}))
        assert mask.forbidden_boundaries() == (5,)
        assert not mask.is_feasible((0, 5))
        assert mask.is_feasible((0, 4, 6))

    def test_repair_adds_and_removes(self):
        mask = FaultMask(
            n_modules=10,
            stuck_series=frozenset({2}),
            stuck_parallel=frozenset({6}),
        )
        repaired = mask.repair((0, 7))
        assert mask.is_feasible(repaired)
        assert 3 in repaired      # forced
        assert 7 not in repaired  # forbidden

    def test_conflicting_fault_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultMask(
                n_modules=10,
                stuck_series=frozenset({3}),
                stuck_parallel=frozenset({3}),
            )

    def test_out_of_range_junction_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultMask(n_modules=10, stuck_series=frozenset({9}))

    def test_random_mask_reproducible(self):
        a = FaultMask.random(20, 2, 3, seed=5)
        b = FaultMask.random(20, 2, 3, seed=5)
        assert a == b
        assert a.n_faults == 5

    def test_random_mask_too_many_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultMask.random(5, 3, 2, seed=0)


class TestFaultAwareInor:
    def test_healthy_mask_near_plain_inor(self):
        emf, res = decaying_field()
        charger = TEGCharger()
        plain = inor(emf, res, charger=charger)
        aware = fault_aware_inor(
            emf, res, FaultMask.healthy(emf.size), charger=charger
        )
        assert aware.delivered_power_w >= 0.97 * plain.delivered_power_w

    def test_result_always_feasible(self):
        emf, res = decaying_field()
        charger = TEGCharger()
        for seed in range(6):
            mask = FaultMask.random(emf.size, 2, 3, seed=seed)
            result = fault_aware_inor(emf, res, mask, charger=charger)
            assert mask.is_feasible(result.config.starts)

    def test_plain_inor_infeasible_under_adversarial_faults(self):
        """The motivation: unconstrained INOR ignores stuck junctions.

        Build the mask *against* plain INOR's choice — forbid one of
        its boundaries — and check the fault-aware variant still finds
        a feasible, productive configuration."""
        emf, res = decaying_field()
        charger = TEGCharger()
        plain = inor(emf, res, charger=charger)
        forbidden_boundary = plain.config.starts[1]
        mask = FaultMask(
            n_modules=emf.size,
            stuck_parallel=frozenset({forbidden_boundary - 1}),
        )
        assert not mask.is_feasible(plain.config.starts)
        aware = fault_aware_inor(emf, res, mask, charger=charger)
        assert mask.is_feasible(aware.config.starts)
        assert aware.delivered_power_w > 0.9 * plain.delivered_power_w

    def test_graceful_degradation(self):
        """A handful of stuck switches costs percent, not halves."""
        emf, res = decaying_field()
        charger = TEGCharger()
        healthy = fault_aware_inor(
            emf, res, FaultMask.healthy(emf.size), charger=charger
        )
        worst = min(
            fault_aware_inor(
                emf, res, FaultMask.random(emf.size, 1, 2, seed=s), charger=charger
            ).delivered_power_w
            for s in range(8)
        )
        assert worst > 0.80 * healthy.delivered_power_w

    def test_mask_size_mismatch_rejected(self):
        emf, res = decaying_field()
        with pytest.raises(ConfigurationError):
            fault_aware_inor(emf, res, FaultMask.healthy(5))

    def test_all_parallel_stuck_chain(self):
        """Every junction stuck parallel: only the single group remains."""
        emf, res = decaying_field(10)
        mask = FaultMask(
            n_modules=10, stuck_parallel=frozenset(range(9))
        )
        result = fault_aware_inor(emf, res, mask)
        assert result.config.starts == (0,)

    def test_all_series_stuck_chain(self):
        """Every junction stuck series: only the all-series chain remains."""
        emf, res = decaying_field(10)
        mask = FaultMask(n_modules=10, stuck_series=frozenset(range(9)))
        result = fault_aware_inor(emf, res, mask)
        assert result.config.starts == tuple(range(10))


class TestFaultProperties:
    @given(
        st.integers(min_value=6, max_value=24),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_feasibility_invariant(self, n, n_series, n_parallel, seed):
        """fault_aware_inor output is feasible for any random mask."""
        if n_series + n_parallel > n - 1:
            return
        emf, res = decaying_field(n, seed=seed)
        mask = FaultMask.random(n, n_series, n_parallel, seed=seed)
        result = fault_aware_inor(emf, res, mask, charger=TEGCharger())
        assert mask.is_feasible(result.config.starts)
        assert result.mpp.power_w > 0.0
