"""Tests for repro.sim.simulator and repro.sim.scenario."""

import numpy as np
import pytest

from repro.sim.ideal import ideal_power_series
from repro.sim.scenario import default_scenario


@pytest.fixture(scope="module")
def scenario():
    # 36 modules keeps the square baseline valid and the run fast.
    return default_scenario(duration_s=40.0, seed=5, n_modules=36)


@pytest.fixture(scope="module")
def results(scenario):
    simulator = scenario.make_simulator()
    return {
        name: simulator.run(policy, scenario.make_charger())
        for name, policy in scenario.make_policies().items()
        if name != "EHTR"  # EHTR covered separately (slow)
    }


class TestRunMechanics:
    def test_series_lengths(self, scenario, results):
        n = scenario.trace.n_samples
        for result in results.values():
            assert result.time_s.shape == (n,)
            assert result.delivered_power_w.shape == (n,)
            assert result.ideal_power_w.shape == (n,)

    def test_powers_positive(self, results):
        for result in results.values():
            assert np.all(result.delivered_power_w >= 0.0)
            assert np.all(result.gross_power_w > 0.0)

    def test_delivered_below_gross(self, results):
        for result in results.values():
            assert np.all(
                result.delivered_power_w <= result.gross_power_w + 1e-9
            )

    def test_gross_below_ideal(self, results):
        for result in results.values():
            assert np.all(result.gross_power_w <= result.ideal_power_w * (1 + 1e-9))

    def test_scheme_names(self, results):
        assert results["DNOR"].scheme == "DNOR"
        assert results["Baseline"].scheme == "Baseline"


class TestSchemeBehaviour:
    def test_baseline_never_switches(self, results):
        assert results["Baseline"].switch_count == 0
        assert results["Baseline"].switch_overhead_j == 0.0

    def test_baseline_group_count_constant(self, results):
        groups = results["Baseline"].n_groups_series
        assert np.all(groups == 6)  # sqrt(36)

    def test_inor_pays_overhead_every_period(self, scenario, results):
        # First application is free; every later period is billed.
        assert results["INOR"].switch_count == scenario.trace.n_samples - 1

    def test_dnor_switches_sparse(self, results):
        assert results["DNOR"].switch_count < results["INOR"].switch_count / 5

    def test_reconfig_beats_baseline(self, results):
        assert (
            results["INOR"].energy_output_j > results["Baseline"].energy_output_j
        )
        assert (
            results["DNOR"].energy_output_j > results["Baseline"].energy_output_j
        )

    def test_runtimes_recorded(self, results):
        assert results["INOR"].average_runtime_ms > 0.0
        assert results["DNOR"].average_runtime_ms > 0.0


class TestDeterminismKnob:
    def test_nominal_compute_makes_overhead_reproducible(self):
        scenario_a = default_scenario(
            duration_s=20.0, seed=9, n_modules=25, nominal_compute_s=2.0e-3
        )
        scenario_b = default_scenario(
            duration_s=20.0, seed=9, n_modules=25, nominal_compute_s=2.0e-3
        )
        res_a = scenario_a.make_simulator().run(
            scenario_a.make_inor_policy(), scenario_a.make_charger()
        )
        res_b = scenario_b.make_simulator().run(
            scenario_b.make_inor_policy(), scenario_b.make_charger()
        )
        assert res_a.switch_overhead_j == pytest.approx(res_b.switch_overhead_j)
        assert np.allclose(res_a.delivered_power_w, res_b.delivered_power_w)


class TestIdealSeries:
    def test_matches_simulator_ideal(self, scenario, results):
        standalone = ideal_power_series(
            scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
        )
        assert np.allclose(standalone, results["Baseline"].ideal_power_w)

    def test_policy_reuse_is_safe(self, scenario):
        """Running the same policy twice must give identical results
        (reset() works)."""
        simulator = scenario.make_simulator()
        policy = scenario.make_inor_policy()
        first = simulator.run(policy, scenario.make_charger())
        second = simulator.run(policy, scenario.make_charger())
        assert first.switch_count == second.switch_count
        assert np.allclose(first.delivered_power_w, second.delivered_power_w)


class TestScenarioFactories:
    def test_policies_cover_four_schemes(self, scenario):
        policies = scenario.make_policies()
        assert set(policies) == {"DNOR", "INOR", "EHTR", "Baseline"}

    def test_chargers_are_fresh(self, scenario):
        a = scenario.make_charger()
        b = scenario.make_charger()
        assert a is not b
        assert a.battery is not b.battery

    def test_scanner_seeded(self, scenario):
        temps = np.full(36, 70.0)
        assert np.array_equal(
            scenario.make_scanner().scan(temps), scenario.make_scanner().scan(temps)
        )
