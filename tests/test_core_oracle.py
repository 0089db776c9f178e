"""Tests for repro.core.oracle — DNOR with perfect foresight."""

import numpy as np
import pytest

from repro.core.oracle import OracleDNORPolicy, _OracleForecaster, make_oracle_policy
from repro.errors import ConfigurationError
from repro.sim.scenario import default_scenario


@pytest.fixture(scope="module")
def scenario():
    return default_scenario(duration_s=60.0, seed=2018, n_modules=100)


@pytest.fixture(scope="module")
def true_temps(scenario):
    """Per-step effective module temperatures the simulator produces."""
    trace = scenario.trace
    rows = np.empty((trace.n_samples, scenario.n_modules))
    for i in range(trace.n_samples):
        op = scenario.boundary.operating_point(
            coolant_inlet_c=float(trace.coolant_inlet_c[i]),
            coolant_flow_kg_s=float(trace.coolant_flow_kg_s[i]),
            ambient_c=float(trace.ambient_c[i]),
            air_flow_kg_s=float(trace.air_flow_kg_s[i]),
            n_modules=scenario.n_modules,
        )
        rows[i] = float(trace.ambient_c[i]) + op.delta_t_k
    return rows


class TestOracleForecaster:
    def test_returns_true_future(self, true_temps):
        oracle = _OracleForecaster(true_temps)
        oracle.fit(true_temps[:10])
        oracle.set_cursor(10)
        forecast = oracle.forecast(true_temps[:11], 2)
        assert np.allclose(forecast[0], true_temps[11])
        assert np.allclose(forecast[1], true_temps[12])

    def test_clamps_at_end(self, true_temps):
        oracle = _OracleForecaster(true_temps)
        oracle.fit(true_temps[:10])
        oracle.set_cursor(true_temps.shape[0] - 1)
        forecast = oracle.forecast(true_temps, 3)
        assert np.allclose(forecast, true_temps[-1])

    def test_cursor_validation(self, true_temps):
        oracle = _OracleForecaster(true_temps)
        with pytest.raises(ConfigurationError):
            oracle.set_cursor(true_temps.shape[0])

    def test_rejects_1d(self):
        with pytest.raises(ConfigurationError):
            _OracleForecaster(np.ones(5))


class TestOraclePolicy:
    def test_requires_oracle_planner(self, scenario, true_temps):
        with pytest.raises(ConfigurationError):
            OracleDNORPolicy(
                scenario.make_dnor_policy().planner, true_temps
            )

    def test_runs_closed_loop(self, scenario, true_temps):
        simulator = scenario.make_simulator()
        policy = make_oracle_policy(scenario, true_temps)
        result = simulator.run(policy, scenario.make_charger())
        assert result.energy_output_j > 0.0
        assert result.scheme == "OracleDNOR"

    def test_oracle_bounds_mlr_dnor(self, scenario, true_temps):
        """Perfect foresight cannot lose much to MLR-DNOR — and if MLR
        is any good, it cannot lose much to the oracle either.

        Sensing noise and the clipped oracle history introduce small
        asymmetries, so the comparison carries a 2% band rather than a
        strict inequality.
        """
        simulator = scenario.make_simulator()
        oracle = simulator.run(
            make_oracle_policy(scenario, true_temps), scenario.make_charger()
        )
        mlr = simulator.run(scenario.make_dnor_policy(), scenario.make_charger())
        ratio = mlr.energy_output_j / oracle.energy_output_j
        assert 0.98 < ratio < 1.02

    def test_reset_allows_reuse(self, scenario, true_temps):
        simulator = scenario.make_simulator()
        policy = make_oracle_policy(scenario, true_temps)
        first = simulator.run(policy, scenario.make_charger())
        second = simulator.run(policy, scenario.make_charger())
        # Delivered power is bit-identical; the overhead bill includes
        # measured wall-clock compute time, so net energy may jitter at
        # the micro-joule scale between runs.
        assert np.allclose(first.delivered_power_w, second.delivered_power_w)
        assert first.switch_count == second.switch_count
        assert first.energy_output_j == pytest.approx(
            second.energy_output_j, rel=1e-3
        )
