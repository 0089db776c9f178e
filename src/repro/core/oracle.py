"""Oracle DNOR — Algorithm 2 with perfect future knowledge.

Replaces the MLR forecast inside the DNOR decision with the *actual*
future temperature distribution.  The oracle is unrealisable on a
vehicle, but it bounds from above what any better predictor could buy:
if MLR-DNOR harvests within a hair of oracle-DNOR, prediction accuracy
is not the binding constraint — the paper's implicit argument for
settling on a simple linear model.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import ArrayConfiguration
from repro.core.controller import EpochClock, ReconfigurationPolicy
from repro.core.dnor import DNORPlanner
from repro.errors import ConfigurationError
from repro.prediction.base import LagSeriesPredictor


class _OracleForecaster(LagSeriesPredictor):
    """A 'predictor' that replays a known future.

    The closed-loop simulator advances one row per control period;
    this forecaster is driven by :class:`OracleDNORPolicy`, which tells
    it the current row index before every plan() call.
    """

    def __init__(self, future_temps: np.ndarray) -> None:
        super().__init__(lags=1, train_window=None)
        self._future = np.asarray(future_temps, dtype=float)
        if self._future.ndim != 2:
            raise ConfigurationError(
                f"future_temps must be 2-D, got shape {self._future.shape}"
            )
        self._cursor = 0

    @property
    def name(self) -> str:
        """Display name."""
        return "Oracle"

    def set_cursor(self, row_index: int) -> None:
        """Position the oracle at the current simulation row."""
        if not 0 <= row_index < self._future.shape[0]:
            raise ConfigurationError(
                f"row_index {row_index} out of range for "
                f"{self._future.shape[0]} rows"
            )
        self._cursor = int(row_index)

    def _fit_impl(self, history: np.ndarray) -> None:
        # Nothing to learn: the future is known.
        return None

    def _predict_one_step(self, window: np.ndarray) -> np.ndarray:
        raise NotImplementedError  # forecast() is overridden

    def forecast(self, history: np.ndarray, n_steps: int) -> np.ndarray:
        """Return the true next ``n_steps`` rows (clamped at the end)."""
        if n_steps < 1:
            raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
        rows = []
        for k in range(1, n_steps + 1):
            idx = min(self._cursor + k, self._future.shape[0] - 1)
            rows.append(self._future[idx])
        return np.vstack(rows)


class OracleDNORPolicy(ReconfigurationPolicy):
    """DNOR with the forecast replaced by ground truth.

    Parameters
    ----------
    planner:
        A planner whose predictor IS an oracle built over the full
        per-step temperature matrix (use :func:`make_oracle_policy`).
    future_temps:
        ``(n_steps, N)`` true module temperatures, one row per control
        period, aligned with the simulation's trace.
    """

    def __init__(self, planner: DNORPlanner, future_temps: np.ndarray) -> None:
        if not isinstance(planner.predictor, _OracleForecaster):
            raise ConfigurationError(
                "planner must be built around the oracle forecaster; "
                "use make_oracle_policy()"
            )
        self._planner = planner
        self._future = np.asarray(future_temps, dtype=float)
        self._history: list = []
        self._current: Optional[ArrayConfiguration] = None
        self._clock = EpochClock(planner.epoch_seconds)
        self._step = 0
        self._switch_count = 0

    @property
    def name(self) -> str:
        """Scheme name."""
        return "OracleDNOR"

    @property
    def planner(self) -> DNORPlanner:
        """The decision engine."""
        return self._planner

    def decide(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[ArrayConfiguration]:
        """Epoch decisions exactly like DNOR, with the true future."""
        self._history.append(np.asarray(module_temps_c, dtype=float))
        step = self._step
        self._step += 1
        if not self._clock.due(time_s):
            return None

        oracle: _OracleForecaster = self._planner.predictor  # type: ignore[assignment]
        oracle.set_cursor(min(step, self._future.shape[0] - 1))
        history = np.vstack(self._history[-8:])
        decision = self._planner.plan(history, ambient_c, self._current)
        if decision.switch:
            self._current = decision.config
            self._switch_count += 1
            return decision.config
        return None

    def reset(self) -> None:
        """Clear history and epoch state."""
        self._history = []
        self._current = None
        self._clock.reset()
        self._step = 0
        self._switch_count = 0


def make_oracle_policy(scenario, future_temps: np.ndarray) -> OracleDNORPolicy:
    """Build an oracle-DNOR policy for a scenario.

    Parameters
    ----------
    scenario:
        A :class:`repro.sim.scenario.Scenario`; supplies module,
        charger, overhead and horizon settings.
    future_temps:
        The true per-step module temperatures the simulator will
        produce (e.g. from
        :func:`repro.sim.ideal.ideal_power_series`-style precomputation
        of the radiator at the trace's true boundary conditions).
    """
    planner = DNORPlanner(
        module=scenario.module,
        charger=scenario.make_charger(with_battery=False),
        overhead=scenario.overhead,
        predictor=_OracleForecaster(future_temps),
        tp_seconds=scenario.tp_seconds,
        sample_dt_s=scenario.trace.dt_s,
    )
    return OracleDNORPolicy(planner, future_temps)
