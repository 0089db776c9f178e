"""Reconfiguration policies — the objects the simulator drives.

A policy sees, at every control period, the sensed module temperature
distribution and answers with either a new configuration to apply or
``None`` to keep the current one.  Four policies cover the paper's
four schemes:

* :class:`PeriodicPolicy` with ``algorithm="inor"`` — INOR at a fixed
  0.5 s period (the paper's INOR scheme).
* :class:`PeriodicPolicy` with ``algorithm="ehtr"`` — the prior-work
  baseline at the same period.
* :class:`DNORPolicy` — Algorithm 2 with prediction-gated switching.
* :class:`StaticPolicy` — the hard-wired grid baseline.
"""

from __future__ import annotations

import abc
from typing import Deque, Optional, Tuple
from collections import deque

import numpy as np

from repro.core.config import ArrayConfiguration
from repro.core.dnor import DNORDecision, DNORPlanner, thevenin_from_temps
from repro.core.ehtr import ehtr
from repro.core.inor import check_inor_kernel, inor
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.teg.model import ModuleModel


class EpochClock:
    """The periodic decision gate every control loop shares.

    Fires on the first sample, then on the first sample at least
    ``period_s`` after the previous firing; the 1 ns slack absorbs the
    rounding of accumulated sample times.  The policies, the fused grid
    schedule and the streaming sessions all gate through this one rule,
    so they fire on exactly the same samples.
    """

    __slots__ = ("period_s", "_next_s")

    def __init__(self, period_s: float) -> None:
        self.period_s = float(period_s)
        self._next_s = 0.0

    def due(self, time_s: float) -> bool:
        """Whether a decision fires at ``time_s``; re-arms when it does."""
        if time_s + 1.0e-9 < self._next_s:
            return False
        self._next_s = time_s + self.period_s
        return True

    def reset(self) -> None:
        """Fire again on the next sample."""
        self._next_s = 0.0


class ReconfigurationPolicy(abc.ABC):
    """Interface between the simulator and a reconfiguration scheme."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Scheme name as it appears in result tables."""

    @abc.abstractmethod
    def decide(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[ArrayConfiguration]:
        """Return a configuration to apply now, or ``None`` to keep.

        Called once per control period with the *sensed* hot-side
        temperature distribution.
        """

    def reset(self) -> None:
        """Forget internal state between simulation runs."""


class StaticPolicy(ReconfigurationPolicy):
    """A fixed configuration, applied once and never changed.

    The paper's baseline is ``StaticPolicy`` with the 10 x 10 grid.
    """

    def __init__(self, config: ArrayConfiguration, name: str = "Baseline") -> None:
        self._config = config
        self._name = name
        self._applied = False

    @property
    def name(self) -> str:
        """Scheme name."""
        return self._name

    @property
    def config(self) -> ArrayConfiguration:
        """The wired-in configuration."""
        return self._config

    def decide(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[ArrayConfiguration]:
        """Apply the fixed configuration on the first call only."""
        if self._applied:
            return None
        self._applied = True
        return self._config

    def reset(self) -> None:
        """Allow the initial application again."""
        self._applied = False


class PeriodicPolicy(ReconfigurationPolicy):
    """Run a reconfiguration algorithm at a fixed period.

    Parameters
    ----------
    module:
        TEG module model for the temperature -> Thevenin mapping.
    algorithm:
        ``"inor"`` or ``"ehtr"``.
    period_s:
        Reconfiguration period; the paper fixes 0.5 s following Kim et
        al. [5].
    charger:
        Supplied to INOR for its converter-aware ranking; EHTR (the
        prior work) ignores it by design.
    kernel:
        INOR candidate-evaluation kernel (``"batched"`` — the default
        fast path — or the ``"scalar"`` reference loop); bit-identical
        decisions either way.  EHTR ignores it.
    """

    def __init__(
        self,
        module: ModuleModel,
        algorithm: str = "inor",
        period_s: float = 0.5,
        charger: Optional[TEGCharger] = None,
        kernel: str = "batched",
    ) -> None:
        if algorithm not in ("inor", "ehtr"):
            raise ConfigurationError(
                f"algorithm must be 'inor' or 'ehtr', got {algorithm!r}"
            )
        if period_s <= 0.0:
            raise ConfigurationError(f"period_s must be > 0, got {period_s}")
        check_inor_kernel(kernel)
        self._module = module
        self._algorithm = algorithm
        self._charger = charger
        self._kernel = kernel
        self._clock = EpochClock(period_s)

    @property
    def name(self) -> str:
        """Scheme name."""
        return self._algorithm.upper()

    @property
    def period_s(self) -> float:
        """Reconfiguration period."""
        return self._clock.period_s

    def decide(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[ArrayConfiguration]:
        """Recompute the configuration whenever the period elapses."""
        if not self._clock.due(time_s):
            return None
        emf, res = thevenin_from_temps(self._module, module_temps_c, ambient_c)
        if self._algorithm == "inor":
            return inor(
                emf, res, charger=self._charger, kernel=self._kernel
            ).config
        return ehtr(emf, res).config

    def reset(self) -> None:
        """Restart the period clock."""
        self._clock.reset()


class DNORPolicy(ReconfigurationPolicy):
    """Algorithm 2 wired into the control loop.

    Collects the sensed temperature history at every control period and
    invokes the :class:`~repro.core.dnor.DNORPlanner` every
    ``t_p + 1`` seconds; between epochs the configuration is durable.

    Parameters
    ----------
    planner:
        The Algorithm 2 decision engine.
    history_rows:
        Maximum history kept for the predictor (rows of the control
        period's sampling).
    """

    def __init__(self, planner: DNORPlanner, history_rows: int = 360) -> None:
        if history_rows < 2:
            raise ConfigurationError(f"history_rows must be >= 2, got {history_rows}")
        self._planner = planner
        self._history: Deque[np.ndarray] = deque(maxlen=int(history_rows))
        self._current: Optional[ArrayConfiguration] = None
        self._clock = EpochClock(planner.epoch_seconds)
        self._timed_decisions: list = []
        self._rows_since_plan = 0

    @property
    def name(self) -> str:
        """Scheme name."""
        return "DNOR"

    @property
    def planner(self) -> DNORPlanner:
        """The decision engine."""
        return self._planner

    @property
    def decisions(self) -> Tuple[DNORDecision, ...]:
        """All epoch decisions taken so far (diagnostics)."""
        return tuple(decision for _, decision in self._timed_decisions)

    @property
    def switch_times_s(self) -> Tuple[float, ...]:
        """Simulation times of executed switches (Fig. 6/7 markers)."""
        return tuple(
            t for t, decision in self._timed_decisions if decision.switch
        )

    @property
    def current_config(self) -> Optional[ArrayConfiguration]:
        """The durable configuration of the running epoch (``None``
        before the first adoption) — the ``current`` argument an
        external epoch runner passes to the planner."""
        return self._current

    def observe(
        self, time_s: float, module_temps_c: np.ndarray
    ) -> Optional[Tuple[np.ndarray, int]]:
        """Record one sensed sample; report when an epoch is due.

        The sensing half of :meth:`decide`, split out so external
        epoch runners (the grid-stacked simulation fabric, the
        streaming hub's micro-batcher) can collect due epochs from many
        policies and plan them through one stacked
        :func:`~repro.core.dnor.dnor_stack` call.  Returns ``None``
        between epochs; at an epoch boundary, advances the epoch clock
        and returns ``(history, new_rows)`` — exactly the arguments
        :meth:`decide` would hand the planner.
        """
        self._history.append(np.asarray(module_temps_c, dtype=float))
        self._rows_since_plan += 1
        if not self._clock.due(time_s):
            return None
        history = np.vstack(self._history)
        new_rows = self._rows_since_plan
        self._rows_since_plan = 0
        return history, new_rows

    def commit(
        self, time_s: float, decision: DNORDecision
    ) -> Optional[ArrayConfiguration]:
        """Record an epoch decision; return the configuration on switch.

        The bookkeeping half of :meth:`decide`: external epoch runners
        feed back the (stacked or per-lane) planner decision and get
        the policy's contract answer — the new configuration to apply,
        or ``None`` to keep.
        """
        self._timed_decisions.append((time_s, decision))
        if decision.switch:
            self._current = decision.config
            return decision.config
        return None

    def decide(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[ArrayConfiguration]:
        """Record the sample; run an epoch decision when one is due."""
        due = self.observe(time_s, module_temps_c)
        if due is None:
            return None
        history, new_rows = due
        decision = self._planner.plan(
            history, ambient_c, self._current, time_s, new_rows=new_rows,
        )
        return self.commit(time_s, decision)

    def reset(self) -> None:
        """Clear history, epoch state and the predictor stream."""
        self._history.clear()
        self._current = None
        self._clock.reset()
        self._timed_decisions = []
        self._rows_since_plan = 0
        self._planner.reset_stream()
