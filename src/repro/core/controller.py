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

:class:`PeriodicPolicy` and :class:`DNORPolicy` split ``decide`` into
``observe`` (gate the sample; at an epoch, return the kernel inputs),
the kernel call, and ``commit`` (kernel result -> configuration), so
the stacked epoch step (:func:`repro.sim.gridstack.decide_epochs`, run
by the gridstack executor and the streaming hub) can decide many
policies' epochs in one stacked kernel pass.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.core.config import ArrayConfiguration
from repro.core.dnor import DNORDecision, DNORPlanner, thevenin_from_temps
from repro.core.ehtr import ehtr
from repro.core.inor import inor
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
    """

    def __init__(
        self,
        module: ModuleModel,
        algorithm: str = "inor",
        period_s: float = 0.5,
        charger: Optional[TEGCharger] = None,
    ) -> None:
        if algorithm not in ("inor", "ehtr"):
            raise ConfigurationError(
                f"algorithm must be 'inor' or 'ehtr', got {algorithm!r}"
            )
        if period_s <= 0.0:
            raise ConfigurationError(f"period_s must be > 0, got {period_s}")
        self._module = module
        self._algorithm = algorithm
        self._charger = charger
        self._clock = EpochClock(period_s)

    @property
    def name(self) -> str:
        """Scheme name."""
        return self._algorithm.upper()

    @property
    def period_s(self) -> float:
        """Reconfiguration period."""
        return self._clock.period_s

    @property
    def charger(self) -> Optional[TEGCharger]:
        """The converter INOR ranks by (``None`` for EHTR)."""
        return self._charger

    def observe(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Gate one sensed sample; return the epoch's kernel inputs.

        The sensing half of :meth:`decide`: ``None`` between periods,
        and at a period boundary the ``(emf, resistance)`` Thevenin
        vectors the kernel decides on.  The stacked epoch step ranks
        many policies' epochs in one batched INOR pass.
        """
        if not self._clock.due(time_s):
            return None
        return thevenin_from_temps(self._module, module_temps_c, ambient_c)

    def commit(self, time_s: float, decision) -> ArrayConfiguration:
        """The configuration to apply for a kernel result (INOR or EHTR)."""
        return decision.config

    def decide(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[ArrayConfiguration]:
        """Recompute the configuration whenever the period elapses."""
        inputs = self.observe(time_s, module_temps_c, ambient_c)
        if inputs is None:
            return None
        emf, res = inputs
        if self._algorithm == "inor":
            result = inor(emf, res, charger=self._charger)
        else:
            result = ehtr(emf, res)
        return self.commit(time_s, result)

    def reset(self) -> None:
        """Restart the period clock."""
        self._clock.reset()


class DNORPolicy(ReconfigurationPolicy):
    """Algorithm 2 wired into the control loop.

    Collects the sensed temperature history at every control period and
    invokes the :class:`~repro.core.dnor.DNORPlanner` every
    ``t_p + 1`` seconds; between epochs the configuration is durable.

    The history is a growable row buffer, and :meth:`observe` hands out
    its last ``history_rows`` rows as a view.  Rows only land past every
    row a view exposes, and a full buffer compacts into a *fresh* one
    (twice the kept rows), so a history handed out never changes.

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
        self._history_rows = int(history_rows)
        self._buffer: Optional[np.ndarray] = None
        self._end = 0  # rows written into the buffer
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

    @property
    def history_rows(self) -> int:
        """Most sensed rows the predictor history keeps."""
        return self._history_rows

    def _history(self) -> np.ndarray:
        """The last ``history_rows`` rows, a view of the buffer."""
        return self._buffer[max(0, self._end - self._history_rows) : self._end]

    def _record(self, row: np.ndarray) -> None:
        """Append one sensed row, compacting into a fresh buffer when full."""
        if self._buffer is None or self._end == self._buffer.shape[0]:
            kept = min(self._end, self._history_rows)
            buffer = np.empty((max(2 * kept, 8), row.size))
            if kept:
                buffer[:kept] = self._history()
            self._buffer, self._end = buffer, kept
        self._buffer[self._end] = row
        self._end += 1

    def observe(
        self, time_s: float, module_temps_c: np.ndarray, ambient_c: float
    ) -> Optional[Tuple[np.ndarray, float, int]]:
        """Record one sensed sample; return the epoch's planner inputs.

        The sensing half of :meth:`decide`, split out so the stacked
        epoch step can plan due epochs from many policies through one
        :func:`~repro.core.dnor.dnor_stack` call.  Returns ``None``
        between epochs; at an epoch boundary, advances the epoch clock
        and returns ``(history, ambient_c, new_rows)`` — exactly the
        arguments :meth:`decide` hands the planner.  ``history`` is a
        view of the history buffer that later observes never overwrite,
        so planning later sees the same matrix.
        """
        self._record(np.asarray(module_temps_c, dtype=float))
        self._rows_since_plan += 1
        if not self._clock.due(time_s):
            return None
        history = self._history()
        new_rows = self._rows_since_plan
        self._rows_since_plan = 0
        return history, ambient_c, new_rows

    def commit(
        self, time_s: float, decision: DNORDecision
    ) -> Optional[ArrayConfiguration]:
        """Record an epoch decision; return the configuration on switch.

        The bookkeeping half of :meth:`decide`: external epoch runners
        feed back the planner's decision for the epoch :meth:`observe`
        reported (one-lane or one lane of a ``dnor_stack`` call, planned
        against :attr:`current_config`) and get the policy's answer —
        the new configuration to apply, or ``None`` to keep.  Epochs
        must be committed in the order they were observed, because the
        next epoch plans against this one's configuration.
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
        inputs = self.observe(time_s, module_temps_c, ambient_c)
        if inputs is None:
            return None
        history, ambient, new_rows = inputs
        decision = self._planner.plan(
            history, ambient, self._current, new_rows=new_rows
        )
        return self.commit(time_s, decision)

    def reset(self) -> None:
        """Clear history, epoch state and the predictor stream."""
        self._buffer, self._end = None, 0  # earlier views keep theirs
        self._current = None
        self._clock.reset()
        self._timed_decisions = []
        self._rows_since_plan = 0
        self._planner.reset_stream()
