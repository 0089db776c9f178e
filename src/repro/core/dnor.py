"""Algorithm 2 — Durable Near-Optimal Reconfiguration (DNOR).

Pseudo-code from the paper::

    Input : temperature history T_{t,i}; old configuration C_old
    Output: configuration for the next t_p + 1 seconds
    C_new = INOR(T_i)
    predict the temperature distribution for the next t_p seconds (MLR)
    E_old = energy of C_old over the next t_p + 1 s (incl. current second)
    E_new = energy of C_new over the same horizon
    if E_old <= E_new - E_overhead:  switch to C_new
    else:                            keep C_old

:func:`dnor_stack` implements exactly this decision, once, for a stack
of ``K`` lanes; :meth:`DNORPlanner.plan` is its one-lane call, and the
planner holds one lane's state (predictor, horizon geometry, switching
bill).  The closed-loop bookkeeping (history collection, epoch
scheduling, fabric application) lives in
:class:`repro.core.controller.DNORPolicy`.

The energy horizon holds the current distribution for one second (the
paper's "including current second") followed by the ``t_p``-second
forecast, each sample scored as the charger-delivered power of the
configuration's exact MPP.  Every lane's INOR proposal comes from one
stacked INOR pass, and every lane's old-vs-new comparison, over every
horizon sample, from **one**
:func:`repro.teg.network.array_mpp_rows_multi_stack` call plus one
batched charger evaluation.  :meth:`DNORPlanner._horizon_energy` is the
single-configuration oracle that scoring is pinned against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ArrayConfiguration
from repro.core.inor import _inor_stack_raw, _winner_config
# Unused here, but perfbench/tracing.py probes this name in this module.
from repro.core.inor import inor  # noqa: F401
from repro.core.overhead import SwitchingOverheadModel
from repro.errors import ConfigurationError, PredictionError
from repro.power.charger import TEGCharger
from repro.prediction.base import LagSeriesPredictor
from repro.teg.model import ModuleModel
from repro.teg.network import (
    array_mpp,
    array_mpp_rows,
    array_mpp_rows_multi_stack,
)


def thevenin_from_temps(
    module: ModuleModel, temps_c: np.ndarray, ambient_c: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-module ``(emf, resistance)`` vectors from hot-side temps.

    Uses the module model's nominal Thevenin linearisation (heatsink at
    ambient): ``E_i = alpha_module * (T_i - T_amb)``.
    """
    temps = np.asarray(temps_c, dtype=float)
    delta = temps - float(ambient_c)
    emf = module.emf_coefficient() * delta
    resistance = np.full(temps.shape, module.internal_resistance())
    return emf, resistance


@dataclass(frozen=True)
class DNORDecision:
    """Outcome of one DNOR epoch.

    Attributes
    ----------
    switch:
        Whether the new configuration is adopted.
    config:
        The configuration to run for the coming epoch.
    candidate:
        The INOR proposal (equals ``config`` when switching).
    energy_old_j, energy_new_j:
        Forecast-horizon energies of the old/new configurations.
    energy_overhead_j:
        Switching bill charged against the candidate.
    inor_seconds:
        Measured INOR runtime inside this decision.
    predict_seconds:
        Measured predictor fit+forecast runtime.
    used_fallback_forecast:
        True when history was too short for the predictor and a
        persistence forecast was used instead.
    """

    switch: bool
    config: ArrayConfiguration
    candidate: ArrayConfiguration
    energy_old_j: float
    energy_new_j: float
    energy_overhead_j: float
    inor_seconds: float
    predict_seconds: float
    used_fallback_forecast: bool


class DNORPlanner:
    """The Algorithm 2 decision engine.

    Parameters
    ----------
    module:
        Shared TEG module model (for temperature -> Thevenin mapping).
    charger:
        Charger whose delivered power defines the energy comparison and
        whose converter preference bounds INOR's group-count range.
    overhead:
        The switching bill model.
    predictor:
        Temperature-distribution forecaster (the paper selects MLR).
    tp_seconds:
        Prediction horizon ``t_p``; the epoch length is ``t_p + 1``.
    sample_dt_s:
        Sampling period of the temperature history rows.
    fit_module_stride:
        Fit the pooled predictor on every ``stride``-th module column
        only.  The one-step dynamics are shared physics, so the learned
        coefficients are unchanged while fitting cost drops by the
        stride factor — this is what keeps DNOR's amortised runtime
        below INOR's (Table I).  Forecasts still cover every module.
    nominal_compute_s:
        When set, the switching bill inside the epoch decision uses
        this fixed compute time instead of the measured INOR wall-clock
        — making the decision sequence machine-independent, which the
        batch engine's bit-reproducibility guarantees rely on.  ``None``
        (the default) keeps the measured-runtime behaviour, which only
        a one-lane epoch (:meth:`plan`) can bill.
    refit:
        Predictor refit strategy per epoch.  ``"full"`` (default)
        refits from scratch on the strided history — the behaviour
        every existing pinned decision sequence was produced under.
        ``"incremental"`` streams only the rows that arrived since the
        previous epoch into
        :meth:`~repro.prediction.base.LagSeriesPredictor.partial_fit`
        (windowed normal-equation updates for MLR) — the refit is ~1/3
        of a DNOR epoch (``benchmarks/results/dnor_plan.json``), so
        this is the streaming service's hot-path win.  The incremental
        model is exact vs a full fit on the same streamed tail (pinned
        in the prediction suite); decision sequences are compared
        like-for-like (an online incremental run is bit-identical to an
        offline incremental run).
    """

    REFIT_MODES = ("full", "incremental")

    def __init__(
        self,
        module: ModuleModel,
        charger: TEGCharger,
        overhead: SwitchingOverheadModel,
        predictor: LagSeriesPredictor,
        tp_seconds: float = 1.0,
        sample_dt_s: float = 0.5,
        fit_module_stride: int = 8,
        nominal_compute_s: Optional[float] = None,
        refit: str = "full",
    ) -> None:
        if tp_seconds <= 0.0:
            raise ConfigurationError(f"tp_seconds must be > 0, got {tp_seconds}")
        if sample_dt_s <= 0.0:
            raise ConfigurationError(f"sample_dt_s must be > 0, got {sample_dt_s}")
        if fit_module_stride < 1:
            raise ConfigurationError(
                f"fit_module_stride must be >= 1, got {fit_module_stride}"
            )
        if refit not in self.REFIT_MODES:
            raise ConfigurationError(
                f"refit must be one of {self.REFIT_MODES}, got {refit!r}"
            )
        self._module = module
        self._charger = charger
        self._overhead = overhead
        self._predictor = predictor
        self._tp_seconds = float(tp_seconds)
        self._sample_dt_s = float(sample_dt_s)
        self._fit_module_stride = int(fit_module_stride)
        self._nominal_compute_s = (
            None if nominal_compute_s is None else float(nominal_compute_s)
        )
        self._refit = refit
        self._stream_ok = False  # incremental refit: stream long enough

    @property
    def tp_seconds(self) -> float:
        """Prediction horizon ``t_p``."""
        return self._tp_seconds

    @property
    def epoch_seconds(self) -> float:
        """Decision epoch length ``t_p + 1``."""
        return self._tp_seconds + 1.0

    @property
    def predictor(self) -> LagSeriesPredictor:
        """The temperature forecaster in use."""
        return self._predictor

    @property
    def refit(self) -> str:
        """Predictor refit strategy (``"full"`` or ``"incremental"``)."""
        return self._refit

    def reset_stream(self) -> None:
        """Drop the predictor's streamed (incremental-refit) state."""
        self._predictor.reset_partial()
        self._stream_ok = False

    def _absorb_stream(
        self, history: np.ndarray, new_rows: Optional[int]
    ) -> float:
        """Stream newly arrived strided rows into the predictor.

        Runs on *every* incremental-refit epoch — including ones that
        keep the configuration for free and never forecast — so the
        predictor's sliding window always matches the history.  A
        too-short stream is retained (not fitted yet); forecasting then
        falls back to persistence until enough rows accumulate.
        Returns the wall-clock seconds spent.
        """
        t0 = time.perf_counter()
        strided = history[:, :: self._fit_module_stride]
        try:
            if new_rows is None:
                self._predictor.partial_fit(strided)
            else:
                fresh = min(int(new_rows), strided.shape[0])
                self._predictor.partial_fit(
                    strided[strided.shape[0] - fresh:]
                )
            self._stream_ok = True
        except PredictionError:
            pass
        return time.perf_counter() - t0

    # ------------------------------------------------------------------
    def _horizon_energy(
        self,
        config: ArrayConfiguration,
        temp_rows: np.ndarray,
        ambient_c: float,
    ) -> float:
        """Delivered energy of ``config`` over stacked temperature rows.

        Fully vectorised over the horizon: module resistance is
        constant, so each row's array Thevenin reduces to one
        ``reduceat`` over the EMF matrix
        (:func:`repro.teg.network.array_mpp_rows` — the same batched
        kernel the simulation engine uses), and the converter curve is
        evaluated for all rows at once through the batched charger API
        — no per-sample Python in this hot path.  This
        single-configuration form is the oracle the epoch's stacked
        scoring (:func:`dnor_stack`) is pinned bit-identical against.
        """
        rows = np.asarray(temp_rows, dtype=float)
        alpha = self._module.emf_coefficient()
        emf_rows = alpha * (rows - float(ambient_c))
        resistance = np.full(rows.shape[1], self._module.internal_resistance())
        power, voltage = array_mpp_rows(emf_rows, resistance, config.starts)
        delivered = self._charger.delivered_batch(power, voltage)
        return float(delivered.sum() * self._sample_dt_s)

    def plan(
        self,
        history_temps_c: np.ndarray,
        ambient_c: float,
        current: Optional[ArrayConfiguration],
        *,
        new_rows: Optional[int] = None,
    ) -> DNORDecision:
        """Run one Algorithm 2 epoch: the one-lane call of :func:`dnor_stack`.

        Parameters
        ----------
        history_temps_c:
            ``(T, N)`` hot-side temperature history, newest row last.
        ambient_c:
            Ambient (= heatsink) temperature.
        current:
            The configuration of the previous epoch, or ``None`` on the
            very first call (then the INOR proposal is adopted
            unconditionally — there is nothing to keep).
        new_rows:
            Number of history rows that arrived since the previous
            epoch (used only under ``refit="incremental"``; ``None``
            streams the whole history, e.g. on the first epoch).
        """
        return dnor_stack(
            [self],
            [history_temps_c],
            ambient_c,
            [current],
            new_rows=[new_rows],
        )[0]

    def _forecast_horizon(
        self, history: np.ndarray, temps_now: np.ndarray
    ) -> Tuple[np.ndarray, float, bool]:
        """Step 2: the ``t_p + 1``-second horizon temperature rows.

        Fits the pooled predictor on a module-strided column subset
        (every predictor learns one *column-wise* one-step map shared
        by all modules — see
        :class:`repro.prediction.base.LagSeriesPredictor` — so the
        coefficients are unchanged while the fit cost drops by the
        stride factor) and forecasts the full-width history, so the
        forecast covers every module regardless of the fitted width.
        Returns ``(horizon_rows, predict_seconds, used_fallback)``.
        """
        horizon_steps = max(int(round(self._tp_seconds / self._sample_dt_s)), 1)
        now_steps = max(int(round(1.0 / self._sample_dt_s)), 1)
        t0 = time.perf_counter()
        used_fallback = False
        try:
            if self._refit == "incremental":
                # The stream was already updated by _absorb_stream (it
                # runs on every epoch, including ones that keep for
                # free); until enough rows have accumulated this lands
                # on the same persistence fallback a too-short full
                # fit would.
                if not self._stream_ok:
                    raise PredictionError("stream shorter than lags")
            else:
                self._predictor.fit(history[:, :: self._fit_module_stride])
            forecast = self._predictor.forecast(history, horizon_steps)
        except PredictionError:
            forecast = np.tile(temps_now, (horizon_steps, 1))
            used_fallback = True
        predict_seconds = time.perf_counter() - t0
        horizon_rows = np.vstack([np.tile(temps_now, (now_steps, 1)), forecast])
        return horizon_rows, predict_seconds, used_fallback


def _check_lanes(
    planners: Sequence[DNORPlanner],
    histories: Sequence[np.ndarray],
    ambient_c,
    currents: Sequence[Optional[ArrayConfiguration]],
    new_rows: Optional[Sequence[Optional[int]]],
) -> Tuple[list, np.ndarray, Sequence[Optional[int]]]:
    """Validate a :func:`dnor_stack` call before any planner state changes.

    Returns ``(histories, ambients, new_rows)`` as float matrices, a
    per-lane ambient vector and a per-lane row-count sequence.
    """
    n_lanes = len(planners)
    if len(histories) != n_lanes or len(currents) != n_lanes:
        raise ConfigurationError(
            f"dnor_stack needs one history and one current configuration "
            f"per planner, got {len(histories)} / {len(currents)} for "
            f"{n_lanes} planners"
        )
    if new_rows is None:
        new_rows = (None,) * n_lanes
    elif len(new_rows) != n_lanes:
        raise ConfigurationError(
            f"dnor_stack needs one new_rows entry per planner, got "
            f"{len(new_rows)} for {n_lanes} planners (lane "
            f"{min(len(new_rows), n_lanes)} does not match)"
        )
    ambients = np.asarray(ambient_c, dtype=float)
    if ambients.ndim == 0:
        ambients = np.full(n_lanes, float(ambients))
    elif ambients.shape != (n_lanes,):
        raise ConfigurationError(
            f"ambient_c must be a scalar or one value per planner, got "
            f"shape {ambients.shape} for {n_lanes} planners"
        )
    if n_lanes > 1:
        for k, planner in enumerate(planners):
            if planner._nominal_compute_s is None:
                raise ConfigurationError(
                    f"dnor_stack requires nominal_compute_s on every planner "
                    f"of a multi-lane stack, lane {k} has none: per-lane "
                    f"measured wall-clock has no deterministic fused "
                    f"equivalent"
                )
    ref = planners[0]
    alpha, internal_r = (
        ref._module.emf_coefficient(), ref._module.internal_resistance()
    )
    for k, planner in enumerate(planners[1:], start=1):
        if (
            planner._tp_seconds != ref._tp_seconds
            or planner._sample_dt_s != ref._sample_dt_s
            or planner._module.emf_coefficient() != alpha
            or planner._module.internal_resistance() != internal_r
        ):
            raise ConfigurationError(
                f"dnor_stack lanes must share the module parameters and "
                f"the horizon geometry (tp_seconds, sample_dt_s); lane {k} "
                f"differs from lane 0"
            )
    lane_histories = []
    for k, history in enumerate(histories):
        history = np.asarray(history, dtype=float)
        if history.ndim != 2 or history.shape[0] < 1:
            raise ConfigurationError(
                f"history must be a non-empty (T, N) matrix, got "
                f"{history.shape} in lane {k}"
            )
        if lane_histories and history.shape[1] != lane_histories[0].shape[1]:
            raise ConfigurationError(
                f"lane {k} history covers {history.shape[1]} modules, "
                f"lane 0 {lane_histories[0].shape[1]}"
            )
        lane_histories.append(history)
    return lane_histories, ambients, new_rows


def dnor_stack(
    planners: Sequence[DNORPlanner],
    histories: Sequence[np.ndarray],
    ambient_c,
    currents: Sequence[Optional[ArrayConfiguration]],
    *,
    new_rows: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[DNORDecision, ...]:
    """Run one Algorithm 2 epoch for ``K`` lanes at once.

    The one epoch body: :meth:`DNORPlanner.plan` is its one-lane call,
    and :mod:`repro.sim.gridstack` and the streaming hub run it over a
    homogeneous case grid.  Lane ``k`` carries its own planner (with its
    own predictor stream), its own temperature history and its own
    previous configuration, but all lanes share the module parameters,
    the charger's converter and the horizon geometry (``tp_seconds``,
    ``sample_dt_s``) — the precondition the callers group by.  The epoch
    runs in two fused passes instead of ``K`` per-lane kernel
    invocations:

    * every lane's INOR proposal comes from **one**
      :func:`repro.core.inor._inor_stack_raw` pass over the stacked
      ``(K, N)`` EMF matrix;
    * every scoring lane's ``(current, candidate)`` horizon energies
      come from **one** :func:`repro.teg.network.array_mpp_rows_multi_stack`
      pass over the stacked forecast horizons plus one batched charger
      call.

    Predictor fits and forecasts stay per-lane (each lane owns its
    regression state, and :class:`~repro.prediction.mlr.MLRPredictor`'s
    normal-equation solve must see exactly the per-lane matrices to
    stay bit-identical), as do the scalar switching-bill expressions.

    Decisions are **bit-identical** per lane to a one-lane call on the
    same lane — pinned in the DNOR suite — except the wall-clock
    diagnostic fields (``inor_seconds``, ``predict_seconds``), which
    report the *fused* cost split evenly across lanes.  A planner
    without ``nominal_compute_s`` bills its lane's share of the measured
    INOR pass.  Only at ``K = 1`` is that share the lane's own
    wall-clock, so a multi-lane stack requires ``nominal_compute_s`` on
    every planner.

    ``ambient_c`` may be a scalar (one trace driving every lane) or a
    per-lane vector (independent streaming sessions); ``new_rows``
    forwards per-lane incremental-refit row counts.  Every per-lane
    length and the history widths are checked before any planner state
    changes; a bad call raises :class:`~repro.errors.ConfigurationError`.
    """
    n_lanes = len(planners)
    if n_lanes == 0:
        return ()
    lane_histories, ambients, new_rows = _check_lanes(
        planners, histories, ambient_c, currents, new_rows
    )
    ref = planners[0]
    alpha = ref._module.emf_coefficient()

    # Per-lane stream absorption first (incremental refit only) — it
    # runs on every epoch, including free keeps.
    absorb_seconds = [
        planner._absorb_stream(history, rows)
        if planner._refit == "incremental"
        else 0.0
        for planner, history, rows in zip(planners, lane_histories, new_rows)
    ]

    n_modules = lane_histories[0].shape[1]
    temps_now = np.stack([history[-1] for history in lane_histories])
    emf_rows = alpha * (temps_now - ambients[:, None])
    resistance = np.full(n_modules, ref._module.internal_resistance())

    # Fused pass 1: every lane's INOR proposal from one stacked call
    # (bit-identical per lane to inor(), via the stacked parity pins).
    t0 = time.perf_counter()
    stack, _, _, _, _, winners, _, _ = _inor_stack_raw(
        emf_rows, resistance, ref._charger
    )
    generation_seconds = (time.perf_counter() - t0) / n_lanes

    decisions: list = [None] * n_lanes
    score_lanes: list = []
    proposals: list = []
    for k, best in enumerate(winners.tolist()):
        proposal = _winner_config(stack, best)
        current = currents[k]
        if current is None or np.array_equal(proposal.starts, current.starts):
            # First epoch: nothing to keep, adopt the proposal.  A
            # proposal equal to the current configuration: keeping it
            # is free and optimal — no forecast.
            config = proposal if current is None else current
            decisions[k] = DNORDecision(
                switch=current is None,
                config=config,
                candidate=config,
                energy_old_j=0.0,
                energy_new_j=0.0,
                energy_overhead_j=0.0,
                inor_seconds=generation_seconds,
                predict_seconds=0.0,
                used_fallback_forecast=False,
            )
        else:
            score_lanes.append(k)
            proposals.append(proposal)
    if not score_lanes:
        return tuple(decisions)

    # Per-lane forecasts (sequential by design — regression state),
    # then one stacked horizon scoring pass over every lane's
    # (current, candidate) pair.  All lanes share tp/dt, so every
    # horizon has the same row count and stacks rectangularly.
    forecasts = [
        planners[k]._forecast_horizon(lane_histories[k], temps_now[k])
        for k in score_lanes
    ]
    horizon_emf = alpha * (
        np.stack([rows for rows, _, _ in forecasts])
        - ambients[score_lanes][:, None, None]
    )
    starts_list = []
    for k, proposal in zip(score_lanes, proposals):
        starts_list += [currents[k].starts, proposal.starts]
    power, voltage = array_mpp_rows_multi_stack(
        horizon_emf,
        resistance,
        starts_list,
        np.arange(len(score_lanes), dtype=np.int64).repeat(2),
    )
    delivered = ref._charger.delivered_batch(power, voltage)
    energies = (delivered.sum(axis=1) * ref._sample_dt_s).tolist()

    for j, k in enumerate(score_lanes):
        planner = planners[k]
        current = currents[k]
        candidate = proposals[j]
        _, predict_seconds, used_fallback = forecasts[j]
        energy_old, energy_new = energies[2 * j], energies[2 * j + 1]
        # The scalar switching bill (kept per-lane verbatim): the
        # pre-switch power at the decision instant and the paper's
        # overhead inequality.
        power_now = planner._charger.delivered_at_mpp(
            array_mpp(emf_rows[k], resistance, current.starts)
        )
        compute_s = planner._nominal_compute_s
        energy_overhead = planner._overhead.event_energy_j(
            power_w=max(power_now, 0.0),
            compute_time_s=(
                generation_seconds if compute_s is None else compute_s
            ),
            toggles=current.switch_toggles_to(candidate),
        )
        switch = energy_old <= energy_new - energy_overhead
        decisions[k] = DNORDecision(
            switch=switch,
            config=candidate if switch else current,
            candidate=candidate,
            energy_old_j=energy_old,
            energy_new_j=energy_new,
            energy_overhead_j=energy_overhead,
            inor_seconds=generation_seconds,
            predict_seconds=predict_seconds + absorb_seconds[k],
            used_fallback_forecast=used_fallback,
        )
    return tuple(decisions)
