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

:class:`DNORPlanner` implements exactly this decision, leaving the
closed-loop bookkeeping (history collection, epoch scheduling, fabric
application) to :class:`repro.core.controller.DNORPolicy`.

The energy horizon holds the current distribution for one second (the
paper's "including current second") followed by the ``t_p``-second
forecast, each sample scored as the charger-delivered power of the
configuration's exact MPP.  The whole comparison — old configuration
and every proposal, over every horizon sample — runs as **one**
stacked kernel call (:func:`repro.teg.network.array_mpp_rows_multi`
plus one batched charger evaluation); :meth:`DNORPlanner.plan_batch`
generalises the epoch to several candidate configurations (fault-aware
or exhaustive proposal generators) at the same single-pass cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import ArrayConfiguration
from repro.core.inor import _inor_stack_raw, check_inor_kernel, inor
from repro.core.overhead import SwitchingOverheadModel
from repro.errors import ConfigurationError, PredictionError
from repro.power.charger import TEGCharger
from repro.prediction.base import LagSeriesPredictor
from repro.teg.model import ModuleModel
from repro.teg.network import (
    array_mpp,
    array_mpp_rows,
    array_mpp_rows_multi,
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
        (the default) keeps the measured-runtime behaviour.
    inor_kernel:
        Candidate-evaluation kernel forwarded to :func:`inor` for the
        per-epoch proposal — ``"batched"`` (default) or ``"scalar"``.
        Bit-identical results either way; the scalar kernel exists for
        cross-validation and profiling.
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
        inor_kernel: str = "batched",
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
        check_inor_kernel(inor_kernel)
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
        self._inor_kernel = inor_kernel
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
    def inor_kernel(self) -> str:
        """Kernel forwarded to :func:`inor` for the epoch proposal."""
        return self._inor_kernel

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
        — no per-sample Python in this hot path.  The epoch decision
        itself uses :meth:`_horizon_energy_multi`, which additionally
        stacks the configurations; this single-configuration form is
        the reference it is pinned bit-identical against.
        """
        rows = np.asarray(temp_rows, dtype=float)
        alpha = self._module.emf_coefficient()
        emf_rows = alpha * (rows - float(ambient_c))
        resistance = np.full(rows.shape[1], self._module.internal_resistance())
        power, voltage = array_mpp_rows(emf_rows, resistance, config.starts)
        delivered = self._charger.delivered_batch(power, voltage)
        return float(delivered.sum() * self._sample_dt_s)

    def _horizon_energy_multi(
        self,
        configs: Sequence[ArrayConfiguration],
        temp_rows: np.ndarray,
        ambient_c: float,
    ) -> np.ndarray:
        """Delivered horizon energies of *many* configurations at once.

        The configuration-stacked sibling of :meth:`_horizon_energy`:
        one :func:`repro.teg.network.array_mpp_rows_multi` reduction
        evaluates every configuration over the whole horizon and one
        batched charger call converts the stacked ``(C, S)`` operating
        points — so an epoch decision (old configuration + every
        proposal) costs a single pass instead of one kernel invocation
        per configuration.  Bit-identical per entry to the
        single-configuration form.
        """
        rows = np.asarray(temp_rows, dtype=float)
        alpha = self._module.emf_coefficient()
        emf_rows = alpha * (rows - float(ambient_c))
        resistance = np.full(rows.shape[1], self._module.internal_resistance())
        power, voltage = array_mpp_rows_multi(
            emf_rows, resistance, [config.starts for config in configs]
        )
        delivered = self._charger.delivered_batch(power, voltage)
        return delivered.sum(axis=1) * self._sample_dt_s

    def plan(
        self,
        history_temps_c: np.ndarray,
        ambient_c: float,
        current: Optional[ArrayConfiguration],
        time_s: float = 0.0,
        new_rows: Optional[int] = None,
    ) -> DNORDecision:
        """Run one Algorithm 2 epoch.

        The single-proposal specialisation of :meth:`plan_batch`: one
        timed INOR call produces the epoch's candidate, the old and
        new configurations are scored over the forecast horizon in one
        stacked kernel pass, and the paper's inequality decides.

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
        time_s:
            Simulation time, recorded into diagnostics only.
        new_rows:
            Number of history rows that arrived since the previous
            epoch (used only under ``refit="incremental"``; ``None``
            streams the whole history, e.g. on the first epoch).
        """
        return self.plan_batch(
            history_temps_c, ambient_c, current, time_s=time_s,
            new_rows=new_rows,
        )

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

    def plan_batch(
        self,
        history_temps_c: np.ndarray,
        ambient_c: float,
        current: Optional[ArrayConfiguration],
        candidates: Optional[Sequence[ArrayConfiguration]] = None,
        time_s: float = 0.0,
        compute_seconds: float = 0.0,
        new_rows: Optional[int] = None,
    ) -> DNORDecision:
        """One Algorithm 2 epoch over *several* candidate configurations.

        The many-proposal generalisation of :meth:`plan` for callers
        that generate more than one candidate per epoch — the
        fault-aware controller's feasible partitions
        (:func:`repro.core.fault_aware.fault_aware_candidates`) or an
        exhaustive search's short-list.  The old configuration and
        every candidate are scored over the same forecast horizon in
        **one** stacked kernel call
        (:meth:`_horizon_energy_multi`), each candidate is billed its
        own switching overhead, and the paper's inequality is applied
        to the best net-gain candidate:  switch to
        ``argmax_i (E_i - E_overhead_i)`` iff
        ``E_old <= E_best - E_overhead_best``.

        With ``candidates=None`` the single INOR proposal is used —
        this is Algorithm 2 verbatim, and exactly what :meth:`plan`
        delegates to (the batched decision is pinned against a
        sequential per-configuration evaluation in the test suite).

        Parameters
        ----------
        candidates:
            Candidate configurations to score, or ``None`` to run INOR
            (timed, exactly as :meth:`plan` does).  Candidates equal to
            ``current`` are skipped — keeping the current configuration
            is free; if nothing else remains the epoch keeps.
        compute_seconds:
            Generation cost billed against externally supplied
            candidates when ``nominal_compute_s`` is unset (INOR's
            measured runtime takes this role when ``candidates`` is
            ``None``).
        new_rows:
            Number of history rows that arrived since the previous
            epoch; used only under ``refit="incremental"``, where those
            rows are streamed into the predictor's sliding window
            (``None`` streams the whole history).
        """
        history = np.asarray(history_temps_c, dtype=float)
        if history.ndim != 2 or history.shape[0] < 1:
            raise ConfigurationError(
                f"history must be a non-empty (T, N) matrix, got {history.shape}"
            )
        absorb_seconds = (
            self._absorb_stream(history, new_rows)
            if self._refit == "incremental"
            else 0.0
        )
        temps_now = history[-1]
        emf, res = thevenin_from_temps(self._module, temps_now, ambient_c)

        if candidates is None:
            t0 = time.perf_counter()
            proposal = inor(
                emf, res, charger=self._charger, kernel=self._inor_kernel
            )
            generation_seconds = time.perf_counter() - t0
            proposals: Tuple[ArrayConfiguration, ...] = (proposal.config,)
        else:
            generation_seconds = float(compute_seconds)
            proposals = tuple(candidates)
            if not proposals:
                raise ConfigurationError(
                    "plan_batch needs at least one candidate (or None to "
                    "run INOR)"
                )

        if current is None:
            # Nothing to keep: adopt the instantaneously best proposal
            # (with a single INOR candidate this is INOR's own pick,
            # mirroring plan()).
            best = self._best_instantaneous(emf, res, proposals)
            return DNORDecision(
                switch=True,
                config=best,
                candidate=best,
                energy_old_j=0.0,
                energy_new_j=0.0,
                energy_overhead_j=0.0,
                inor_seconds=generation_seconds,
                predict_seconds=0.0,
                used_fallback_forecast=False,
            )

        distinct = [
            config
            for config in proposals
            if not np.array_equal(config.starts, current.starts)
        ]
        if not distinct:
            # Every proposal is the current configuration: keeping it
            # is free and optimal.
            return DNORDecision(
                switch=False,
                config=current,
                candidate=current,
                energy_old_j=0.0,
                energy_new_j=0.0,
                energy_overhead_j=0.0,
                inor_seconds=generation_seconds,
                predict_seconds=0.0,
                used_fallback_forecast=False,
            )

        horizon_rows, predict_seconds, used_fallback = self._forecast_horizon(
            history, temps_now
        )
        predict_seconds += absorb_seconds
        energies = self._horizon_energy_multi(
            (current, *distinct), horizon_rows, ambient_c
        )
        energy_old = float(energies[0])

        power_now = self._charger.delivered_at_mpp(
            array_mpp(emf, res, current.starts)
        )
        billed_compute_s = (
            generation_seconds
            if self._nominal_compute_s is None
            else self._nominal_compute_s
        )
        overheads = np.array(
            [
                self._overhead.event_energy_j(
                    power_w=max(power_now, 0.0),
                    compute_time_s=billed_compute_s,
                    toggles=current.switch_toggles_to(config),
                )
                for config in distinct
            ]
        )
        net = energies[1:] - overheads
        best_index = int(np.argmax(net))
        candidate = distinct[best_index]
        energy_new = float(energies[1 + best_index])
        energy_overhead = float(overheads[best_index])

        switch = energy_old <= energy_new - energy_overhead
        return DNORDecision(
            switch=switch,
            config=candidate if switch else current,
            candidate=candidate,
            energy_old_j=energy_old,
            energy_new_j=energy_new,
            energy_overhead_j=energy_overhead,
            inor_seconds=generation_seconds,
            predict_seconds=predict_seconds,
            used_fallback_forecast=used_fallback,
        )

    def _best_instantaneous(
        self,
        emf: np.ndarray,
        res: np.ndarray,
        proposals: Sequence[ArrayConfiguration],
    ) -> ArrayConfiguration:
        """First-epoch pick: highest delivered power *right now*."""
        if len(proposals) == 1:
            return proposals[0]
        scores = [
            self._charger.delivered_at_mpp(array_mpp(emf, res, config.starts))
            for config in proposals
        ]
        return proposals[int(np.argmax(scores))]


def dnor_stack(
    planners: Sequence[DNORPlanner],
    histories: Sequence[np.ndarray],
    ambient_c,
    currents: Sequence[Optional[ArrayConfiguration]],
    time_s: float = 0.0,
    new_rows: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[DNORDecision, ...]:
    """Run one Algorithm 2 epoch for a whole homogeneous case grid.

    The grid-stacked sibling of :meth:`DNORPlanner.plan`: lane ``k``
    carries its own planner (with its own predictor stream), its own
    temperature history and its own previous configuration, but all
    lanes share the module parameters, the charger's converter, the
    horizon geometry (``tp_seconds``, ``sample_dt_s``) and the batched
    INOR kernel — the homogeneous-grid precondition the caller
    (:mod:`repro.sim.gridstack` or the streaming hub) groups by.  The
    epoch then runs in two fused passes instead of ``K`` per-lane
    kernel invocations:

    * every lane's INOR proposal comes from **one**
      :func:`repro.core.inor.inor_stack`-style pass over the stacked
      ``(K, N)`` EMF matrix;
    * every scoring lane's ``(current, candidate)`` horizon energies
      come from **one** :func:`repro.teg.network.array_mpp_rows_multi_stack`
      pass over the stacked forecast horizons plus one batched charger
      call.

    Predictor fits and forecasts stay per-lane (each lane owns its
    regression state, and :class:`~repro.prediction.mlr.MLRPredictor`'s
    normal-equation solve must see exactly the per-lane matrices to
    stay bit-identical), as do the scalar switching-bill expressions.

    Decisions are **bit-identical** per lane to
    ``planners[k].plan(histories[k], ambient, currents[k], ...)`` —
    pinned in the DNOR suite — except the wall-clock diagnostic fields
    (``inor_seconds``, ``predict_seconds``), which report the *fused*
    cost split evenly across lanes.  Determinism of the decision
    sequence therefore requires ``nominal_compute_s`` to be set on
    every planner, which this kernel enforces.

    ``ambient_c`` may be a scalar (one trace driving every lane) or a
    per-lane vector (independent streaming sessions); ``new_rows``
    forwards per-lane incremental-refit row counts, exactly as
    :meth:`DNORPlanner.plan` accepts.
    """
    n_lanes = len(planners)
    if n_lanes == 0:
        return ()
    if len(histories) != n_lanes or len(currents) != n_lanes:
        raise ConfigurationError(
            f"dnor_stack needs one history and one current configuration "
            f"per planner, got {len(histories)} / {len(currents)} for "
            f"{n_lanes} planners"
        )
    ref = planners[0]
    if ref.inor_kernel != "batched":
        raise ConfigurationError(
            "dnor_stack requires the batched INOR kernel; the scalar "
            "reference loop has no stacked form"
        )
    alpha = ref._module.emf_coefficient()
    internal_r = ref._module.internal_resistance()
    for planner in planners:
        if planner._nominal_compute_s is None:
            raise ConfigurationError(
                "dnor_stack requires nominal_compute_s on every planner: "
                "per-lane measured wall-clock has no deterministic fused "
                "equivalent"
            )
        if (
            planner._inor_kernel != ref._inor_kernel
            or planner._tp_seconds != ref._tp_seconds
            or planner._sample_dt_s != ref._sample_dt_s
            or planner._module.emf_coefficient() != alpha
            or planner._module.internal_resistance() != internal_r
        ):
            raise ConfigurationError(
                "dnor_stack lanes must share the module parameters, the "
                "horizon geometry (tp_seconds, sample_dt_s) and the INOR "
                "kernel"
            )
    if new_rows is None:
        new_rows = [None] * n_lanes
    ambients = np.broadcast_to(
        np.asarray(ambient_c, dtype=float), (n_lanes,)
    )

    # Per-lane stream absorption first (incremental refit only) — it
    # runs on every epoch in the serial path, including free keeps.
    absorb_seconds = np.zeros(n_lanes)
    lane_histories: list = []
    for k, planner in enumerate(planners):
        history = np.asarray(histories[k], dtype=float)
        if history.ndim != 2 or history.shape[0] < 1:
            raise ConfigurationError(
                f"history must be a non-empty (T, N) matrix, got "
                f"{history.shape} in lane {k}"
            )
        lane_histories.append(history)
        if planner._refit == "incremental":
            absorb_seconds[k] = planner._absorb_stream(history, new_rows[k])

    n_modules = lane_histories[0].shape[1]
    temps_now = np.stack([history[-1] for history in lane_histories])
    emf_rows = alpha * (temps_now - ambients[:, None])
    resistance = np.full(n_modules, internal_r)

    # Fused pass 1: every lane's INOR proposal from one stacked call
    # (bit-identical per lane to inor(), via the inor_stack parity pin).
    t0 = time.perf_counter()
    stack, _, _, _, _, winners, _, _ = _inor_stack_raw(
        emf_rows, resistance, ref._charger, 0.03
    )
    generation_seconds = (time.perf_counter() - t0) / n_lanes
    proposals: list = []
    for k in range(n_lanes):
        best = int(winners[k])
        lo, hi = stack.offsets[best], stack.offsets[best + 1]
        proposals.append(
            ArrayConfiguration(
                starts=tuple(int(s) for s in stack.cat[lo:hi]),
                n_modules=n_modules,
            )
        )

    decisions: list = [None] * n_lanes
    score_lanes: list = []
    for k in range(n_lanes):
        if currents[k] is None:
            # Nothing to keep: adopt the proposal unconditionally.
            decisions[k] = DNORDecision(
                switch=True,
                config=proposals[k],
                candidate=proposals[k],
                energy_old_j=0.0,
                energy_new_j=0.0,
                energy_overhead_j=0.0,
                inor_seconds=generation_seconds,
                predict_seconds=0.0,
                used_fallback_forecast=False,
            )
        elif np.array_equal(proposals[k].starts, currents[k].starts):
            # The proposal is the current configuration: keeping it is
            # free and optimal — no forecast.
            decisions[k] = DNORDecision(
                switch=False,
                config=currents[k],
                candidate=currents[k],
                energy_old_j=0.0,
                energy_new_j=0.0,
                energy_overhead_j=0.0,
                inor_seconds=generation_seconds,
                predict_seconds=0.0,
                used_fallback_forecast=False,
            )
        else:
            score_lanes.append(k)

    if score_lanes:
        # Per-lane forecasts (sequential by design — regression state),
        # then one stacked horizon scoring pass over every lane's
        # (current, candidate) pair.  All lanes share tp/dt, so every
        # horizon has the same row count and stacks rectangularly.
        horizon_temps: list = []
        predict_secs: list = []
        fallbacks: list = []
        for k in score_lanes:
            rows, psec, used_fallback = planners[k]._forecast_horizon(
                lane_histories[k], temps_now[k]
            )
            horizon_temps.append(rows)
            predict_secs.append(psec + absorb_seconds[k])
            fallbacks.append(used_fallback)
        horizon_emf = alpha * (
            np.stack(horizon_temps)
            - ambients[score_lanes][:, None, None]
        )
        starts_list = []
        for k in score_lanes:
            starts_list.append(currents[k].starts)
            starts_list.append(proposals[k].starts)
        case_of_config = np.repeat(
            np.arange(len(score_lanes), dtype=np.int64), 2
        )
        power, voltage = array_mpp_rows_multi_stack(
            horizon_emf, resistance, starts_list, case_of_config
        )
        delivered = ref._charger.delivered_batch(power, voltage)
        energies = delivered.sum(axis=1) * ref._sample_dt_s

        for j, k in enumerate(score_lanes):
            planner = planners[k]
            current = currents[k]
            candidate = proposals[k]
            energy_old = float(energies[2 * j])
            energy_new = float(energies[2 * j + 1])
            # The scalar switching bill (kept per-lane verbatim): the
            # pre-switch power at the decision instant and the paper's
            # overhead inequality.
            power_now = planner._charger.delivered_at_mpp(
                array_mpp(emf_rows[k], resistance, current.starts)
            )
            energy_overhead = planner._overhead.event_energy_j(
                power_w=max(power_now, 0.0),
                compute_time_s=planner._nominal_compute_s,
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
                predict_seconds=predict_secs[j],
                used_fallback_forecast=fallbacks[j],
            )
    return tuple(decisions)
