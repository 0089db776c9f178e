"""Per-vehicle streaming sessions — layer 6's unit of state.

A :class:`StreamSession` owns everything one telemetry stream needs to
be decided online exactly as the offline batch engine would decide it:

* a :class:`~repro.sim.physics.TracePhysicsStream` consuming boundary-
  condition chunks (bit-identical per row to the one-shot precompute),
* the session's seeded temperature scanner — successive chunked
  :meth:`~repro.vehicle.sensors.ModuleTemperatureScanner.scan_batch`
  calls on one persisted generator draw exactly the doubles a single
  whole-trace batch draw would (C-order fill of the bit stream, pinned
  in the stream parity suite),
* either an inline policy object (EHTR / Baseline / scalar-kernel
  INOR — stateful, driven sample by sample) or a queue of *pending*
  decision work that the :class:`~repro.serve.hub.SessionHub` resolves
  in stacked kernel passes across every concurrent session: for
  batched-kernel INOR, the replica of
  :class:`~repro.core.controller.PeriodicPolicy`'s period gating plus
  pending EMF rows; for batched-kernel DNOR under nominal compute
  accounting, the :meth:`~repro.core.controller.DNORPolicy.observe` /
  :meth:`~repro.core.controller.DNORPolicy.commit` split plus pending
  *epochs* that the hub plans through
  :func:`~repro.core.dnor.dnor_stack`.

The emitted decision log — one :class:`DecisionRecord` per applied
configuration — is byte-identical to :func:`offline_decision_log` run
over the complete trace (pinned in ``tests/test_serve.py`` and diffed
byte-clean in CI).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import EpochClock
from repro.errors import ConfigurationError, SimulationError
from repro.sim.physics import TracePhysics, TracePhysicsStream
from repro.sim.scenario import Scenario

__all__ = [
    "DecisionRecord",
    "StreamSession",
    "offline_decision_log",
    "write_decision_log",
]


@dataclass(frozen=True)
class DecisionRecord:
    """One applied configuration in a session's decision log.

    Attributes
    ----------
    index:
        Trace sample index the decision fired on.
    time_s:
        Trace time of that sample.
    starts:
        Group-start modules of the applied configuration.
    n_groups:
        Number of series groups (= ``len(starts)``).
    """

    index: int
    time_s: float
    starts: Tuple[int, ...]
    n_groups: int

    def to_json_line(self) -> str:
        """Canonical one-line JSON form (byte-stable for diffing).

        Floats serialise as Python's shortest round-trip repr, so equal
        doubles always yield equal bytes.
        """
        return json.dumps(
            {
                "i": self.index,
                "t": self.time_s,
                "n": self.n_groups,
                "starts": list(self.starts),
            },
            separators=(",", ":"),
            allow_nan=False,
        )


def write_decision_log(records: Sequence[DecisionRecord], path) -> None:
    """Write a decision log as canonical JSON lines."""
    with open(path, "w", encoding="ascii") as handle:
        for record in records:
            handle.write(record.to_json_line() + "\n")


def _make_policy(scenario: Scenario, policy: str, dnor_refit: str):
    if policy == "INOR":
        return scenario.make_inor_policy()
    if policy == "EHTR":
        return scenario.make_ehtr_policy()
    if policy == "DNOR":
        return scenario.make_dnor_policy(refit=dnor_refit)
    if policy == "Baseline":
        return scenario.make_baseline_policy()
    raise ConfigurationError(
        f"unknown policy {policy!r} (expected INOR/EHTR/DNOR/Baseline)"
    )


@dataclass(frozen=True)
class PendingDecision:
    """A fired INOR sample awaiting the hub's stacked kernel pass."""

    index: int
    time_s: float
    emf_row: np.ndarray


@dataclass(frozen=True)
class PendingEpoch:
    """A due DNOR epoch awaiting the hub's stacked planning pass.

    Exactly the arguments :meth:`DNORPolicy.decide` would hand its
    planner, captured at the epoch boundary — the history snapshot and
    incremental-refit row count are frozen here, so planning later (in
    the hub's round) sees the same matrices the inline path would.
    """

    index: int
    time_s: float
    ambient_c: float
    history: np.ndarray
    new_rows: int


class StreamSession:
    """One vehicle's telemetry stream under one reconfiguration policy.

    Parameters
    ----------
    scenario:
        The session's system description (module, chain, thermal
        boundary,
        scanner seed, control knobs).  Only the boundary-condition
        columns arrive at runtime, via :meth:`feed`.
    policy:
        Scheme name — ``"INOR"`` (micro-batched through the hub when
        the scenario's kernel is batched), ``"DNOR"``, ``"EHTR"`` or
        ``"Baseline"`` (driven inline).
    session_id:
        Stable identifier used in logs and server events.
    dnor_refit:
        Refit strategy for DNOR sessions (``"full"`` or
        ``"incremental"``).
    """

    def __init__(
        self,
        scenario: Scenario,
        policy: str = "INOR",
        session_id: str = "session",
        dnor_refit: str = "full",
    ) -> None:
        self.session_id = str(session_id)
        self._scenario = scenario
        self._policy_name = str(policy)
        self._stream = TracePhysicsStream(
            scenario.boundary, scenario.module, scenario.n_modules
        )
        self._scanner = scenario.make_scanner()
        self._scanner.reset()
        batched = scenario.inor_kernel == "batched"
        self._inor_stacked = policy == "INOR" and batched
        # DNOR micro-batching needs the stacked epoch kernel's fused
        # contract: the batched kernel and deterministic (nominal)
        # compute accounting.  Measured-compute sessions stay inline.
        self._dnor_stacked = (
            policy == "DNOR"
            and batched
            and scenario.nominal_compute_s is not None
        )
        if self._inor_stacked:
            self._policy = None
            self._charger = scenario.make_charger(with_battery=False)
            module = scenario.module
            self._emf_coef = module.emf_coefficient()
            self._resistance = np.full(
                int(scenario.n_modules), module.internal_resistance()
            )
            self._clock = EpochClock(scenario.control_period_s)
        else:
            self._policy = _make_policy(scenario, policy, dnor_refit)
            self._policy.reset()
        self._sample_index = 0
        self._last_time_s = -np.inf
        self._records: List[DecisionRecord] = []
        self._pending: List[PendingDecision] = []
        self._pending_epochs: List[PendingEpoch] = []

    # ------------------------------------------------------------------
    @property
    def scenario(self) -> Scenario:
        """The session's system description."""
        return self._scenario

    @property
    def policy_name(self) -> str:
        """Scheme name driving this session."""
        return self._policy_name

    @property
    def micro_batched(self) -> bool:
        """Whether decisions go through the hub's stacked kernel pass."""
        return self._inor_stacked or self._dnor_stacked

    @property
    def n_samples_seen(self) -> int:
        """Telemetry samples consumed so far."""
        return self._sample_index

    @property
    def records(self) -> Tuple[DecisionRecord, ...]:
        """All decisions emitted so far, in sample order."""
        return tuple(self._records)

    @property
    def pending(self) -> Tuple[PendingDecision, ...]:
        """Fired INOR samples awaiting the next hub epoch."""
        return tuple(self._pending)

    @property
    def pending_epochs(self) -> Tuple[PendingEpoch, ...]:
        """Due DNOR epochs awaiting the hub's stacked planning rounds."""
        return tuple(self._pending_epochs)

    @property
    def dnor_planner(self):
        """The session's :class:`~repro.core.dnor.DNORPlanner` (the
        per-lane state the hub hands to ``dnor_stack``)."""
        return self._policy.planner

    @property
    def dnor_current(self):
        """The DNOR policy's durable configuration (``None`` before
        the first adoption)."""
        return self._policy.current_config

    # ------------------------------------------------------------------
    def feed(
        self,
        time_s: np.ndarray,
        coolant_inlet_c: np.ndarray,
        coolant_flow_kg_s: np.ndarray,
        ambient_c: np.ndarray,
        air_flow_kg_s: np.ndarray,
        coolant_inlet_sensed_c: Optional[np.ndarray] = None,
        coolant_flow_sensed_kg_s: Optional[np.ndarray] = None,
    ) -> List[DecisionRecord]:
        """Consume one telemetry chunk (matching 1-D columns).

        Inline-policy sessions return the decisions fired inside the
        chunk immediately; micro-batched sessions queue pending work —
        INOR decision rows (:attr:`pending`) or DNOR epochs
        (:attr:`pending_epochs`) — and return ``[]``; their records
        arrive when the hub runs its next stacked epoch.

        A malformed chunk raises :class:`~repro.errors.SimulationError`
        before any session state changes, so the session can go on with
        a corrected chunk; see :meth:`_check_chunk`.
        """
        times = np.asarray(time_s, dtype=float)
        columns = [
            None if column is None else np.asarray(column, dtype=float)
            for column in (
                coolant_inlet_c,
                coolant_flow_kg_s,
                ambient_c,
                air_flow_kg_s,
                coolant_inlet_sensed_c,
                coolant_flow_sensed_kg_s,
            )
        ]
        self._check_chunk(times, [c for c in columns if c is not None])
        state = self._stream.extend(*columns)
        ambient = columns[2]
        scanned = self._scanner.scan_batch(state.sensed_temps_c)
        emitted: List[DecisionRecord] = []
        for j in range(times.size):
            index = self._sample_index + j
            t = float(times[j])
            amb = float(ambient[j])
            if self._inor_stacked:
                # The same epoch gate PeriodicPolicy runs.
                if not self._clock.due(t):
                    continue
                self._pending.append(
                    PendingDecision(
                        index=index,
                        time_s=t,
                        emf_row=self._emf_coef * (scanned[j] - amb),
                    )
                )
            elif self._dnor_stacked:
                # DNORPolicy's own epoch gating; the history snapshot
                # and refit row count are frozen at the boundary, so
                # the hub's later stacked plan sees exactly what the
                # inline decide() would have seen.
                due = self._policy.observe(t, scanned[j])
                if due is not None:
                    history, n_new = due
                    self._pending_epochs.append(
                        PendingEpoch(
                            index=index,
                            time_s=t,
                            ambient_c=amb,
                            history=history,
                            new_rows=n_new,
                        )
                    )
            else:
                decision = self._policy.decide(t, scanned[j], amb)
                if decision is not None:
                    record = DecisionRecord(
                        index=index,
                        time_s=t,
                        starts=tuple(int(s) for s in decision.starts),
                        n_groups=len(decision.starts),
                    )
                    self._records.append(record)
                    emitted.append(record)
        self._sample_index += times.size
        self._last_time_s = float(times[-1])
        return emitted

    def _check_chunk(
        self, times: np.ndarray, columns: List[np.ndarray]
    ) -> None:
        """Refuse a hostile chunk before it reaches the physics stream.

        Every column must match ``time_s`` sample for sample, every
        value must be finite, and ``time_s`` must strictly increase,
        both within the chunk and from the previous chunk's last sample.
        """
        where = f"session {self.session_id!r}"
        if times.ndim != 1 or times.size < 1:
            raise SimulationError(
                f"{where}: chunk time_s must be non-empty 1-D, "
                f"got {times.shape}"
            )
        for column in columns:
            if column.shape != times.shape:
                raise SimulationError(
                    f"{where}: chunk columns of shape {column.shape} do "
                    f"not match time_s of {times.size} samples"
                )
        if not np.isfinite(np.stack([times, *columns])).all():
            raise SimulationError(
                f"{where}: chunk holds non-finite (NaN or inf) values"
            )
        if times[0] <= self._last_time_s:
            raise SimulationError(
                f"{where}: chunk starts at t={float(times[0])} s, not "
                f"after the previous chunk's last sample "
                f"t={self._last_time_s} s"
            )
        if not (np.diff(times) > 0.0).all():
            raise SimulationError(
                f"{where}: time_s must strictly increase within the chunk"
            )

    def feed_trace(self, trace, lo: int, hi: int) -> List[DecisionRecord]:
        """Convenience: :meth:`feed` from trace sample slice ``[lo, hi)``."""
        return self.feed(
            trace.time_s[lo:hi],
            trace.coolant_inlet_c[lo:hi],
            trace.coolant_flow_kg_s[lo:hi],
            trace.ambient_c[lo:hi],
            trace.air_flow_kg_s[lo:hi],
            trace.coolant_inlet_sensed_c[lo:hi],
            trace.coolant_flow_sensed_kg_s[lo:hi],
        )

    def resolve_pending(
        self, starts_per_row: Sequence[Tuple[int, ...]]
    ) -> List[DecisionRecord]:
        """Apply stacked-kernel winners to the queued pending rows.

        Called by the hub with one starts tuple per pending row, in
        queue order.  Returns (and stores) the new records.
        """
        if len(starts_per_row) != len(self._pending):
            raise SimulationError(
                f"{len(starts_per_row)} winner rows for "
                f"{len(self._pending)} pending decisions"
            )
        emitted: List[DecisionRecord] = []
        for pending, starts in zip(self._pending, starts_per_row):
            record = DecisionRecord(
                index=pending.index,
                time_s=pending.time_s,
                starts=tuple(int(s) for s in starts),
                n_groups=len(starts),
            )
            self._records.append(record)
            emitted.append(record)
        self._pending = []
        return emitted

    def resolve_next_epoch(self, decision) -> Optional[DecisionRecord]:
        """Commit the stacked planner's decision for the head epoch.

        Called by the hub once per planning *round* with this session's
        lane decision from :func:`~repro.core.dnor.dnor_stack`.  Pops
        the oldest pending epoch, feeds the decision through
        :meth:`~repro.core.controller.DNORPolicy.commit`, and returns
        the new record on a switch (``None`` on keep).
        """
        if not self._pending_epochs:
            raise SimulationError(
                f"session {self.session_id!r} has no pending epoch to resolve"
            )
        pending = self._pending_epochs.pop(0)
        config = self._policy.commit(pending.time_s, decision)
        if config is None:
            return None
        record = DecisionRecord(
            index=pending.index,
            time_s=pending.time_s,
            starts=tuple(int(s) for s in config.starts),
            n_groups=len(config.starts),
        )
        self._records.append(record)
        return record


def offline_decision_log(
    scenario: Scenario,
    policy: str = "INOR",
    dnor_refit: str = "full",
) -> List[DecisionRecord]:
    """The offline reference: decide a complete trace in one batch pass.

    Runs exactly the batch engine's decision loop — one whole-trace
    :meth:`TracePhysics.compute`, one whole-trace scanner draw, then the
    per-sample policy loop — and returns one record per applied
    configuration.  The online session log must match this byte for
    byte.
    """
    physics = TracePhysics.compute(
        scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
    )
    scanner = scenario.make_scanner()
    scanner.reset()
    scanned = scanner.scan_batch(physics.sensed_temps_c)
    policy_obj = _make_policy(scenario, policy, dnor_refit)
    policy_obj.reset()
    trace = scenario.trace
    records: List[DecisionRecord] = []
    for i in range(trace.n_samples):
        t = float(trace.time_s[i])
        decision = policy_obj.decide(t, scanned[i], float(trace.ambient_c[i]))
        if decision is not None:
            records.append(
                DecisionRecord(
                    index=i,
                    time_s=t,
                    starts=tuple(int(s) for s in decision.starts),
                    n_groups=len(decision.starts),
                )
            )
    return records
