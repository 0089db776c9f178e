"""Per-vehicle streaming sessions — layer 6's unit of state.

A :class:`StreamSession` owns everything one telemetry stream needs to
be decided online exactly as the offline batch engine would decide it:

* a seat in a :class:`PhysicsGroup`: the sessions of one hub that share
  a thermal boundary (equal ``fingerprint_tokens()``) and chain length.
  :meth:`StreamSession.feed` validates and queues a chunk, and the group
  settles with ONE boundary solve over its members' concatenated sensed
  columns, split back by rows: in the feed that gives its last member a
  queued chunk (a waiting-members counter), in an inline session's own
  feed, when a member's :attr:`~StreamSession.pending` is read, or at
  the top of the hub's ``run_epoch``.  A session outside a hub settles
  alone in its own feed.  The solve is row-wise elementwise (the
  boundary protocol's contract), so every row is bitwise the sensed row
  of the offline precompute; a session never computes the true rows,
  EMFs or ``P_ideal`` it does not read,
* the session's seeded temperature scanner — successive chunked
  :meth:`~repro.vehicle.sensors.ModuleTemperatureScanner.scan_batch`
  calls on one persisted generator draw exactly the doubles a single
  whole-trace batch draw would (C-order fill of the bit stream, pinned
  in the stream parity suite),
* the session's policy, built by :meth:`Scenario.make_policy`.  Once its
  rows settle, each member scans them and runs its policy in sample
  order.  Inline sessions (EHTR, Baseline, measured-compute DNOR) call
  its ``decide`` sample by sample.  Stacked sessions (every INOR
  session, nominal-compute DNOR) split that call:
  the policy's own ``observe`` gates each sample, and every due epoch's
  kernel inputs queue as a :class:`PendingEpoch`
  (:attr:`StreamSession.pending`); the
  :class:`~repro.serve.hub.SessionHub` decides the queued epochs of
  every concurrent session through the stacked epoch step
  (:func:`~repro.sim.gridstack.decide_epochs`, which commits through
  the policy's own ``commit``) and hands the applied configurations
  back through :meth:`StreamSession.resolve`.  Sense, decide and commit
  are the policy's own code either way.

The emitted decision log — one :class:`DecisionRecord` per applied
configuration — is byte-identical to :func:`offline_decision_log` run
over the complete trace (pinned in ``tests/test_serve.py`` and diffed
byte-clean in CI).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.physics import TracePhysics
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


def _record(index: int, time_s: float, starts) -> DecisionRecord:
    """The log record of an applied configuration's group starts."""
    starts = tuple(int(s) for s in starts)
    return DecisionRecord(
        index=index, time_s=time_s, starts=starts, n_groups=len(starts)
    )


@dataclass(frozen=True)
class PendingEpoch:
    """A due epoch awaiting the hub's stacked kernel pass.

    ``inputs`` is what the policy's ``observe`` returned at the epoch
    boundary — ``(emf, resistance)`` for INOR, ``(history, ambient_c,
    new_rows)`` for DNOR — frozen there, so deciding it later (in the
    hub's pass) sees exactly what the inline ``decide`` would have.
    """

    index: int
    time_s: float
    inputs: tuple


class PhysicsGroup:
    """Sessions whose queued chunks settle in one boundary solve.

    The hub owns one group per ``(boundary fingerprint, n_modules)``.  A
    member reaches its group through a weak reference, so a dropped hub
    frees its groups (their members then settle alone).  ``waiting``
    counts the members holding a queued chunk; when it reaches
    ``len(members)`` the barrier is complete and the feed that completed
    it settles the group.
    """

    def __init__(self) -> None:
        self.members: List["StreamSession"] = []
        self.waiting = 0

    def join(self, session: "StreamSession") -> None:
        """Seat ``session``; a session sits in at most one live group."""
        if session._live_group() is not None:
            raise ConfigurationError(
                f"session {session.session_id!r} is already in a hub"
            )
        session._group = weakref.ref(self)
        self.members.append(session)
        self.waiting += bool(session._queued)

    def leave(self, session: "StreamSession") -> None:
        """Unseat ``session``; it stops holding the group's barrier.

        The leaver's queued chunks stay with it and settle alone; a
        barrier that only the leaver was holding settles at once.
        """
        self.members.remove(session)
        session._group = None
        self.waiting -= bool(session._queued)
        if self.members and self.waiting == len(self.members):
            self.settle()

    def settle(self) -> None:
        """Settle every member's queued chunks in one boundary solve."""
        _settle(self.members)
        self.waiting = 0


def _settle(sessions: Sequence["StreamSession"]) -> None:
    """One boundary solve over the queued chunks of ``sessions``.

    The sessions share a boundary (by fingerprint) and chain length, so
    one ``solve_trace`` over their concatenated sensed columns holds
    every member's rows, each bitwise a separate solve (the boundary
    protocol is row-wise elementwise).  The effective hot-side
    temperatures ``ambient + delta_t`` split back by rows, and each
    member scans and decides its own in sample order.
    """
    waiting = [s for s in sessions if s._queued]
    if not waiting:
        return
    chunks = [chunk for s in waiting for chunk in s._queued]
    times, inlet, flow, ambient, air_flow = (
        np.concatenate(column) for column in zip(*chunks)
    )
    scenario = waiting[0].scenario
    solution = scenario.boundary.solve_trace(
        inlet, flow, ambient, air_flow, scenario.n_modules
    )
    sensed_temps_c = ambient[:, None] + solution.delta_t_k
    lo = 0
    for session in waiting:
        hi = lo + sum(chunk[0].size for chunk in session._queued)
        session._queued = []
        session._consume(times[lo:hi], ambient[lo:hi], sensed_temps_c[lo:hi])
        lo = hi


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
        Scheme name — ``"INOR"`` (micro-batched through the hub),
        ``"DNOR"`` (micro-batched under nominal compute accounting),
        ``"EHTR"`` or ``"Baseline"`` (driven inline).  An unknown name raises
        :class:`~repro.errors.ConfigurationError`.
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
        self._scanner = scenario.make_scanner()
        self._scanner.reset()
        self._policy = scenario.make_policy(policy, refit=dnor_refit)
        self._policy.reset()
        # Stacked sessions need a stacked kernel bit-identical to the
        # inline one: INOR, and DNOR under deterministic (nominal)
        # compute accounting.  The rest decide inline.
        self._stacked = policy == "INOR" or (
            policy == "DNOR" and scenario.nominal_compute_s is not None
        )
        self._sample_index = 0
        self._last_time_s = -np.inf
        self._records: List[DecisionRecord] = []
        self._pending: List[PendingEpoch] = []
        # Validated chunks awaiting their group's solve, each
        # ``(time, sensed inlet, sensed flow, ambient, cold flow)``.
        self._queued: List[Tuple[np.ndarray, ...]] = []
        self._group: Optional[weakref.ref] = None

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
    def policy(self):
        """The session's policy object (the hub's epoch step decides
        and commits through it)."""
        return self._policy

    @property
    def micro_batched(self) -> bool:
        """Whether decisions go through the hub's stacked kernel pass."""
        return self._stacked

    @property
    def n_samples_seen(self) -> int:
        """Telemetry samples accepted so far, settled or queued."""
        return self._sample_index + sum(c[0].size for c in self._queued)

    @property
    def records(self) -> Tuple[DecisionRecord, ...]:
        """All decisions emitted so far, in sample order."""
        return tuple(self._records)

    @property
    def pending(self) -> Tuple[PendingEpoch, ...]:
        """Due epochs awaiting the hub, oldest first.

        A session holding a queued chunk settles its group first.
        """
        if self._queued:
            self._settle_group(self._live_group())
        return tuple(self._pending)

    def _live_group(self) -> Optional[PhysicsGroup]:
        return None if self._group is None else self._group()

    def _settle_group(self, group: Optional[PhysicsGroup]) -> None:
        if group is None:
            _settle([self])
        else:
            group.settle()

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
        """Validate and queue one telemetry chunk (matching 1-D columns).

        Sensed columns default to the true ones.  The chunk settles with
        the session's physics group (see the module docstring): inline-
        policy sessions settle in this call and return the decisions
        fired inside the chunk; micro-batched sessions return ``[]``,
        their due epochs join :attr:`pending` when the group settles and
        their records arrive when the hub runs its next stacked epoch.

        A malformed chunk raises :class:`~repro.errors.SimulationError`
        before any session state changes, so the session can go on with
        a corrected chunk; see :meth:`_check_chunk`.
        """
        # Copies: a queued chunk must not see the caller's later writes.
        times, inlet, flow, ambient, air_flow, sensed_inlet, sensed_flow = (
            None if column is None else np.array(column, dtype=float)
            for column in (
                time_s,
                coolant_inlet_c,
                coolant_flow_kg_s,
                ambient_c,
                air_flow_kg_s,
                coolant_inlet_sensed_c,
                coolant_flow_sensed_kg_s,
            )
        )
        sensed_inlet = inlet if sensed_inlet is None else sensed_inlet
        sensed_flow = flow if sensed_flow is None else sensed_flow
        flows = (flow, air_flow, sensed_flow)
        self._check_chunk(times, (inlet, ambient, sensed_inlet), flows)
        self._queued.append(
            (times, sensed_inlet, sensed_flow, ambient, air_flow)
        )
        self._last_time_s = float(times[-1])
        settled = len(self._records)
        group = self._live_group()
        if group is not None and len(self._queued) == 1:
            group.waiting += 1
        if (
            group is None
            or not self._stacked
            or group.waiting == len(group.members)
        ):
            self._settle_group(group)
        return self._records[settled:]

    def _consume(
        self,
        times: np.ndarray,
        ambient: np.ndarray,
        sensed_temps_c: np.ndarray,
    ) -> None:
        """Scan settled rows and run the policy on them in sample order."""
        scanned = self._scanner.scan_batch(sensed_temps_c)
        for j in range(times.size):
            index = self._sample_index + j
            t = float(times[j])
            amb = float(ambient[j])
            if self._stacked:
                inputs = self._policy.observe(t, scanned[j], amb)
                if inputs is not None:
                    self._pending.append(PendingEpoch(index, t, inputs))
            else:
                config = self._policy.decide(t, scanned[j], amb)
                if config is not None:
                    self._records.append(_record(index, t, config.starts))
        self._sample_index += times.size

    def _check_chunk(
        self,
        times: np.ndarray,
        columns: Sequence[np.ndarray],
        flows: Sequence[np.ndarray],
    ) -> None:
        """Refuse a hostile chunk before it is queued.

        Every column must match ``time_s`` sample for sample, every
        value must be finite, every mass flow (coolant or gas, air or
        cold stream, sensed) must be positive, and ``time_s`` must
        strictly increase, both within the chunk and from the previous
        chunk's last sample.  So one member's queued chunk cannot fail
        its group's deferred solve.
        """
        where = f"session {self.session_id!r}"
        if times.ndim != 1 or times.size < 1:
            raise SimulationError(
                f"{where}: chunk time_s must be non-empty 1-D, "
                f"got {times.shape}"
            )
        for column in (*columns, *flows):
            if column.shape != times.shape:
                raise SimulationError(
                    f"{where}: chunk columns of shape {column.shape} do "
                    f"not match time_s of {times.size} samples"
                )
        if not np.isfinite(np.stack([times, *columns, *flows])).all():
            raise SimulationError(
                f"{where}: chunk holds non-finite (NaN or inf) values"
            )
        if not (np.stack(flows) > 0.0).all():
            raise SimulationError(
                f"{where}: chunk mass flows must be > 0 (coolant or gas, "
                f"air or cold stream, sensed)"
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

    def resolve(self, rows: Sequence) -> List[DecisionRecord]:
        """Retire the oldest pending epochs once the hub has decided them.

        Called by the hub after its epoch step (which already ran the
        policy's ``commit``) with one membership row per epoch, for the
        first ``len(rows)`` pending epochs in queue order: all of them
        for INOR (independent epochs), the head one per round for DNOR
        (each epoch plans against the previous one's commit).  A row
        holds the applied configuration's group starts, or is all
        ``False`` where the epoch kept the configuration.  Returns (and
        stores) the records of the applied configurations.  A row count
        of zero or more than :attr:`pending` raises
        :class:`~repro.errors.SimulationError` before any state changes.
        """
        count = len(rows)
        if not 0 < count <= len(self._pending):
            raise SimulationError(
                f"session {self.session_id!r}: {count} decisions for "
                f"{len(self._pending)} pending epochs"
            )
        epochs = self._pending[:count]
        del self._pending[:count]
        emitted = [
            _record(epoch.index, epoch.time_s, np.flatnonzero(row).tolist())
            for epoch, row in zip(epochs, rows)
            if row[0]
        ]
        self._records.extend(emitted)
        return emitted


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
    policy_obj = scenario.make_policy(policy, refit=dnor_refit)
    policy_obj.reset()
    trace = scenario.trace
    records: List[DecisionRecord] = []
    for i in range(trace.n_samples):
        t = float(trace.time_s[i])
        config = policy_obj.decide(t, scanned[i], float(trace.ambient_c[i]))
        if config is not None:
            records.append(_record(i, t, config.starts))
    return records
