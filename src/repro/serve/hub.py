"""Cross-session decision micro-batching — layer 6's stacked epochs.

The :class:`SessionHub` holds every live :class:`~repro.serve.session.
StreamSession` and, once per decision epoch, drains their pending INOR
rows through :func:`repro.core.inor.inor_stack`: all fired samples from
all compatible sessions become one ``(rows, N)`` EMF matrix and one
stacked kernel pass, so K concurrent vehicles cost roughly one INOR
evaluation per epoch instead of K.  ``inor_stack`` is pinned
bit-identical per row to the scalar :func:`~repro.core.inor.inor` call
a standalone :class:`~repro.core.controller.PeriodicPolicy` would make,
which is what keeps the online decision logs byte-equal to the offline
batch reference.

DNOR sessions under nominal compute accounting micro-batch the same
way, one level up: their due *epochs* queue on the
session (:attr:`StreamSession.pending_epochs`) and the hub plans them
in rounds through :func:`repro.core.dnor.dnor_stack` — the r-th pending
epoch of every compatible session becomes one stacked Algorithm 2 pass.
Rounds, not one flat batch, because epoch r+1 of a session depends on
epoch r's committed configuration and predictor-stream refit.
:meth:`~repro.core.dnor.DNORPlanner.plan` is the one-lane call of
``dnor_stack`` (the K-lane decisions are pinned equal to it lane for
lane), which keeps the stacked online log byte-equal to the inline
one.

Sessions stack only when their decision inputs are interchangeable —
one :func:`~repro.sim.gridstack.stack_key`, the core of gridstack's
fused-group key: same module electrical identity, array size and
converter curve (plus, for DNOR, the same horizon geometry).
Incompatible sessions still work; they just land in separate groups
(each its own stacked pass).  Inline-policy sessions (EHTR, Baseline,
scalar-kernel INOR, measured-compute DNOR) never queue pending work
and pass through the hub untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.core.dnor import dnor_stack
from repro.core.inor import inor_stack
from repro.errors import ConfigurationError
from repro.serve.session import DecisionRecord, StreamSession
from repro.sim.gridstack import stack_key

__all__ = ["HubStats", "SessionHub"]


@dataclass
class HubStats:
    """Running counters for the hub's stacked epochs."""

    epochs: int = 0
    stacked_passes: int = 0
    rows_decided: int = 0
    max_rows_per_pass: int = 0
    max_sessions_per_pass: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict form for logs and benchmark artifacts."""
        return {
            "epochs": self.epochs,
            "stacked_passes": self.stacked_passes,
            "rows_decided": self.rows_decided,
            "max_rows_per_pass": self.max_rows_per_pass,
            "max_sessions_per_pass": self.max_sessions_per_pass,
        }


class SessionHub:
    """Registry of live sessions plus the stacked decision epoch."""

    def __init__(self) -> None:
        self._sessions: Dict[str, StreamSession] = {}
        self._stats = HubStats()

    # ------------------------------------------------------------------
    @property
    def stats(self) -> HubStats:
        """Stacking counters since construction."""
        return self._stats

    @property
    def sessions(self) -> Tuple[StreamSession, ...]:
        """Live sessions in registration order."""
        return tuple(self._sessions.values())

    def add(self, session: StreamSession) -> StreamSession:
        """Register a session; ids must be unique among live sessions."""
        if session.session_id in self._sessions:
            raise ConfigurationError(
                f"duplicate session id {session.session_id!r}"
            )
        self._sessions[session.session_id] = session
        return session

    def get(self, session_id: str) -> StreamSession:
        """Look up a live session by id."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown session id {session_id!r}"
            ) from None

    def remove(self, session_id: str) -> StreamSession:
        """Deregister (and return) a session."""
        return self._sessions.pop(self.get(session_id).session_id)

    # ------------------------------------------------------------------
    def run_epoch(self) -> Dict[str, List[DecisionRecord]]:
        """Resolve every pending row and epoch across all sessions.

        Groups sessions by stacking identity, runs one ``inor_stack``
        pass per INOR group over the concatenated pending EMF rows, and
        dispatches each row's winning configuration back to its session
        in queue order.  Pending DNOR epochs resolve in *rounds* per
        group — see :meth:`_run_dnor_rounds`.  Returns the newly
        emitted records keyed by session id (sessions with nothing
        pending, or whose epochs all kept the current configuration,
        are omitted).
        """
        groups: Dict[Tuple, List[StreamSession]] = {}
        for session in self._sessions.values():
            if session.pending or session.pending_epochs:
                groups.setdefault(
                    stack_key(session.scenario, session.policy_name), []
                ).append(session)
        self._stats.epochs += 1
        emitted: Dict[str, List[DecisionRecord]] = {}
        for key, members in groups.items():
            if key[0] == "DNOR":
                emitted.update(self._run_dnor_rounds(members))
            else:
                emitted.update(self._run_inor_group(members))
        return emitted

    def _count_pass(self, rows: int, sessions: int) -> None:
        """Account one stacked kernel pass in :attr:`stats`."""
        stats = self._stats
        stats.stacked_passes += 1
        stats.rows_decided += rows
        stats.max_rows_per_pass = max(stats.max_rows_per_pass, rows)
        stats.max_sessions_per_pass = max(
            stats.max_sessions_per_pass, sessions
        )

    def _run_inor_group(
        self, members: List[StreamSession]
    ) -> Dict[str, List[DecisionRecord]]:
        """Resolve the members' pending INOR rows in one stacked pass.

        The members share one :func:`~repro.sim.gridstack.stack_key`;
        their pending EMF rows are concatenated in queue order, decided
        by one ``inor_stack`` call, and each row's winning configuration
        goes back to its session.
        """
        scenario = members[0].scenario
        emf_rows = np.vstack([p.emf_row for s in members for p in s.pending])
        # Same Thevenin arithmetic as PeriodicPolicy's scalar path:
        # the module model's nominal chain resistance.
        resistance = np.full(
            int(scenario.n_modules), scenario.module.internal_resistance()
        )
        charger = scenario.make_charger(with_battery=False)
        results = inor_stack(emf_rows, resistance, charger=charger)
        self._count_pass(emf_rows.shape[0], len(members))
        emitted: Dict[str, List[DecisionRecord]] = {}
        offset = 0
        for session in members:
            count = len(session.pending)
            starts = [
                tuple(int(v) for v in results[offset + j].config.starts)
                for j in range(count)
            ]
            offset += count
            emitted[session.session_id] = session.resolve_pending(starts)
        return emitted

    def _run_dnor_rounds(
        self, members: List[StreamSession]
    ) -> Dict[str, List[DecisionRecord]]:
        """Drain the members' pending DNOR epochs in stacked rounds.

        Round ``r`` plans the r-th pending epoch of every member that
        still has one through a single :func:`dnor_stack` call and
        commits each lane's decision back to its session.  Sequencing
        by rounds is mandatory: epoch ``r+1`` depends on epoch ``r``'s
        committed configuration and on the predictor-stream mutations
        its plan performs.  ``dnor_stack`` takes no time argument, so
        lanes whose epochs fired at different stream times stack
        safely.
        """
        emitted: Dict[str, List[DecisionRecord]] = {}
        while True:
            live = [s for s in members if s.pending_epochs]
            if not live:
                return emitted
            heads = [s.pending_epochs[0] for s in live]
            decisions = dnor_stack(
                [s.dnor_planner for s in live],
                [p.history for p in heads],
                np.array([p.ambient_c for p in heads]),
                [s.dnor_current for s in live],
                new_rows=[p.new_rows for p in heads],
            )
            self._count_pass(len(live), len(live))
            for session, decision in zip(live, decisions):
                record = session.resolve_next_epoch(decision)
                if record is not None:
                    emitted.setdefault(session.session_id, []).append(record)

    def drain(self, session_id: str) -> List[DecisionRecord]:
        """Resolve one session's pendings (used when a session closes).

        Still goes through the stacked kernel (a single-session pass) so
        the decision arithmetic is identical to a full epoch.
        """
        session = self.get(session_id)
        if session.pending_epochs:
            emitted = self._run_dnor_rounds([session])
        elif session.pending:
            emitted = self._run_inor_group([session])
        else:
            return []
        return emitted.get(session.session_id, [])
