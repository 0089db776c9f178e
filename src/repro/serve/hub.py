"""Cross-session micro-batching — layer 6's stacked physics and epochs.

The :class:`SessionHub` holds every live :class:`~repro.serve.session.
StreamSession`, seated in one :class:`~repro.serve.session.PhysicsGroup`
per ``(boundary fingerprint, n_modules)``: a group's queued chunks
settle in ONE boundary solve, in the feed that completes its barrier
(every member holding a queued chunk) or, for a group left incomplete,
at the top of :meth:`SessionHub.run_epoch`.  ``add`` and ``remove``
seat and unseat a session, so a removed session stops holding its
group's barrier.  The boundary fingerprint is memoised per boundary
object, which the sessions of one scenario share.

Settled rows drive each session's policy.  A stacked session gates
every sample through its own policy's ``observe`` and queues each due
epoch's kernel inputs; once per hub epoch :meth:`SessionHub.run_epoch`
drains every queue through :meth:`SessionHub._run_group`, a thin loop
over :func:`repro.sim.gridstack.decide_epochs` — the one stacked epoch
step gridstack runs too, which ranks or plans a group's epochs in one
kernel pass and commits DNOR lanes through each policy's own
``commit``.  :meth:`StreamSession.resolve` then retires the epochs and
logs the applied configurations.

* INOR epochs are independent, so a group takes *every* pending epoch
  in one pass: K concurrent vehicles cost roughly one INOR evaluation
  per hub epoch instead of K.
* DNOR epochs chain — epoch r+1 plans against epoch r's committed
  configuration and predictor-stream refit — so a group takes *one*
  epoch per session per pass.

That keeps the online decision logs byte-equal to the offline batch
reference.  Sessions stack only when their decision inputs are
interchangeable — one :func:`~repro.sim.gridstack.stack_key`, the core
of gridstack's fused-group key: same policy, module electrical identity,
array size and converter curve (plus, for DNOR, the same horizon
geometry).  Incompatible sessions still work; they just land in separate
groups (each its own stacked pass).  Inline-policy sessions (EHTR,
Baseline, measured-compute DNOR) never queue pending work and pass
through the hub untouched.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

# Unused here, but perfbench/tracing.py probes this name in this module.
from repro.core.dnor import dnor_stack  # noqa: F401
from repro.errors import ConfigurationError
from repro.serve.session import DecisionRecord, PhysicsGroup, StreamSession
from repro.sim.gridstack import decide_epochs, stack_key
from repro.sim.scenario import Scenario

__all__ = ["HubStats", "SessionHub"]

_BOUNDARY_TOKENS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _physics_key(scenario: Scenario) -> Tuple[bytes, int]:
    """A session's physics group: boundary fingerprint and chain length.

    ``fingerprint_tokens()`` serialises every boundary parameter (tens
    of microseconds), so it is memoised per boundary; the sessions
    opened from one scenario share its boundary object.
    """
    boundary = scenario.boundary
    try:
        tokens = _BOUNDARY_TOKENS[boundary]
    except KeyError:
        tokens = _BOUNDARY_TOKENS[boundary] = boundary.fingerprint_tokens()
    except TypeError:  # unhashable or not weakly referable: no memo
        tokens = boundary.fingerprint_tokens()
    return tokens, int(scenario.n_modules)


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
    """Registry of live sessions, their physics groups and the stacked
    decision epoch."""

    def __init__(self) -> None:
        self._sessions: Dict[str, StreamSession] = {}
        self._groups: Dict[Tuple[bytes, int], PhysicsGroup] = {}
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
        """Register a session and seat it in its physics group; ids must
        be unique among live sessions."""
        if session.session_id in self._sessions:
            raise ConfigurationError(
                f"duplicate session id {session.session_id!r}"
            )
        key = _physics_key(session.scenario)
        group = self._groups.get(key) or PhysicsGroup()
        group.join(session)
        self._groups[key] = group
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
        """Deregister (and return) a session, unseating it from its
        physics group; it settles alone from then on."""
        session = self._sessions.pop(self.get(session_id).session_id)
        key = _physics_key(session.scenario)
        group = self._groups[key]
        group.leave(session)
        if not group.members:
            del self._groups[key]
        return session

    # ------------------------------------------------------------------
    def run_epoch(self) -> Dict[str, List[DecisionRecord]]:
        """Resolve every pending epoch across all sessions.

        First settles every physics group still holding queued chunks
        (an incomplete barrier), then groups sessions by stacking
        identity and drains each group through :meth:`_run_group`.
        Returns the newly emitted records keyed by session id (sessions
        with nothing pending, or whose epochs all kept the current
        configuration, are omitted).
        """
        for group in self._groups.values():
            if group.waiting:
                group.settle()
        groups: Dict[Tuple, List[StreamSession]] = {}
        for session in self._sessions.values():
            if session.pending:
                groups.setdefault(
                    stack_key(session.scenario, session.policy_name), []
                ).append(session)
        self._stats.epochs += 1
        emitted: Dict[str, List[DecisionRecord]] = {}
        for members in groups.values():
            emitted.update(self._run_group(members))
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

    def _run_group(
        self, members: List[StreamSession]
    ) -> Dict[str, List[DecisionRecord]]:
        """Drain one stack group's pending epochs through the epoch step.

        The members share one :func:`~repro.sim.gridstack.stack_key`.
        Each pass hands the live members' epochs to one
        :func:`~repro.sim.gridstack.decide_epochs` call, in queue order:
        an INOR pass takes every pending epoch (so an INOR group is one
        pass), a DNOR pass the head epoch of each member, because epoch
        ``r+1`` depends on epoch ``r``'s commit and on the
        predictor-stream mutations its plan performs.  ``dnor_stack``
        takes no time argument, so lanes whose epochs fired at
        different stream times stack safely.
        """
        dnor = members[0].policy_name == "DNOR"
        emitted: Dict[str, List[DecisionRecord]] = {}
        while True:
            live = [s for s in members if s.pending]
            if not live:
                return emitted
            queues = [s.pending[:1] if dnor else s.pending for s in live]
            epochs = [(s, p) for s, queue in zip(live, queues) for p in queue]
            rows = decide_epochs(
                [s.policy for s, _ in epochs],
                [p.time_s for _, p in epochs],
                [p.inputs for _, p in epochs],
            )
            self._count_pass(len(epochs), len(live))
            offset = 0
            for session, queue in zip(live, queues):
                records = session.resolve(rows[offset : offset + len(queue)])
                offset += len(queue)
                if records:
                    emitted.setdefault(session.session_id, []).extend(records)

    def drain(self, session_id: str) -> List[DecisionRecord]:
        """Resolve one session's pending epochs (used when it closes).

        Still goes through the stacked kernel (a single-session group)
        so the decision arithmetic is identical to a full epoch.
        """
        session = self.get(session_id)
        if not session.pending:
            return []
        return self._run_group([session]).get(session.session_id, [])
