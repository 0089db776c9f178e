"""Streaming decision service (repro.serve).

The acceptance criterion of the service layer: decisions made *online*
— chunked telemetry, micro-batched epochs across concurrent sessions —
are **bit-identical** to the offline batch engine run over the complete
trace.  Pinned per registry scenario and chunk size for INOR (the
stacked-kernel path) and for DNOR under both refit modes (epoch
micro-batching through ``dnor_stack`` rounds), plus the 64-session
single-stacked-pass scaling pin, the multi-session DNOR round pin, a
hub holding INOR and DNOR sessions together, the physics-group pins
(one boundary solve per group per round, a refused member, a session
moved between hubs), and the asyncio TCP front-end end to end.
"""

import asyncio
import collections
import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.serve import (
    SessionHub,
    StreamServer,
    StreamSession,
    offline_decision_log,
)
from repro.serve.server import (
    FEED_COLUMNS,
    LINE_LIMIT_BYTES,
    decode_column,
    encode_column,
)
from repro.sim.scenario import build_named_scenario, default_registry
from repro.thermal.exhaust import ExhaustGasBoundary
from repro.thermal.radiator import Radiator


def _stream_through_hub(scenario, policy, chunk, dnor_refit="full"):
    hub = SessionHub()
    session = hub.add(
        StreamSession(scenario, policy, "s0", dnor_refit=dnor_refit)
    )
    n = scenario.trace.n_samples
    lo = 0
    while lo < n:
        hi = min(lo + chunk, n)
        session.feed_trace(scenario.trace, lo, hi)
        hub.run_epoch()
        lo = hi
    return session.records


def _assert_logs_equal(online, offline, label):
    assert len(online) == len(offline), label
    for a, b in zip(online, offline):
        assert a.to_json_line() == b.to_json_line(), (label, a, b)


class TestOnlineOfflineParity:
    @pytest.mark.parametrize("name", default_registry().names())
    @pytest.mark.parametrize("chunk", (1, 7, 10_000))
    def test_inor_bit_identical(self, name, chunk):
        scenario = build_named_scenario(name, duration_s=12.0, n_modules=9)
        offline = offline_decision_log(scenario, "INOR")
        assert offline, "INOR must decide at least once"
        online = _stream_through_hub(scenario, "INOR", chunk)
        _assert_logs_equal(online, offline, f"{name} chunk={chunk}")

    @pytest.mark.parametrize("refit", ("full", "incremental"))
    @pytest.mark.parametrize("chunk", (1, 7))
    def test_dnor_bit_identical(self, refit, chunk):
        scenario = build_named_scenario(
            "porter-ii", duration_s=30.0, n_modules=9
        )
        offline = offline_decision_log(scenario, "DNOR", dnor_refit=refit)
        online = _stream_through_hub(
            scenario, "DNOR", chunk, dnor_refit=refit
        )
        _assert_logs_equal(online, offline, f"DNOR {refit} chunk={chunk}")

    def test_dnor_session_is_micro_batched(self):
        """Registry DNOR (nominal compute) queues epochs for the hub
        instead of planning inline."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=6.0, n_modules=9
        )
        session = StreamSession(scenario, "DNOR", "mb")
        assert session.micro_batched
        session.feed_trace(scenario.trace, 0, scenario.trace.n_samples)
        assert session.pending
        assert not session.records

    def test_measured_compute_dnor_runs_inline(self):
        """Without nominal compute accounting there is no deterministic
        fused equivalent, so the session stays on the inline path."""
        scenario = dataclasses.replace(
            build_named_scenario("porter-ii", duration_s=6.0, n_modules=9),
            nominal_compute_s=None,
        )
        session = StreamSession(scenario, "DNOR", "inline-dnor")
        assert not session.micro_batched
        session.feed_trace(scenario.trace, 0, scenario.trace.n_samples)
        assert not session.pending
        assert session.records

    def test_measured_compute_inor_is_micro_batched(self):
        """Every INOR session stacks: an INOR decision never depends on
        the compute bill, so measured compute keeps it in the hub."""
        scenario = dataclasses.replace(
            build_named_scenario("porter-ii", duration_s=10.0, n_modules=9),
            nominal_compute_s=None,
        )
        assert StreamSession(scenario, "INOR", "measured").micro_batched
        _assert_logs_equal(
            _stream_through_hub(scenario, "INOR", 7),
            offline_decision_log(scenario, "INOR"),
            "measured-compute INOR",
        )


class TestHubStacking:
    def test_64_sessions_one_stacked_pass_per_epoch(self):
        """The scaling claim: 64 concurrent compatible sessions resolve
        each decision epoch through ONE stacked kernel pass."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=4.0, n_modules=9
        )
        hub = SessionHub()
        sessions = [
            hub.add(
                StreamSession(
                    dataclasses.replace(scenario, sensor_seed=1000 + k),
                    "INOR",
                    f"s{k:02d}",
                )
            )
            for k in range(64)
        ]
        trace = scenario.trace
        chunk = 8
        lo = 0
        while lo < trace.n_samples:
            hi = min(lo + chunk, trace.n_samples)
            for session in sessions:
                session.feed_trace(trace, lo, hi)
            hub.run_epoch()
            lo = hi
        stats = hub.stats
        assert stats.max_sessions_per_pass == 64
        # Every epoch with pending rows used exactly one pass.
        assert stats.stacked_passes <= stats.epochs
        assert stats.rows_decided == sum(
            len(s.records) for s in sessions
        )
        # And the decisions still match each session's offline run.
        for k in (0, 31, 63):
            offline = offline_decision_log(
                dataclasses.replace(scenario, sensor_seed=1000 + k), "INOR"
            )
            _assert_logs_equal(
                sessions[k].records, offline, f"session {k}"
            )

    def test_dnor_sessions_stack_in_rounds(self):
        """Concurrent DNOR sessions resolve each epoch round through
        ONE dnor_stack pass, and every session's log still matches its
        own offline reference bit for bit."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=20.0, n_modules=9
        )
        seeds = [700 + k for k in range(5)]
        hub = SessionHub()
        sessions = [
            hub.add(
                StreamSession(
                    dataclasses.replace(scenario, sensor_seed=seed),
                    "DNOR",
                    f"d{seed}",
                )
            )
            for seed in seeds
        ]
        trace = scenario.trace
        chunk = 16
        lo = 0
        while lo < trace.n_samples:
            hi = min(lo + chunk, trace.n_samples)
            for session in sessions:
                session.feed_trace(trace, lo, hi)
            hub.run_epoch()
            lo = hi
        stats = hub.stats
        assert stats.max_sessions_per_pass == len(seeds)
        # One lane decided per session per epoch round.
        assert stats.rows_decided == stats.stacked_passes * len(seeds)
        for session, seed in zip(sessions, seeds):
            offline = offline_decision_log(
                dataclasses.replace(scenario, sensor_seed=seed), "DNOR"
            )
            _assert_logs_equal(session.records, offline, f"seed {seed}")

    def test_dnor_drain_resolves_tail_epochs(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=12.0, n_modules=9
        )
        hub = SessionHub()
        session = hub.add(StreamSession(scenario, "DNOR", "dtail"))
        session.feed_trace(scenario.trace, 0, scenario.trace.n_samples)
        assert session.pending
        hub.drain("dtail")
        assert not session.pending
        _assert_logs_equal(
            session.records,
            offline_decision_log(scenario, "DNOR"),
            "dnor drain",
        )

    def test_queued_dnor_history_survives_later_feeds(self):
        """A queued DNOR epoch's history is a view of the policy's row
        buffer: feeding more chunks before ``run_epoch`` (growing and
        compacting that buffer) must leave it unchanged, bit for bit."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=12.0, n_modules=9
        )
        trace = scenario.trace
        hub = SessionHub()
        session = hub.add(StreamSession(scenario, "DNOR", "dview"))
        session.feed_trace(trace, 0, 5)
        queued = session.pending
        assert queued
        snapshots = [p.inputs[0].copy() for p in queued]
        for lo in range(5, trace.n_samples, 3):
            session.feed_trace(trace, lo, min(lo + 3, trace.n_samples))
        assert len(session.pending) > len(queued)
        for epoch, snapshot in zip(queued, snapshots):
            assert epoch.inputs[0].tobytes() == snapshot.tobytes()
        hub.run_epoch()
        _assert_logs_equal(
            session.records,
            offline_decision_log(scenario, "DNOR"),
            "dnor queued views",
        )

    def test_mixed_inor_dnor_hub_resolves_in_one_run_epoch(self):
        """INOR and DNOR sessions of one scenario share a hub: a single
        run_epoch drains both through the one group loop (one INOR
        pass, one DNOR round per epoch) and each log matches offline."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=16.0, n_modules=9
        )
        hub = SessionHub()
        specs = [("INOR", 810), ("DNOR", 811), ("INOR", 812), ("DNOR", 813)]
        sessions = [
            hub.add(
                StreamSession(
                    dataclasses.replace(scenario, sensor_seed=seed),
                    policy,
                    f"{policy}-{seed}",
                )
            )
            for policy, seed in specs
        ]
        trace = scenario.trace
        for session in sessions:
            session.feed_trace(trace, 0, trace.n_samples)
        inor_rows = sum(
            len(s.pending) for s in sessions if s.policy_name == "INOR"
        )
        dnor_epochs = [
            len(s.pending) for s in sessions if s.policy_name == "DNOR"
        ]
        assert inor_rows and dnor_epochs[0] == dnor_epochs[1] > 1
        emitted = hub.run_epoch()
        stats = hub.stats
        assert stats.epochs == 1
        assert stats.stacked_passes == 1 + dnor_epochs[0]
        assert stats.max_rows_per_pass == inor_rows
        assert stats.rows_decided == inor_rows + sum(dnor_epochs)
        for session, (policy, seed) in zip(sessions, specs):
            assert not session.pending
            offline = offline_decision_log(
                dataclasses.replace(scenario, sensor_seed=seed), policy
            )
            _assert_logs_equal(session.records, offline, session.session_id)
            assert tuple(emitted[session.session_id]) == session.records

    def test_incompatible_sessions_split_groups(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=2.0, n_modules=9
        )
        other = build_named_scenario(
            "porter-ii", duration_s=2.0, n_modules=16
        )
        hub = SessionHub()
        a = hub.add(StreamSession(scenario, "INOR", "a"))
        b = hub.add(StreamSession(other, "INOR", "b"))
        a.feed_trace(scenario.trace, 0, scenario.trace.n_samples)
        b.feed_trace(other.trace, 0, other.trace.n_samples)
        hub.run_epoch()
        assert hub.stats.stacked_passes == 2
        assert hub.stats.max_sessions_per_pass == 1
        _assert_logs_equal(
            a.records, offline_decision_log(scenario, "INOR"), "a"
        )
        _assert_logs_equal(
            b.records, offline_decision_log(other, "INOR"), "b"
        )

    def test_duplicate_session_id_rejected(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=2.0, n_modules=4
        )
        hub = SessionHub()
        hub.add(StreamSession(scenario, "INOR", "dup"))
        with pytest.raises(ConfigurationError, match="duplicate"):
            hub.add(StreamSession(scenario, "INOR", "dup"))

    def test_drain_resolves_tail_pendings(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=6.0, n_modules=9
        )
        hub = SessionHub()
        session = hub.add(StreamSession(scenario, "INOR", "tail"))
        session.feed_trace(scenario.trace, 0, scenario.trace.n_samples)
        assert session.pending
        n_rows = len(session.pending)
        hub.drain("tail")
        assert not session.pending
        stats = hub.stats
        assert stats.stacked_passes == 1
        assert stats.rows_decided == n_rows
        assert stats.max_rows_per_pass == n_rows
        assert stats.max_sessions_per_pass == 1
        _assert_logs_equal(
            session.records,
            offline_decision_log(scenario, "INOR"),
            "drain",
        )


def _count_solves(monkeypatch):
    """Count boundary solves per boundary class from here on."""
    calls = collections.Counter()
    for cls in (Radiator, ExhaustGasBoundary):

        def counted(self, *args, _solve=cls.solve_trace, _name=cls.__name__):
            calls[_name] += 1
            return _solve(self, *args)

        monkeypatch.setattr(cls, "solve_trace", counted)
    return calls


class TestPhysicsGroups:
    """Sessions of one hub that share a boundary and chain length settle
    their queued chunks in one boundary solve per round."""

    def test_one_solve_per_group_per_round(self, monkeypatch):
        """A hub with a three-member radiator group, a two-member
        exhaust-gas group (INOR and DNOR) and an EHTR session, plus a
        session outside any hub, fed staggered uneven chunks: each
        group solves once per round, in the feed that completes its
        barrier or else in run_epoch, and a session moved to another
        hub mid-stream no longer holds its old group's barrier."""
        porter = build_named_scenario(
            "porter-ii", duration_s=12.0, n_modules=9
        )
        exhaust = build_named_scenario(
            "exhaust-gas", duration_s=12.0, n_modules=9
        )
        small = build_named_scenario("porter-ii", duration_s=12.0, n_modules=4)
        # name: scenario, policy, first round fed
        specs = {
            "p0": (porter, "INOR", 0),
            "p1": (porter, "DNOR", 1),
            "p2": (porter, "INOR", 0),
            "e0": (exhaust, "INOR", 0),
            "e1": (exhaust, "DNOR", 2),
            "h0": (small, "EHTR", 1),
            "b0": (porter, "Baseline", 0),
        }
        scenarios = {
            name: dataclasses.replace(scenario, sensor_seed=950 + k)
            for k, (name, (scenario, _, _)) in enumerate(specs.items())
        }
        sessions = {
            name: StreamSession(scenarios[name], policy, name)
            for name, (_, policy, _) in specs.items()
        }
        hub, other_hub = SessionHub(), SessionHub()
        for name in ("p0", "p1", "p2", "e0", "e1", "h0"):
            hub.add(sessions[name])
        groups = {
            "porter": ["p0", "p1", "p2"],
            "exhaust": ["e0", "e1"],
            "small": ["h0"],
            "outside": ["b0"],
        }
        boundary_of = dict.fromkeys(groups, "Radiator")
        boundary_of["exhaust"] = "ExhaustGasBoundary"
        calls = _count_solves(monkeypatch)
        lo = dict.fromkeys(sessions, 0)
        completed_after_move = 0
        r = 0
        while any(lo[n] < scenarios[n].trace.n_samples for n in sessions):
            fed = set()
            for k, (name, session) in enumerate(sessions.items()):
                n_samples = scenarios[name].trace.n_samples
                if r < specs[name][2] or lo[name] >= n_samples:
                    continue
                hi = min(lo[name] + 1 + (k + r) % 3, n_samples)
                session.feed_trace(scenarios[name].trace, lo[name], hi)
                lo[name] = hi
                fed.add(name)
            complete = [g for g, m in groups.items() if fed.issuperset(m)]
            touched = [g for g, m in groups.items() if fed.intersection(m)]
            assert sum(calls.values()) == len(complete), (r, complete)
            hub.run_epoch()
            other_hub.run_epoch()
            assert calls == collections.Counter(
                boundary_of[g] for g in touched
            ), (r, touched)
            calls.clear()
            if "p2" in groups and "porter" in complete:
                completed_after_move += 1
            if r == 3:
                other_hub.add(hub.remove("p2"))
                groups["porter"].remove("p2")
                groups["p2"] = ["p2"]
                boundary_of["p2"] = "Radiator"
            r += 1
        assert completed_after_move > 0
        for name, (_, policy, _) in specs.items():
            _assert_logs_equal(
                sessions[name].records,
                offline_decision_log(scenarios[name], policy),
                name,
            )

    def test_refused_member_leaves_group_to_settle_in_run_epoch(
        self, monkeypatch
    ):
        """One member's chunk is refused mid-stream: the other two still
        settle (in run_epoch, their barrier incomplete), the refused
        member goes on with its clean chunk, and all three logs equal
        offline."""
        base = build_named_scenario("porter-ii", duration_s=12.0, n_modules=9)
        specs = [("INOR", 961), ("DNOR", 962), ("INOR", 963)]
        scenarios = [
            dataclasses.replace(base, sensor_seed=seed) for _, seed in specs
        ]
        hub = SessionHub()
        sessions = [
            hub.add(StreamSession(scenario, policy, f"{policy}-{seed}"))
            for scenario, (policy, seed) in zip(scenarios, specs)
        ]
        calls = _count_solves(monkeypatch)
        trace = base.trace
        chunk = 4
        for r, lo in enumerate(range(0, trace.n_samples, chunk)):
            hi = min(lo + chunk, trace.n_samples)
            for session in sessions[:2]:
                session.feed_trace(trace, lo, hi)
            if r == 2:
                bad = {
                    column: np.array(getattr(trace, column)[lo:hi])
                    for column in FEED_COLUMNS
                }
                bad["coolant_flow_kg_s"][1] = -0.05
                with pytest.raises(SimulationError, match="must be > 0"):
                    sessions[2].feed(**bad)
                assert calls["Radiator"] == 0
                hub.run_epoch()
                assert calls["Radiator"] == 1
                assert sessions[0].n_samples_seen == hi
                assert sessions[2].n_samples_seen == lo
            sessions[2].feed_trace(trace, lo, hi)
            hub.run_epoch()
            calls.clear()
        for session, scenario, (policy, _) in zip(sessions, scenarios, specs):
            _assert_logs_equal(
                session.records,
                offline_decision_log(scenario, policy),
                session.session_id,
            )

    def test_removed_session_takes_its_queued_chunk_along(self, monkeypatch):
        """A session removed while its chunk waits on the barrier keeps
        the chunk, releases the barrier, and carries the chunk into the
        hub it joins next."""
        base = build_named_scenario("porter-ii", duration_s=8.0, n_modules=9)
        scenarios = [
            dataclasses.replace(base, sensor_seed=seed) for seed in (971, 972)
        ]
        hub, other_hub = SessionHub(), SessionHub()
        a, b = (
            hub.add(StreamSession(scenario, "INOR", name))
            for scenario, name in zip(scenarios, "ab")
        )
        calls = _count_solves(monkeypatch)
        trace = base.trace
        half = trace.n_samples // 2
        a.feed_trace(trace, 0, half)
        assert hub.remove("a") is a
        assert calls["Radiator"] == 0 and a.n_samples_seen == half
        b.feed_trace(trace, 0, half)
        assert calls["Radiator"] == 1
        other_hub.add(a)
        a.feed_trace(trace, half, trace.n_samples)
        assert calls["Radiator"] == 2
        b.feed_trace(trace, half, trace.n_samples)
        assert calls["Radiator"] == 3
        hub.run_epoch()
        other_hub.run_epoch()
        for session, scenario in zip((a, b), scenarios):
            _assert_logs_equal(
                session.records,
                offline_decision_log(scenario, "INOR"),
                session.session_id,
            )

    def test_unhashable_boundaries_still_group(self, monkeypatch):
        """Equal boundaries that cannot be hashed (so the fingerprint
        memo cannot hold them) still share one physics group."""

        class UnhashableExhaust(ExhaustGasBoundary):
            __hash__ = None

        base = build_named_scenario(
            "exhaust-gas", duration_s=6.0, n_modules=9
        )
        scenarios = [
            dataclasses.replace(
                base,
                boundary=UnhashableExhaust.from_params_dict(
                    base.boundary.params_dict()
                ),
                sensor_seed=seed,
            )
            for seed in (981, 982)
        ]
        hub = SessionHub()
        sessions = [
            hub.add(StreamSession(scenario, "INOR", f"u{k}"))
            for k, scenario in enumerate(scenarios)
        ]
        calls = _count_solves(monkeypatch)
        for session in sessions:
            session.feed_trace(base.trace, 0, base.trace.n_samples)
        assert calls["ExhaustGasBoundary"] == 1
        hub.run_epoch()
        for session, scenario in zip(sessions, scenarios):
            _assert_logs_equal(
                session.records,
                offline_decision_log(scenario, "INOR"),
                session.session_id,
            )

    def test_session_sits_in_one_hub(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=2.0, n_modules=4
        )
        first, second = SessionHub(), SessionHub()
        session = first.add(StreamSession(scenario, "INOR", "one"))
        with pytest.raises(ConfigurationError, match="already in a hub"):
            second.add(session)
        assert not second.sessions
        second.add(first.remove("one"))
        assert second.sessions == (session,)


class TestSessionValidation:
    def test_feed_rejects_mismatched_columns(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=2.0, n_modules=4
        )
        session = StreamSession(scenario, "INOR", "bad")
        trace = scenario.trace
        with pytest.raises(SimulationError, match="match"):
            session.feed(
                trace.time_s[:3],
                trace.coolant_inlet_c[:4],
                trace.coolant_flow_kg_s[:4],
                trace.ambient_c[:4],
                trace.air_flow_kg_s[:4],
            )

    @pytest.mark.parametrize(
        "flaw,rule",
        [
            ("nan", "non-finite"),
            ("inf", "non-finite"),
            ("reversed_time", "strictly increase within"),
            ("stale_time", "not after the previous chunk"),
            ("short_column", "do not match"),
            ("zero_flow", "must be > 0"),
            ("negative_flow", "must be > 0"),
        ],
    )
    def test_hostile_chunk_leaves_session_untouched(self, flaw, rule):
        """A rejected chunk changes nothing: feeding the clean trace
        afterwards still gives the offline decision log, on the
        radiator and on the exhaust-gas boundary."""
        for name in ("porter-ii", "exhaust-gas"):
            scenario = build_named_scenario(
                name, duration_s=6.0, n_modules=9
            )
            trace = scenario.trace
            hub = SessionHub()
            session = hub.add(StreamSession(scenario, "INOR", "hostile"))
            half = trace.n_samples // 2
            session.feed_trace(trace, 0, half)
            hub.run_epoch()
            chunk = {
                column: np.array(getattr(trace, column)[half:half + 4])
                for column in FEED_COLUMNS
            }
            if flaw == "nan":
                chunk["coolant_inlet_c"][2] = np.nan
            elif flaw == "inf":
                chunk["air_flow_kg_s"][1] = np.inf
            elif flaw == "reversed_time":
                chunk["time_s"] = chunk["time_s"][::-1].copy()
            elif flaw == "stale_time":
                chunk["time_s"] = np.array(trace.time_s[half - 4:half])
            elif flaw == "zero_flow":
                chunk["air_flow_kg_s"][1] = 0.0
                chunk["coolant_flow_sensed_kg_s"][3] = 0.0
            elif flaw == "negative_flow":
                chunk["coolant_flow_kg_s"][:] = -0.05
            else:
                chunk["coolant_flow_kg_s"] = chunk["coolant_flow_kg_s"][:3]
            records = session.records
            with pytest.raises(SimulationError, match=rule) as excinfo:
                session.feed(**chunk)
            assert "hostile" in str(excinfo.value)
            assert session.n_samples_seen == half
            assert session.records == records and not session.pending
            session.feed_trace(trace, half, trace.n_samples)
            hub.run_epoch()
            _assert_logs_equal(
                session.records,
                offline_decision_log(scenario, "INOR"),
                f"{name} {flaw}",
            )

    @pytest.mark.parametrize("policy", ("INOR", "DNOR"))
    def test_resolve_wrong_count_leaves_session_untouched(self, policy):
        """A decision count of zero or more than the queue is refused
        before any epoch is popped or committed."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=8.0, n_modules=9
        )
        hub = SessionHub()
        session = hub.add(StreamSession(scenario, policy, "count"))
        session.feed_trace(scenario.trace, 0, scenario.trace.n_samples)
        pending = session.pending
        assert pending
        for count in (0, len(pending) + 1):
            with pytest.raises(SimulationError, match="pending epochs"):
                session.resolve([object()] * count)
            assert session.pending == pending
            assert session.records == ()
        if policy == "DNOR":
            assert session.policy.decisions == ()
        hub.drain("count")
        _assert_logs_equal(
            session.records,
            offline_decision_log(scenario, policy),
            f"{policy} after refused resolve",
        )

    def test_unknown_policy_rejected(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=2.0, n_modules=4
        )
        with pytest.raises(ConfigurationError, match="unknown policy"):
            StreamSession(scenario, "FOO", "x")

    def test_column_codec_round_trip(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=64)
        assert np.array_equal(decode_column(encode_column(arr)), arr)


class TestAsyncioServer:
    def _client_script(self, scenario_name, session_id, seed, chunk):
        """Build (open_request, feed_requests, close_request, trace)."""
        overrides = {
            "duration_s": 8.0,
            "n_modules": 9,
            "sensor_seed": seed,
        }
        scenario = dataclasses.replace(
            build_named_scenario(
                scenario_name, duration_s=8.0, n_modules=9
            ),
            sensor_seed=seed,
        )
        trace = scenario.trace
        feeds = []
        lo = 0
        while lo < trace.n_samples:
            hi = min(lo + chunk, trace.n_samples)
            feeds.append(
                {
                    "op": "feed",
                    "session": session_id,
                    "cols": {
                        name: encode_column(getattr(trace, name)[lo:hi])
                        for name in FEED_COLUMNS
                    },
                }
            )
            lo = hi
        open_request = {
            "op": "open",
            "session": session_id,
            "scenario": scenario_name,
            "policy": "INOR",
            "overrides": overrides,
        }
        return open_request, feeds, {"op": "close", "session": session_id}, scenario

    async def _drive(self, port, open_request, feeds, close_request):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        records = []

        async def send(payload):
            writer.write(
                (json.dumps(payload) + "\n").encode("ascii")
            )
            await writer.drain()

        async def pump():
            while True:
                line = await reader.readline()
                if not line:
                    break
                event = json.loads(line)
                if event["event"] == "decision":
                    records.append(event["record"])
                elif event["event"] == "closed":
                    break
                elif event["event"] == "error":
                    raise AssertionError(event["message"])

        pump_task = asyncio.create_task(pump())
        await send(open_request)
        for feed in feeds:
            await send(feed)
            await asyncio.sleep(0)
        await send(close_request)
        await pump_task
        writer.close()
        return records

    def test_two_concurrent_clients_match_offline(self):
        async def main():
            server = StreamServer()
            await server.start()
            try:
                scripts = [
                    self._client_script("porter-ii", f"veh-{k}", 500 + k, 16)
                    for k in range(2)
                ]
                results = await asyncio.gather(
                    *(
                        self._drive(server.port, o, f, c)
                        for o, f, c, _ in scripts
                    )
                )
            finally:
                await server.close()
            return scripts, results, server.hub.stats

        scripts, results, stats = asyncio.run(main())
        for (_, _, _, scenario), records in zip(scripts, results):
            offline = offline_decision_log(scenario, "INOR")
            assert [
                json.loads(r.to_json_line()) for r in offline
            ] == records
        assert stats.rows_decided == sum(len(r) for r in results)

    def test_overlong_line_gets_an_error_and_others_go_on(self):
        """A request line over the stream limit gets a typed error event
        naming the limit and a clean close; a concurrent client's
        session still decides exactly like the offline reference."""
        assert LINE_LIMIT_BYTES < 70 * 1024

        async def overlong(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "stats", "pad": "' + b"x" * (70 * 1024))
            writer.write(b'"}\n')
            await writer.drain()
            event = json.loads(await reader.readline())
            tail = await reader.read()  # the server hangs up
            writer.close()
            return event, tail

        async def main():
            server = StreamServer()
            await server.start()
            try:
                script = self._client_script("porter-ii", "veh-ok", 505, 16)
                event, tail = await overlong(server.port)
                records = await self._drive(server.port, *script[:3])
            finally:
                await server.close()
            return event, tail, script[3], records

        event, tail, scenario, records = asyncio.run(main())
        assert event["event"] == "error"
        assert str(LINE_LIMIT_BYTES) in event["message"]
        assert tail == b""
        offline = offline_decision_log(scenario, "INOR")
        assert [json.loads(r.to_json_line()) for r in offline] == records

    def test_server_reports_errors_without_dying(self):
        async def main():
            server = StreamServer()
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b'{"op": "feed", "session": "nope"}\n')
                await writer.drain()
                error = json.loads(await reader.readline())
                writer.write(
                    (
                        json.dumps(
                            {
                                "op": "open",
                                "session": "ok",
                                "scenario": "porter-ii",
                                "overrides": {
                                    "duration_s": 2.0,
                                    "n_modules": 4,
                                },
                            }
                        )
                        + "\n"
                    ).encode("ascii")
                )
                await writer.drain()
                opened = json.loads(await reader.readline())
                writer.close()
                return error, opened
            finally:
                await server.close()

        error, opened = asyncio.run(main())
        assert error["event"] == "error"
        assert "unknown session" in error["message"]
        assert opened == {
            "event": "opened",
            "session": "ok",
            "micro_batched": True,
        }
