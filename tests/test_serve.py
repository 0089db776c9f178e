"""Streaming decision service (repro.serve).

The acceptance criterion of the service layer: decisions made *online*
— chunked telemetry, micro-batched epochs across concurrent sessions —
are **bit-identical** to the offline batch engine run over the complete
trace.  Pinned per registry scenario and chunk size for INOR (the
stacked-kernel path) and for DNOR under both refit modes (epoch
micro-batching through ``dnor_stack`` rounds), plus the 64-session
single-stacked-pass scaling pin, the multi-session DNOR round pin and
the asyncio TCP front-end end to end.
"""

import asyncio
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
from repro.serve.server import FEED_COLUMNS, decode_column, encode_column
from repro.sim.scenario import build_named_scenario, default_registry


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
        """Registry DNOR (batched kernel + nominal compute) queues
        epochs for the hub instead of planning inline."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=6.0, n_modules=9
        )
        session = StreamSession(scenario, "DNOR", "mb")
        assert session.micro_batched
        session.feed_trace(scenario.trace, 0, scenario.trace.n_samples)
        assert session.pending_epochs
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
        assert not session.pending_epochs
        assert session.records

    def test_scalar_kernel_inor_runs_inline(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=10.0, n_modules=9
        )
        scalar = dataclasses.replace(scenario, inor_kernel="scalar")
        session = StreamSession(scalar, "INOR", "inline")
        assert not session.micro_batched
        trace = scalar.trace
        session.feed_trace(trace, 0, trace.n_samples)
        _assert_logs_equal(
            session.records,
            offline_decision_log(scalar, "INOR"),
            "scalar inline",
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
        assert session.pending_epochs
        hub.drain("dtail")
        assert not session.pending_epochs
        _assert_logs_equal(
            session.records,
            offline_decision_log(scenario, "DNOR"),
            "dnor drain",
        )

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
        ],
    )
    def test_hostile_chunk_leaves_session_untouched(self, flaw, rule):
        """A rejected chunk changes nothing: feeding the clean trace
        afterwards still gives the offline decision log."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=6.0, n_modules=9
        )
        trace = scenario.trace
        hub = SessionHub()
        session = hub.add(StreamSession(scenario, "INOR", "hostile"))
        half = trace.n_samples // 2
        session.feed_trace(trace, 0, half)
        hub.run_epoch()
        chunk = {
            name: np.array(getattr(trace, name)[half:half + 4])
            for name in FEED_COLUMNS
        }
        if flaw == "nan":
            chunk["coolant_inlet_c"][2] = np.nan
        elif flaw == "inf":
            chunk["air_flow_kg_s"][1] = np.inf
        elif flaw == "reversed_time":
            chunk["time_s"] = chunk["time_s"][::-1].copy()
        elif flaw == "stale_time":
            chunk["time_s"] = np.array(trace.time_s[half - 4:half])
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
            session.records, offline_decision_log(scenario, "INOR"), flaw
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
