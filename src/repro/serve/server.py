"""Asyncio front-end for the streaming decision service.

``repro serve`` exposes layer 6 over a line-delimited JSON TCP
protocol.  Each connected client multiplexes any number of vehicle
sessions; telemetry chunks from *all* connections land in one
:class:`~repro.serve.hub.SessionHub`, and a coalescing epoch task
resolves every pending decision across every session in one stacked
kernel pass — K concurrent vehicles cost ~1 INOR evaluation per epoch.

Protocol (one JSON object per line, requests → events):

* ``{"op": "open", "session": id, "scenario": name, "policy": name,
  "overrides": {...}}`` → ``{"event": "opened", ...}``.  Overrides may
  set ``duration_s``, ``n_modules`` and ``sensor_seed`` (distinct seeds
  give each vehicle its own sensor-noise stream).
* ``{"op": "feed", "session": id, "cols": {col: base64-f8, ...}}`` —
  telemetry columns as raw little-endian float64, loss-free.  Decisions
  arrive asynchronously as ``{"event": "decision", "session": id,
  "record": {...}}`` events.
* ``{"op": "close", "session": id}`` → drains the session's pending
  rows, emits the final decision events, then ``{"event": "closed",
  "session": id, "n_decisions": n}``.

Errors come back as ``{"event": "error", "message": ...}`` without
killing the connection; only a request line longer than
:data:`LINE_LIMIT_BYTES` also closes its connection.  The module also
carries the self-contained demo used by the CLI and CI smoke: K
concurrent asyncio clients streaming a registry trace in chunks,
decision logs written as JSON lines and byte-diffed against the
offline batch reference.
"""

from __future__ import annotations

import asyncio
import base64
import json
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, TegkitError
from repro.serve.hub import SessionHub
from repro.serve.session import (
    DecisionRecord,
    StreamSession,
    offline_decision_log,
    write_decision_log,
)
from repro.sim.scenario import build_named_scenario

__all__ = [
    "StreamServer",
    "encode_column",
    "decode_column",
    "run_demo",
    "run_offline_reference",
    "serve_forever",
]

#: Longest request line (asyncio's default); a longer one gets an
#: error event and its connection is closed.
LINE_LIMIT_BYTES = 2**16

FEED_COLUMNS = (
    "time_s",
    "coolant_inlet_c",
    "coolant_flow_kg_s",
    "ambient_c",
    "air_flow_kg_s",
    "coolant_inlet_sensed_c",
    "coolant_flow_sensed_kg_s",
)


def encode_column(arr: np.ndarray) -> str:
    """Base64 of the raw little-endian float64 bytes — loss-free."""
    data = np.ascontiguousarray(arr, dtype="<f8")
    return base64.b64encode(data.tobytes()).decode("ascii")


def decode_column(text: str) -> np.ndarray:
    """Inverse of :func:`encode_column` (a fresh writable array)."""
    raw = base64.b64decode(text.encode("ascii"))
    return np.frombuffer(raw, dtype="<f8").astype(float)


def _build_session_scenario(scenario: str, overrides: Dict[str, object]):
    """Registry scenario with the per-session knobs applied."""
    allowed = {"duration_s", "n_modules", "sensor_seed"}
    unknown = set(overrides) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown scenario overrides {sorted(unknown)!r} "
            f"(allowed: {sorted(allowed)!r})"
        )
    kwargs = {}
    if "duration_s" in overrides:
        kwargs["duration_s"] = float(overrides["duration_s"])
    if "n_modules" in overrides:
        kwargs["n_modules"] = int(overrides["n_modules"])
    built = build_named_scenario(str(scenario), **kwargs)
    if "sensor_seed" in overrides:
        import dataclasses

        built = dataclasses.replace(
            built, sensor_seed=int(overrides["sensor_seed"])
        )
    return built


class StreamServer:
    """TCP JSON-lines server multiplexing vehicle sessions over one hub."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = int(port)
        self._hub = SessionHub()
        self._writers: Dict[str, asyncio.StreamWriter] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._epoch_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._conn_writers: set = set()

    # ------------------------------------------------------------------
    @property
    def hub(self) -> SessionHub:
        """The shared micro-batching hub (stats live here)."""
        return self._hub

    @property
    def port(self) -> int:
        """Bound port (useful when constructed with port 0)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port,
            limit=LINE_LIMIT_BYTES,
        )

    async def close(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._epoch_task is not None:
            try:
                await self._epoch_task
            except asyncio.CancelledError:
                pass
            self._epoch_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Nudge lingering clients off by closing their transports: each
        # handler's readline() then returns EOF and the task exits
        # normally.  Cancelling instead would leave 3.11's stream
        # done-callback retrieving CancelledError at loop teardown.
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        self._conn_tasks.clear()
        self._conn_writers.clear()

    # ------------------------------------------------------------------
    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: Dict) -> None:
        writer.write(
            (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")
        )
        await writer.drain()

    async def _send_decisions(
        self, session_id: str, records: List[DecisionRecord]
    ) -> None:
        writer = self._writers.get(session_id)
        if writer is None:
            return
        for record in records:
            await self._send(
                writer,
                {
                    "event": "decision",
                    "session": session_id,
                    "record": json.loads(record.to_json_line()),
                },
            )

    def _schedule_epoch(self) -> None:
        """Coalesce one stacked epoch per ready-queue drain.

        The task first yields (``sleep(0)``), letting every connection
        whose feed is already queued on the loop deposit its pending
        rows — so concurrent vehicles genuinely share the stacked pass.
        """
        if self._epoch_task is not None and not self._epoch_task.done():
            return
        self._epoch_task = asyncio.get_running_loop().create_task(
            self._run_epoch()
        )

    async def _run_epoch(self) -> None:
        await asyncio.sleep(0)
        emitted = self._hub.run_epoch()
        for session_id, records in emitted.items():
            await self._send_decisions(session_id, records)

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        owned: List[str] = []
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # over the limit: report and hang up
                    message = f"request line over {LINE_LIMIT_BYTES} bytes"
                    await self._send(
                        writer, {"event": "error", "message": message}
                    )
                    break
                if not line:
                    break
                try:
                    await self._handle_request(
                        json.loads(line.decode("ascii")), writer, owned
                    )
                except TegkitError as exc:
                    await self._send(
                        writer, {"event": "error", "message": str(exc)}
                    )
                except (ValueError, KeyError, TypeError) as exc:
                    await self._send(
                        writer,
                        {"event": "error", "message": f"bad request: {exc}"},
                    )
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-exchange; clean up below
        finally:
            self._conn_writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            for session_id in owned:
                self._writers.pop(session_id, None)
                try:
                    self._hub.remove(session_id)
                except TegkitError:
                    pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self,
        request: Dict,
        writer: asyncio.StreamWriter,
        owned: List[str],
    ) -> None:
        op = request.get("op")
        if op == "open":
            session_id = str(request["session"])
            session = StreamSession(
                _build_session_scenario(
                    request.get("scenario", "porter-ii"),
                    dict(request.get("overrides") or {}),
                ),
                policy=str(request.get("policy", "INOR")),
                session_id=session_id,
                dnor_refit=str(request.get("dnor_refit", "full")),
            )
            self._hub.add(session)
            self._writers[session_id] = writer
            owned.append(session_id)
            await self._send(
                writer,
                {
                    "event": "opened",
                    "session": session_id,
                    "micro_batched": session.micro_batched,
                },
            )
        elif op == "feed":
            session = self._hub.get(str(request["session"]))
            cols = request["cols"]
            missing = [c for c in FEED_COLUMNS[:5] if c not in cols]
            if missing:
                raise ConfigurationError(
                    f"feed missing required columns {missing!r}"
                )
            decoded = {
                name: decode_column(cols[name])
                for name in FEED_COLUMNS
                if name in cols
            }
            inline_records = session.feed(
                decoded["time_s"],
                decoded["coolant_inlet_c"],
                decoded["coolant_flow_kg_s"],
                decoded["ambient_c"],
                decoded["air_flow_kg_s"],
                decoded.get("coolant_inlet_sensed_c"),
                decoded.get("coolant_flow_sensed_kg_s"),
            )
            await self._send_decisions(session.session_id, inline_records)
            # Reading ``pending`` here would settle the session's physics
            # group before the other sessions' feeds join it.
            if session.micro_batched:
                self._schedule_epoch()
        elif op == "close":
            session_id = str(request["session"])
            drained = self._hub.drain(session_id)
            await self._send_decisions(session_id, drained)
            session = self._hub.remove(session_id)
            self._writers.pop(session_id, None)
            if session_id in owned:
                owned.remove(session_id)
            await self._send(
                writer,
                {
                    "event": "closed",
                    "session": session_id,
                    "n_decisions": len(session.records),
                },
            )
        elif op == "stats":
            await self._send(
                writer,
                {"event": "stats", "hub": self._hub.stats.as_dict()},
            )
        else:
            raise ConfigurationError(f"unknown op {op!r}")


# ----------------------------------------------------------------------
# Demo driver + offline reference (CLI and CI smoke)


async def _drive_client(
    host: str,
    port: int,
    session_id: str,
    scenario_name: str,
    overrides: Dict[str, object],
    policy: str,
    chunk: int,
    out_path: Path,
) -> int:
    """One vehicle: open, stream the registry trace in chunks, close."""
    reader, writer = await asyncio.open_connection(host, port)
    records: List[Dict] = []
    done = asyncio.Event()

    async def read_events() -> None:
        while True:
            line = await reader.readline()
            if not line:
                break
            event = json.loads(line.decode("ascii"))
            kind = event.get("event")
            if kind == "decision":
                records.append(event["record"])
            elif kind == "closed":
                done.set()
                break
            elif kind == "error":
                raise TegkitError(f"server error: {event.get('message')}")

    reader_task = asyncio.create_task(read_events())

    async def send(payload: Dict) -> None:
        writer.write(
            (json.dumps(payload, separators=(",", ":")) + "\n").encode("ascii")
        )
        await writer.drain()

    await send(
        {
            "op": "open",
            "session": session_id,
            "scenario": scenario_name,
            "policy": policy,
            "overrides": overrides,
        }
    )
    trace = _build_session_scenario(scenario_name, overrides).trace
    n = trace.n_samples
    lo = 0
    while lo < n:
        hi = min(lo + chunk, n)
        cols = {
            name: encode_column(getattr(trace, name)[lo:hi])
            for name in FEED_COLUMNS
        }
        await send({"op": "feed", "session": session_id, "cols": cols})
        # Yield so feeds from the other demo vehicles interleave and the
        # server's coalescing epoch actually stacks across sessions.
        await asyncio.sleep(0)
        lo = hi
    await send({"op": "close", "session": session_id})
    await done.wait()
    await reader_task
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    with open(out_path, "w", encoding="ascii") as handle:
        for record in records:
            handle.write(
                json.dumps(record, separators=(",", ":"), allow_nan=False)
                + "\n"
            )
    return len(records)


def _session_overrides(
    index: int,
    duration_s: float,
    n_modules: int,
    sensor_seed_base: int,
) -> Dict[str, object]:
    return {
        "duration_s": duration_s,
        "n_modules": n_modules,
        "sensor_seed": sensor_seed_base + index,
    }


async def _run_demo_async(
    scenario_name: str,
    sessions: int,
    duration_s: float,
    n_modules: int,
    chunk: int,
    policy: str,
    out_dir: Path,
    sensor_seed_base: int,
) -> Dict[str, object]:
    server = StreamServer()
    await server.start()
    try:
        totals = await asyncio.gather(
            *(
                _drive_client(
                    "127.0.0.1",
                    server.port,
                    f"{scenario_name}-{k:02d}",
                    scenario_name,
                    _session_overrides(
                        k, duration_s, n_modules, sensor_seed_base
                    ),
                    policy,
                    chunk,
                    out_dir / f"{scenario_name}-{k:02d}.jsonl",
                )
                for k in range(sessions)
            )
        )
    finally:
        await server.close()
    stats = server.hub.stats.as_dict()
    stats["sessions"] = sessions
    stats["decisions_per_session"] = list(totals)
    return stats


def run_demo(
    scenario_name: str = "porter-ii",
    sessions: int = 4,
    duration_s: float = 30.0,
    n_modules: int = 16,
    chunk: int = 16,
    policy: str = "INOR",
    out_dir: str = ".",
    sensor_seed_base: int = 777,
) -> Dict[str, object]:
    """Run the self-contained concurrent-session demo; return hub stats.

    Writes one ``<scenario>-<k>.jsonl`` decision log per session into
    ``out_dir``, byte-comparable with :func:`run_offline_reference`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return asyncio.run(
        _run_demo_async(
            scenario_name,
            int(sessions),
            float(duration_s),
            int(n_modules),
            int(chunk),
            policy,
            out,
            int(sensor_seed_base),
        )
    )


def run_offline_reference(
    scenario_name: str = "porter-ii",
    sessions: int = 4,
    duration_s: float = 30.0,
    n_modules: int = 16,
    policy: str = "INOR",
    out_dir: str = ".",
    sensor_seed_base: int = 777,
) -> Dict[str, int]:
    """Offline batch reference logs for the same demo sessions.

    Produces files with the same names and (by the layer-6 parity
    guarantee) the same bytes as :func:`run_demo`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    counts: Dict[str, int] = {}
    for k in range(int(sessions)):
        scenario = _build_session_scenario(
            scenario_name,
            _session_overrides(
                k, float(duration_s), int(n_modules), int(sensor_seed_base)
            ),
        )
        records = offline_decision_log(scenario, policy)
        name = f"{scenario_name}-{k:02d}"
        write_decision_log(records, out / f"{name}.jsonl")
        counts[name] = len(records)
    return counts


def serve_forever(host: str = "127.0.0.1", port: int = 7787) -> None:
    """Blocking entry point for ``repro serve --listen``."""

    async def _main() -> None:
        server = StreamServer(host, port)
        await server.start()
        print(f"repro serve listening on {host}:{server.port}")
        assert server._server is not None
        async with server._server:
            await server._server.serve_forever()

    asyncio.run(_main())
