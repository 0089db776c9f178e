"""Streaming decision service — latency, stacking and refit gates.

Layer 6 earns its keep on three measurable claims, each gated here:

1. **Micro-batched epochs beat sequential decisions.**  K concurrent
   sessions resolved through the hub's single stacked INOR pass
   (``gridstack.decide_epochs``) per epoch must out-run the same rows
   decided one scalar-path ``inor`` call at a time — the whole point of
   stacking the ``(sessions, N)`` EMF matrix.
2. **Per-decision latency is interactive.**  The asyncio front-end's
   p50 per-decision wall time (feed → decision event, measured over a
   real TCP round trip) must stay well under a control period.
3. **Incremental refits are measurably cheaper than full refits.**
   ``MLRPredictor.partial_fit`` sliding a long window by a few rows
   must beat a fresh ``fit`` over the same window (the windowed
   normal-equation rank update is O(edge), not O(window)).

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_STREAM_SESSIONS``   — hub fleet size (default 64).
* ``REPRO_BENCH_STREAM_DURATION_S`` — trace length (default 8).
* ``REPRO_BENCH_STREAM_MODULES``    — chain length N (default 16).
"""

import dataclasses
import json
import os
import time

import numpy as np
from conftest import emit, write_artifact

from repro.core.inor import inor
from repro.prediction.mlr import MLRPredictor
from repro.serve import SessionHub, StreamSession
from repro.serve.server import run_demo
from repro.sim.scenario import build_named_scenario

SESSIONS = int(os.environ.get("REPRO_BENCH_STREAM_SESSIONS", "64"))
DURATION_S = float(os.environ.get("REPRO_BENCH_STREAM_DURATION_S", "8"))
MODULES = int(os.environ.get("REPRO_BENCH_STREAM_MODULES", "16"))

#: Stacked hub epochs must beat per-row scalar-path decisions by at
#: least this factor at the default 64-session fleet.
GATE_STACKED_SPEEDUP = 2.0

#: p50 per-decision latency through the real asyncio server, seconds.
#: The control period is 0.5 s; a decision must cost a small fraction.
GATE_P50_LATENCY_S = 0.05

#: partial_fit sliding a 960-row window by 4 rows vs a fresh fit.
GATE_REFIT_SPEEDUP = 2.0


def _fleet(scenario):
    hub = SessionHub()
    sessions = [
        hub.add(
            StreamSession(
                dataclasses.replace(scenario, sensor_seed=4000 + k),
                "INOR",
                f"bench-{k:03d}",
            )
        )
        for k in range(SESSIONS)
    ]
    return hub, sessions


def test_stacked_epochs_beat_sequential(tmp_path):
    scenario = build_named_scenario(
        "porter-ii", duration_s=DURATION_S, n_modules=MODULES
    )
    trace = scenario.trace
    chunk = 8

    # Stacked: the service path — feed all sessions, one epoch per chunk.
    hub, sessions = _fleet(scenario)
    t0 = time.perf_counter()
    lo = 0
    while lo < trace.n_samples:
        hi = min(lo + chunk, trace.n_samples)
        for session in sessions:
            session.feed_trace(trace, lo, hi)
        hub.run_epoch()
        lo = hi
    t_stacked = time.perf_counter() - t0
    rows = hub.stats.rows_decided
    assert hub.stats.max_sessions_per_pass == SESSIONS

    # Sequential reference: the same decision rows, one inor() each.
    # (Replays each session's sensed inputs through the scalar path —
    # what K independent PeriodicPolicy loops would cost.)
    charger = scenario.make_charger(with_battery=False)
    per_row_inputs = []
    for k in range(SESSIONS):
        sensed = dataclasses.replace(scenario, sensor_seed=4000 + k)
        session = StreamSession(sensed, "INOR", f"seq-{k:03d}")
        session.feed_trace(trace, 0, trace.n_samples)
        # Each queued epoch holds the (emf, resistance) its policy's
        # observe() returned.
        per_row_inputs.extend(pending.inputs for pending in session.pending)
    t0 = time.perf_counter()
    for emf_row, resistance in per_row_inputs:
        inor(emf_row, resistance, charger=charger)
    t_sequential = time.perf_counter() - t0

    speedup = t_sequential / t_stacked
    lines = [
        f"sessions:            {SESSIONS}",
        f"decision rows:       {rows}",
        f"stacked passes:      {hub.stats.stacked_passes}",
        f"stacked wall:        {t_stacked * 1e3:9.1f} ms",
        f"sequential wall:     {t_sequential * 1e3:9.1f} ms",
        f"speedup:             {speedup:9.2f}x  (gate >= {GATE_STACKED_SPEEDUP}x)",
    ]
    emit("stream_stacking.txt", "\n".join(lines))
    write_artifact(
        "stream_stacking.json",
        json.dumps(
            {
                "sessions": SESSIONS,
                "rows": rows,
                "stacked_passes": hub.stats.stacked_passes,
                "stacked_s": t_stacked,
                "sequential_s": t_sequential,
                "speedup": speedup,
            },
            indent=2,
        ),
    )
    assert len(per_row_inputs) == rows
    assert speedup >= GATE_STACKED_SPEEDUP, (
        f"stacked epochs only {speedup:.2f}x over sequential "
        f"(gate {GATE_STACKED_SPEEDUP}x)"
    )


def test_serve_p50_decision_latency(tmp_path):
    """Per-decision latency through the real asyncio TCP front-end."""
    sessions = 4
    t0 = time.perf_counter()
    stats = run_demo(
        scenario_name="porter-ii",
        sessions=sessions,
        duration_s=DURATION_S,
        n_modules=MODULES,
        chunk=4,
        out_dir=str(tmp_path),
    )
    wall = time.perf_counter() - t0
    decisions = stats["rows_decided"]
    per_decision = wall / max(decisions, 1)
    lines = [
        f"sessions:       {sessions}",
        f"decisions:      {decisions}",
        f"total wall:     {wall * 1e3:9.1f} ms",
        f"per decision:   {per_decision * 1e3:9.3f} ms "
        f"(gate p50 <= {GATE_P50_LATENCY_S * 1e3:.0f} ms)",
        f"stacked passes: {stats['stacked_passes']}",
    ]
    emit("stream_latency.txt", "\n".join(lines))
    write_artifact(
        "stream_latency.json",
        json.dumps(
            {
                "sessions": sessions,
                "decisions": decisions,
                "wall_s": wall,
                "per_decision_s": per_decision,
                "stacked_passes": stats["stacked_passes"],
            },
            indent=2,
        ),
    )
    # Mean-over-run upper-bounds p50 here (the distribution has no
    # heavy head: every epoch does identical work).
    assert per_decision <= GATE_P50_LATENCY_S, (
        f"per-decision latency {per_decision * 1e3:.1f} ms over gate "
        f"{GATE_P50_LATENCY_S * 1e3:.0f} ms"
    )


def test_incremental_refit_beats_full(tmp_path):
    """partial_fit's O(edge) update vs a fresh O(window) fit."""
    rng = np.random.default_rng(42)
    window = 960
    chunk_rows = 4
    cols = MODULES
    repeats = 50
    history = rng.normal(60.0, 8.0, size=(window + repeats * chunk_rows, cols))

    streamed = MLRPredictor(lags=4, train_window=window)
    streamed.partial_fit(history[:window])
    t0 = time.perf_counter()
    for r in range(repeats):
        lo = window + r * chunk_rows
        streamed.partial_fit(history[lo : lo + chunk_rows])
    t_incremental = (time.perf_counter() - t0) / repeats

    t0 = time.perf_counter()
    for r in range(repeats):
        hi = window + (r + 1) * chunk_rows
        full = MLRPredictor(lags=4, train_window=window)
        full.fit(history[:hi])
    t_full = (time.perf_counter() - t0) / repeats

    speedup = t_full / t_incremental
    lines = [
        f"window rows:       {window} x {cols} modules",
        f"chunk rows:        {chunk_rows}",
        f"full refit:        {t_full * 1e6:9.1f} us",
        f"incremental:       {t_incremental * 1e6:9.1f} us",
        f"speedup:           {speedup:9.2f}x  (gate >= {GATE_REFIT_SPEEDUP}x)",
    ]
    emit("stream_refit.txt", "\n".join(lines))
    write_artifact(
        "stream_refit.json",
        json.dumps(
            {
                "window": window,
                "chunk_rows": chunk_rows,
                "modules": cols,
                "full_s": t_full,
                "incremental_s": t_incremental,
                "speedup": speedup,
            },
            indent=2,
        ),
    )
    assert speedup >= GATE_REFIT_SPEEDUP, (
        f"incremental refit only {speedup:.2f}x over full "
        f"(gate {GATE_REFIT_SPEEDUP}x)"
    )
