"""Chunked physics stream parity (repro.sim.physics.TracePhysicsStream).

The load-bearing guarantee of the streaming service: feeding a trace
through :class:`TracePhysicsStream` in chunks — any chunk size —
produces per-chunk rows and a snapshot that are **bit-identical** to
the one-shot :meth:`TracePhysics.compute` over the whole trace.  Pinned
for every registry scenario, noisy and noiseless, at chunk sizes
1 / 7 / full-trace.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.physics import TracePhysics, TracePhysicsStream
from repro.sim.scenario import build_named_scenario, default_registry

CHUNK_SIZES = (1, 7, None)  # None = the whole trace in one extend


def _noiseless_copy(trace):
    """The same trace with perfect sensors (sensed columns = true)."""
    return dataclasses.replace(
        trace,
        coolant_inlet_sensed_c=trace.coolant_inlet_c.copy(),
        coolant_flow_sensed_kg_s=trace.coolant_flow_kg_s.copy(),
    )


def _stream_whole_trace(scenario, trace, chunk):
    stream = TracePhysicsStream(
        scenario.boundary, scenario.module, scenario.n_modules
    )
    n = trace.n_samples
    size = n if chunk is None else chunk
    states = []
    lo = 0
    while lo < n:
        hi = min(lo + size, n)
        states.append(stream.extend_trace(trace, lo, hi))
        lo = hi
    return stream, states


def _assert_rows_bitwise(chunked, whole, lo, hi, label):
    assert chunked.shape == whole[lo:hi].shape, label
    assert np.array_equal(chunked, whole[lo:hi]), label


@pytest.mark.parametrize("name", default_registry().names())
@pytest.mark.parametrize("chunk", CHUNK_SIZES)
@pytest.mark.parametrize("noiseless", (False, True))
def test_stream_bit_identical_to_compute(name, chunk, noiseless):
    scenario = build_named_scenario(name, duration_s=12.0, n_modules=9)
    trace = (
        _noiseless_copy(scenario.trace) if noiseless else scenario.trace
    )
    reference = TracePhysics.compute(
        trace, scenario.boundary, scenario.module, scenario.n_modules
    )
    stream, states = _stream_whole_trace(scenario, trace, chunk)

    # Per-chunk rows match the one-shot rows, bitwise.
    for state in states:
        lo = state.start_index
        hi = lo + state.n_samples
        label = f"{name} chunk={chunk} [{lo}:{hi}]"
        _assert_rows_bitwise(
            state.sensed_temps_c, reference.sensed_temps_c, lo, hi, label
        )
        _assert_rows_bitwise(
            state.emf_true, reference.emf_true, lo, hi, label
        )
        _assert_rows_bitwise(
            state.ideal_power_w, reference.ideal_power_w, lo, hi, label
        )
        _assert_rows_bitwise(
            state.true_solution.delta_t_k,
            reference.true_solution.delta_t_k,
            lo,
            hi,
            label,
        )
        assert state.noiseless == noiseless

    # The snapshot reassembles the full TracePhysics, bitwise.
    snapshot = stream.snapshot(trace)
    assert snapshot.noiseless == noiseless
    for attr in ("sensed_temps_c", "emf_true", "ideal_power_w"):
        assert np.array_equal(
            getattr(snapshot, attr), getattr(reference, attr)
        ), attr
    # Every field the boundary's solution type carries — the flat
    # to_arrays() view covers subclass extras (e.g. the radiator's
    # exchanger columns and decay_per_m) without hard-coding them.
    assert type(snapshot.true_solution) is type(reference.true_solution)
    ref_arrays = reference.true_solution.to_arrays()
    snap_arrays = snapshot.true_solution.to_arrays()
    assert snap_arrays.keys() == ref_arrays.keys()
    for key, ref_value in ref_arrays.items():
        assert np.array_equal(snap_arrays[key], ref_value), key


def test_noiseless_chunks_alias_true_solution():
    scenario = build_named_scenario("porter-ii", duration_s=8.0, n_modules=4)
    trace = _noiseless_copy(scenario.trace)
    stream, states = _stream_whole_trace(scenario, trace, 5)
    for state in states:
        assert state.sensed_solution is state.true_solution
    assert stream.snapshot(trace).noiseless


def test_mixed_noise_chunks_snapshot_is_noisy():
    """One noisy chunk anywhere makes the whole snapshot noisy."""
    scenario = build_named_scenario("porter-ii", duration_s=8.0, n_modules=4)
    trace = scenario.trace
    clean = _noiseless_copy(trace)
    stream = TracePhysicsStream(
        scenario.boundary, scenario.module, scenario.n_modules
    )
    mid = trace.n_samples // 2
    first = stream.extend_trace(clean, 0, mid)
    second = stream.extend_trace(trace, mid, trace.n_samples)
    assert first.noiseless and not second.noiseless
    assert not stream.snapshot(trace).noiseless


def test_snapshot_validates_sample_count():
    scenario = build_named_scenario("porter-ii", duration_s=8.0, n_modules=4)
    trace = scenario.trace
    stream = TracePhysicsStream(
        scenario.boundary, scenario.module, scenario.n_modules
    )
    stream.extend_trace(trace, 0, trace.n_samples - 3)
    with pytest.raises(SimulationError, match="samples"):
        stream.snapshot(trace)


def test_extend_rejects_bad_columns():
    scenario = build_named_scenario("porter-ii", duration_s=8.0, n_modules=4)
    stream = TracePhysicsStream(
        scenario.boundary, scenario.module, scenario.n_modules
    )
    with pytest.raises(SimulationError):
        stream.extend(
            np.empty(0), np.empty(0), np.empty(0), np.empty(0)
        )
    with pytest.raises(SimulationError):
        stream.extend(
            np.ones((2, 2)), np.ones(4), np.ones(4), np.ones(4)
        )


def test_scanner_chunk_parity():
    """Chunked scan_batch on one generator == one whole-trace draw.

    This is the second half of the online==offline guarantee: the
    persisted generator fills requests sequentially in C order, so the
    sensor noise stream is independent of the chunking.
    """
    scenario = build_named_scenario("porter-ii", duration_s=10.0, n_modules=6)
    physics = TracePhysics.compute(
        scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
    )
    whole = scenario.make_scanner()
    whole.reset()
    reference = whole.scan_batch(physics.sensed_temps_c)
    for chunk in (1, 7):
        chunked = scenario.make_scanner()
        chunked.reset()
        rows = []
        lo = 0
        n = physics.sensed_temps_c.shape[0]
        while lo < n:
            hi = min(lo + chunk, n)
            rows.append(chunked.scan_batch(physics.sensed_temps_c[lo:hi]))
            lo = hi
        assert np.array_equal(np.vstack(rows), reference), f"chunk={chunk}"
