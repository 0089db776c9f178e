"""Chunked physics stream parity (repro.sim.physics.TracePhysicsStream).

The load-bearing guarantee of the streaming service: feeding a trace
through :class:`TracePhysicsStream` in chunks — any chunk size —
produces per-chunk rows and a snapshot that are **bit-identical** to
the one-shot :meth:`TracePhysics.compute` over the whole trace.  Pinned
for every registry scenario, noisy and noiseless, at chunk sizes
1 / 7 / full-trace.  The stream keeps no chunks, so the whole-trace
comparison reassembles the states ``extend`` returned
(:func:`_snapshot`).  Each chunk, like ``compute()``, costs one boundary
solve over its true and sensed rows stacked; each half is pinned
bitwise to a separate solve over that half's columns.
"""

import dataclasses
import gc
import weakref

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


def _snapshot(scenario, stream, trace, states):
    """Assemble streamed chunk states into a whole-trace precompute.

    ``states`` are what ``stream.extend`` returned, in order; they must
    cover ``trace`` exactly.  The result is what
    ``TracePhysics.compute(trace, ...)`` returns field for field,
    including the noiseless solution aliasing: the trace is noiseless
    exactly when every chunk was.
    """
    if trace.n_samples != stream.n_samples_seen:
        raise SimulationError(
            f"snapshot trace has {trace.n_samples} samples but "
            f"{stream.n_samples_seen} were streamed"
        )
    if not states:
        raise SimulationError("no chunks streamed yet")
    start = 0
    for state in states:
        assert state.start_index == start, "states out of order"
        start += state.n_samples
    assert start == stream.n_samples_seen, "states do not cover the stream"

    def concat(solutions):
        return type(solutions[0]).concat(solutions)

    true_solution = concat([s.true_solution for s in states])
    noiseless = all(s.noiseless for s in states)
    sensed_solution = (
        true_solution
        if noiseless
        else concat([s.sensed_solution for s in states])
    )
    return TracePhysics(
        trace=trace,
        boundary=scenario.boundary,
        module=scenario.module,
        n_modules=scenario.n_modules,
        true_solution=true_solution,
        sensed_solution=sensed_solution,
        sensed_temps_c=np.concatenate([s.sensed_temps_c for s in states]),
        emf_true=np.concatenate([s.emf_true for s in states]),
        module_resistance_ohm=float(scenario.module.internal_resistance()),
        ideal_power_w=np.concatenate([s.ideal_power_w for s in states]),
        noiseless=noiseless,
    )


def _assert_solutions_bitwise(actual, expected, label):
    """Same concrete type and every flat column bitwise equal."""
    assert type(actual) is type(expected), label
    actual_arrays = actual.to_arrays()
    expected_arrays = expected.to_arrays()
    assert actual_arrays.keys() == expected_arrays.keys(), label
    for key, value in expected_arrays.items():
        assert actual_arrays[key].shape == value.shape, f"{label} {key}"
        assert np.array_equal(actual_arrays[key], value), f"{label} {key}"


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

    # The returned states reassemble the full TracePhysics, bitwise.
    snapshot = _snapshot(scenario, stream, trace, states)
    assert snapshot.noiseless == noiseless
    for attr in ("sensed_temps_c", "emf_true", "ideal_power_w"):
        assert np.array_equal(
            getattr(snapshot, attr), getattr(reference, attr)
        ), attr
    # Every field the boundary's solution type carries — the flat
    # to_arrays() view covers subclass extras (e.g. the radiator's
    # exchanger columns and decay_per_m) without hard-coding them.
    _assert_solutions_bitwise(
        snapshot.true_solution, reference.true_solution, "true"
    )
    _assert_solutions_bitwise(
        snapshot.sensed_solution, reference.sensed_solution, "sensed"
    )
    assert (snapshot.sensed_solution is snapshot.true_solution) == noiseless
    assert (
        reference.sensed_solution is reference.true_solution
    ) == noiseless


def _counting_solves(monkeypatch, boundary):
    """Count ``solve_trace`` calls on ``boundary``'s class."""
    calls = []
    cls = type(boundary)
    original = cls.solve_trace

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "solve_trace", counting)
    return calls


@pytest.mark.parametrize("name", default_registry().names())
def test_noisy_chunk_and_compute_solve_once(name, monkeypatch):
    """One stacked solve per noisy extend and per noisy compute, for
    every registry scenario (radiator, exhaust-gas, finite-coupling and
    the segmented-module exhaust chains)."""
    scenario = build_named_scenario(name, duration_s=12.0, n_modules=9)
    trace = scenario.trace
    calls = _counting_solves(monkeypatch, scenario.boundary)
    stream = TracePhysicsStream(
        scenario.boundary, scenario.module, scenario.n_modules
    )
    state = stream.extend_trace(trace, 0, 5)
    assert not state.noiseless
    assert calls == [10]  # 5 true rows over 5 sensed rows
    calls.clear()
    physics = TracePhysics.compute(
        trace, scenario.boundary, scenario.module, scenario.n_modules
    )
    assert not physics.noiseless
    assert calls == [2 * trace.n_samples]


@pytest.mark.parametrize("name", default_registry().names())
@pytest.mark.parametrize("chunk", (1, 2, 7))
def test_stacked_halves_equal_separate_solves(name, chunk):
    """Each half of a chunk's stacked solve is bitwise the solve over
    that half's own columns — same type, every flat column."""
    scenario = build_named_scenario(name, duration_s=12.0, n_modules=9)
    trace = scenario.trace
    boundary = scenario.boundary
    _, states = _stream_whole_trace(scenario, trace, chunk)
    for state in states:
        lo = state.start_index
        hi = lo + state.n_samples
        label = f"{name} chunk={chunk} [{lo}:{hi}]"
        assert not state.noiseless, label
        ambient = trace.ambient_c[lo:hi]
        air_flow = trace.air_flow_kg_s[lo:hi]
        true_alone = boundary.solve_trace(
            trace.coolant_inlet_c[lo:hi],
            trace.coolant_flow_kg_s[lo:hi],
            ambient,
            air_flow,
            scenario.n_modules,
        )
        sensed_alone = boundary.solve_trace(
            trace.coolant_inlet_sensed_c[lo:hi],
            trace.coolant_flow_sensed_kg_s[lo:hi],
            ambient,
            air_flow,
            scenario.n_modules,
        )
        _assert_solutions_bitwise(
            state.true_solution, true_alone, f"{label} true"
        )
        _assert_solutions_bitwise(
            state.sensed_solution, sensed_alone, f"{label} sensed"
        )
        assert np.array_equal(
            state.sensed_temps_c, ambient[:, None] + sensed_alone.delta_t_k
        ), label


def test_stream_keeps_no_chunk_state():
    """A long-lived stream holds only its sample count: the chunk
    states it returned are freed once the caller drops them."""
    scenario = build_named_scenario("porter-ii", duration_s=12.0, n_modules=9)
    trace = scenario.trace
    stream = TracePhysicsStream(
        scenario.boundary, scenario.module, scenario.n_modules
    )
    refs = []
    for _ in range(40):
        for lo in range(0, trace.n_samples, 3):
            hi = min(lo + 3, trace.n_samples)
            refs.append(weakref.ref(stream.extend_trace(trace, lo, hi)))
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert stream.n_samples_seen == 40 * trace.n_samples
    held = [
        value
        for value in vars(stream).values()
        if isinstance(value, (list, tuple, dict, np.ndarray))
    ]
    assert held == []


def test_noiseless_chunks_alias_true_solution():
    scenario = build_named_scenario("porter-ii", duration_s=8.0, n_modules=4)
    trace = _noiseless_copy(scenario.trace)
    stream, states = _stream_whole_trace(scenario, trace, 5)
    for state in states:
        assert state.sensed_solution is state.true_solution
    snapshot = _snapshot(scenario, stream, trace, states)
    assert snapshot.noiseless
    assert snapshot.sensed_solution is snapshot.true_solution


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
    assert not _snapshot(scenario, stream, trace, [first, second]).noiseless


def test_snapshot_validates_sample_count():
    scenario = build_named_scenario("porter-ii", duration_s=8.0, n_modules=4)
    trace = scenario.trace
    stream = TracePhysicsStream(
        scenario.boundary, scenario.module, scenario.n_modules
    )
    state = stream.extend_trace(trace, 0, trace.n_samples - 3)
    assert stream.n_samples_seen == trace.n_samples - 3
    with pytest.raises(SimulationError, match="samples"):
        _snapshot(scenario, stream, trace, [state])


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
