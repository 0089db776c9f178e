"""Fused DNOR epochs — dnor_stack grids vs per-case serial planning.

DNOR is the expensive policy in the boiler-scale regime: every epoch
runs a predictor refit, a forecast, an INOR proposal and a horizon
energy evaluation per case.  ``executor="gridstack"`` now fuses
homogeneous DNOR groups through :func:`repro.core.dnor.dnor_stack` —
one stacked INOR proposal pass and one stacked horizon-energy pass per
epoch for the whole grid, with only the per-lane regression solves left
sequential.  This bench drives a 16-case homogeneous noise-axis DNOR
grid through both executors, verifies the collations are bit-identical
(the speed-up must be free), and gates the fused wall-clock at
``>= DNOR_STACK_SPEEDUP_GATE`` over serial.

The physics precompute is shared and warmed before timing either
executor, so the measured ratio isolates the decision + electrical
fabric — the part the stacked epoch kernel actually fuses.
"""

import json
import os
import time

import numpy as np
import pytest

from conftest import emit, write_artifact
from repro.sim.engine import ExperimentRunner, grid_cases
from repro.sim.cache import PhysicsCache
from repro.sim.scenario import build_named_scenario

#: Cases in the homogeneous DNOR grid (a scanner-noise axis).
GRID_CASES = int(os.environ.get("REPRO_BENCH_DNOR_STACK_CASES", "16"))

#: Simulated trace length; override for CI smoke runs.
DURATION_S = float(os.environ.get("REPRO_BENCH_DNOR_STACK_DURATION_S", "120"))

#: Gate: fused grid wall-clock must beat per-case serial by this factor.
DNOR_STACK_SPEEDUP_GATE = 3.0

#: Result fields the two executors must reproduce byte-for-byte
#: (everything except the wall-clock runtime series).
_PINNED_FIELDS = (
    "gross_power_w",
    "delivered_power_w",
    "ideal_power_w",
    "array_voltage_v",
    "n_groups_series",
    "time_s",
)


@pytest.fixture(scope="module")
def grid():
    scenario = build_named_scenario("porter-ii", duration_s=DURATION_S)
    noise_axis = [0.01 + 0.005 * k for k in range(GRID_CASES)]
    cases = grid_cases([scenario], ["DNOR"], scanner_noise_std_k=noise_axis)
    assert len(cases) == GRID_CASES
    assert all(c.scenario.nominal_compute_s is not None for c in cases)
    cache = PhysicsCache()
    # Warm the shared physics once so neither timed run pays the solve.
    cache.get_or_compute(
        scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
    )
    return cases, cache


def _timed_run(cases, cache, executor: str):
    t0 = time.perf_counter()
    collation = ExperimentRunner(cases, executor=executor, cache=cache).run()
    return collation, time.perf_counter() - t0


def test_dnor_stack_speedup(grid):
    cases, cache = grid
    serial, serial_s = _timed_run(cases, cache, "serial")
    stacked, stacked_s = _timed_run(cases, cache, "gridstack")

    # Identical results first: the fused epochs must be bit-exact.
    for (case_a, res_a), (case_b, res_b) in zip(serial, stacked):
        assert case_a.name == case_b.name
        assert res_a.scheme == res_b.scheme
        for field in _PINNED_FIELDS:
            a = getattr(res_a, field)
            b = getattr(res_b, field)
            assert a.tobytes() == b.tobytes(), (case_a.name, field)
        assert res_a.switch_times_s == res_b.switch_times_s
        assert res_a.overhead_events == res_b.overhead_events

    speedup = serial_s / stacked_s
    lines = [
        f"Fused DNOR epochs — {len(cases)}-case homogeneous DNOR grid",
        f"cases            : {len(cases)}",
        f"trace length     : {DURATION_S:.0f} s",
        f"serial           : {serial_s * 1e3:10.1f} ms",
        f"gridstack        : {stacked_s * 1e3:10.1f} ms",
        f"speedup          : {speedup:10.2f}x  (gate >= {DNOR_STACK_SPEEDUP_GATE}x)",
        "results          : bit-identical across executors",
    ]
    emit("dnor_stack.txt", "\n".join(lines))
    write_artifact(
        "dnor_stack.json",
        json.dumps(
            {
                "cases": len(cases),
                "duration_s": DURATION_S,
                "serial_seconds": serial_s,
                "gridstack_seconds": stacked_s,
                "speedup": speedup,
                "speedup_gate": DNOR_STACK_SPEEDUP_GATE,
                "bit_identical": True,
            },
            indent=2,
        )
        + "\n",
    )

    assert speedup >= DNOR_STACK_SPEEDUP_GATE, (
        f"dnor_stack speedup {speedup:.2f}x below the "
        f"{DNOR_STACK_SPEEDUP_GATE}x gate (serial {serial_s:.3f}s, "
        f"fused {stacked_s:.3f}s)"
    )

    delivered = np.array(
        [float(res.delivered_power_w.mean()) for _, res in stacked]
    )
    assert np.all(np.isfinite(delivered))
