"""INOR candidate sweep — scalar per-candidate loop vs batched kernel.

Algorithm 1 scores every group count in the converter-derived
``[n_min, n_max]`` window; the pre-vectorisation implementation paid
one greedy-partition walk plus one
:func:`~repro.teg.network.array_mpp` call (and one scalar converter
evaluation) per candidate.  The batched kernels reduce both halves to
single passes: :func:`~repro.teg.network.partition_multi` builds every
candidate partition from one cumulative-current prefix table, and
:func:`~repro.teg.network.array_mpp_multi` + the charger's
``delivered_batch`` score the whole window in one NumPy reduction —
bit-identical to the loop throughout.

Acceptance bars, for every window of ``n_max - n_min >= 20``
candidates:

* the batched *sweep* (scoring only) must be >= 3x the scalar loop;
* the **end-to-end** ``inor()`` call — build + score + rank — must be
  >= 3x the ``_inor_scalar`` reference loop (same validation and
  window, then one greedy walk and one ``array_mpp`` per candidate).

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_INOR_MODULES`` — chain length (default 100).
* ``REPRO_BENCH_INOR_WINDOWS`` — comma list of window widths
  (default ``8,24,48,100``; widths are clamped to the chain length).
"""

import json
import os
import time

import numpy as np

from conftest import emit, write_artifact
from repro.core.inor import _inor_scalar, greedy_balanced_partition, inor
from repro.power.charger import TEGCharger
from repro.teg.network import array_mpp, array_mpp_multi

N_MODULES = int(os.environ.get("REPRO_BENCH_INOR_MODULES", "100"))
WINDOWS = tuple(
    min(int(w), N_MODULES)
    for w in os.environ.get("REPRO_BENCH_INOR_WINDOWS", "8,24,48,100").split(",")
)

#: Windows at least this wide carry the acceptance gates.
GATED_WIDTH = 20
GATE_SPEEDUP = 3.0
#: End-to-end inor() gate — the whole decision (build + score + rank).
GATE_INOR_SPEEDUP = 3.0


def measure(fn, repeats: int = 7, inner: int = 100) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _profile(n: int):
    """The canonical decaying radiator profile at N modules."""
    emf = 2.0 * np.exp(-np.linspace(0.0, 2.2, n))
    resistance = np.full(n, 0.8)
    return emf, resistance


def sweep_rows():
    """(window, t_scalar, t_batched, t_inor_scalar, t_inor_batched)."""
    emf, resistance = _profile(N_MODULES)
    currents = emf / (2.0 * resistance)
    charger = TEGCharger()
    rows = []
    for width in WINDOWS:
        candidates = [
            greedy_balanced_partition(currents, g) for g in range(1, width + 1)
        ]

        def scalar_sweep():
            best = -float("inf")
            for starts in candidates:
                mpp = array_mpp(emf, resistance, starts)
                score = charger.delivered_at_mpp(mpp)
                if score > best:
                    best = score
            return best

        def batched_sweep():
            # validate=False mirrors inor(): the greedy partitions are
            # correct by construction, exactly as the scalar loop's
            # array_mpp validation was the old inor path.
            power, voltage, _ = array_mpp_multi(
                emf, resistance, candidates, validate=False
            )
            scores = charger.delivered_batch(power, voltage)
            return float(scores[int(np.argmax(scores))])

        assert scalar_sweep() == batched_sweep()  # the equivalence contract
        rows.append(
            (
                width,
                measure(scalar_sweep),
                measure(batched_sweep),
                measure(
                    lambda: _inor_scalar(
                        emf, resistance, charger=charger,
                        n_min=1, n_max=width,
                    ),
                    inner=50,
                ),
                measure(
                    lambda: inor(
                        emf, resistance, charger=charger,
                        n_min=1, n_max=width,
                    ),
                    inner=50,
                ),
            )
        )
    return rows


def render_rows(rows) -> str:
    lines = [
        f"INOR candidate sweep - scalar loop vs batched kernel "
        f"(N = {N_MODULES} modules)",
        f"{'window':>7s} {'scalar (us)':>12s} {'batched (us)':>13s} "
        f"{'speedup':>8s} {'inor() speedup':>15s}",
    ]
    for width, t_s, t_b, t_is, t_ib in rows:
        lines.append(
            f"{width:7d} {t_s * 1e6:12.1f} {t_b * 1e6:13.1f} "
            f"{t_s / t_b:7.1f}x {t_is / t_ib:14.1f}x"
        )
    lines.append("")
    lines.append(
        "sweep = score every candidate group count (array MPP + converter "
        "ranking); inor() additionally builds the greedy partitions."
    )
    return "\n".join(lines)


def test_batched_sweep_speedup():
    """The acceptance gates: sweep *and* end-to-end inor() >= 3x for
    every window >= 20 candidates."""
    rows = sweep_rows()
    emit("inor_kernel.txt", render_rows(rows))
    payload = {
        "n_modules": N_MODULES,
        "gate": {
            "min_window": GATED_WIDTH,
            "min_speedup": GATE_SPEEDUP,
            "min_inor_speedup": GATE_INOR_SPEEDUP,
        },
        "windows": [
            {
                "window": width,
                "scalar_sweep_s": t_s,
                "batched_sweep_s": t_b,
                "sweep_speedup": t_s / t_b,
                "inor_scalar_s": t_is,
                "inor_batched_s": t_ib,
                "inor_speedup": t_is / t_ib,
            }
            for width, t_s, t_b, t_is, t_ib in rows
        ],
    }
    path = write_artifact("inor_kernel.json", json.dumps(payload, indent=2))
    print(f"\n[inor-kernel JSON saved to {path}]")

    gated = [row for row in rows if row[0] >= GATED_WIDTH]
    assert gated, f"no benchmarked window reaches {GATED_WIDTH} candidates"
    for width, t_s, t_b, t_is, t_ib in gated:
        assert t_s / t_b >= GATE_SPEEDUP, (
            f"batched sweep only {t_s / t_b:.1f}x faster than the scalar "
            f"loop at window {width}"
        )
        assert t_is / t_ib >= GATE_INOR_SPEEDUP, (
            f"end-to-end inor() only {t_is / t_ib:.1f}x "
            f"faster than _inor_scalar at window {width} — the "
            f"partition build is the remaining cost"
        )
