"""DNOR epoch planning — sequential horizon scoring vs the stacked kernel.

Algorithm 2 compares the old configuration against its proposal over a
``t_p + 1``-second forecast horizon.  The sequential reference pays one
:meth:`~repro.core.dnor.DNORPlanner._horizon_energy` call — one
``array_mpp_rows`` reduction plus one converter pass — per
configuration; the stacked side scores *every* configuration over the
whole horizon in one
:func:`repro.teg.network.array_mpp_rows_multi_stack` reduction plus one
batched converter call (the scoring body of a
:func:`repro.core.dnor.dnor_stack` epoch), bit-identical to the
sequential loop.

At ``plan()``'s two configurations per lane the stacked call is
cost-neutral (the kernel launch amortises nothing); the win appears
when one pass scores many configurations, as a multi-lane
``dnor_stack`` epoch does.  Acceptance bar: the stacked kernel must be
>= 1.4x the sequential loop for every configuration count >= 8.  The
full ``plan()`` epoch wall-time is recorded alongside in the JSON
artifact.

Environment knobs (used by the CI smoke job):

* ``REPRO_BENCH_DNOR_MODULES`` — chain length (default 100).
* ``REPRO_BENCH_DNOR_CONFIGS`` — comma list of configuration counts
  (default ``2,8,16,32``; counts are clamped to the chain length).
"""

import json
import os
import time

import numpy as np

from conftest import emit, write_artifact
from repro.core.config import ArrayConfiguration
from repro.core.dnor import DNORPlanner
from repro.core.overhead import SwitchingOverheadModel
from repro.power.charger import TEGCharger
from repro.prediction.mlr import MLRPredictor
from repro.teg.datasheet import TGM_199_1_4_0_8
from repro.teg.network import array_mpp_rows_multi_stack

N_MODULES = int(os.environ.get("REPRO_BENCH_DNOR_MODULES", "100"))
CONFIG_COUNTS = tuple(
    min(int(c), N_MODULES - 1)
    for c in os.environ.get("REPRO_BENCH_DNOR_CONFIGS", "2,8,16,32").split(",")
)

#: Candidate counts at least this large carry the speedup gate.
GATED_COUNT = 8
GATE_SPEEDUP = 1.4


def measure(fn, repeats: int = 7, inner: int = 100) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def make_planner() -> DNORPlanner:
    return DNORPlanner(
        module=TGM_199_1_4_0_8,
        charger=TEGCharger(),
        overhead=SwitchingOverheadModel(),
        predictor=MLRPredictor(lags=4, train_window=120),
        tp_seconds=1.0,
        sample_dt_s=0.5,
        nominal_compute_s=2.0e-3,
    )


def make_history(rng: np.random.Generator) -> np.ndarray:
    """A radiator-like decaying profile with sensing noise."""
    profile = (
        25.0 + 55.0 * np.exp(-2.2 * np.linspace(0.0, 1.0, N_MODULES)) + 10.0
    )
    return profile[None, :] + rng.normal(0.0, 0.4, (120, N_MODULES))


def horizon_rows(planner, history, rng) -> np.ndarray:
    now = history[-1]
    return np.vstack(
        [np.tile(now, (2, 1)), now + rng.normal(0.0, 0.2, (2, N_MODULES))]
    )


def stacked_energies(planner, configs, rows, ambient_c) -> np.ndarray:
    """Horizon energies of every configuration in one stacked pass."""
    module = TGM_199_1_4_0_8
    emf_rows = module.emf_coefficient() * (rows - ambient_c)
    resistance = np.full(rows.shape[1], module.internal_resistance())
    power, voltage = array_mpp_rows_multi_stack(
        emf_rows[None],
        resistance,
        [config.starts for config in configs],
        np.zeros(len(configs), np.int64),
    )
    delivered = planner._charger.delivered_batch(power, voltage)
    return delivered.sum(axis=1) * planner._sample_dt_s


def sweep_rows():
    """(n_configs, t_sequential, t_stacked) per configuration count."""
    rng = np.random.default_rng(2018)
    planner = make_planner()
    history = make_history(rng)
    rows = horizon_rows(planner, history, rng)
    out = []
    for count in CONFIG_COUNTS:
        configs = [
            ArrayConfiguration.uniform(N_MODULES, g)
            for g in range(2, 2 + count)
        ]

        def sequential():
            return [
                planner._horizon_energy(config, rows, 25.0)
                for config in configs
            ]

        def stacked():
            return stacked_energies(planner, configs, rows, 25.0)

        # The equivalence contract: stacked == sequential, bitwise.
        assert stacked().tolist() == sequential()
        out.append((count, measure(sequential), measure(stacked)))
    return out


def epoch_time() -> float:
    """Wall time of one plan() epoch."""
    rng = np.random.default_rng(2019)
    planner = make_planner()
    history = make_history(rng)
    current = ArrayConfiguration.uniform(N_MODULES, 12)
    return measure(
        lambda: planner.plan(history, 25.0, current=current), inner=20
    )


def render(rows, t_plan) -> str:
    lines = [
        f"DNOR horizon scoring - sequential loop vs stacked kernel "
        f"(N = {N_MODULES} modules, 4 horizon rows)",
        f"{'configs':>8s} {'sequential (us)':>16s} {'stacked (us)':>13s} "
        f"{'speedup':>8s}",
    ]
    for count, t_seq, t_stk in rows:
        lines.append(
            f"{count:8d} {t_seq * 1e6:16.1f} {t_stk * 1e6:13.1f} "
            f"{t_seq / t_stk:7.2f}x"
        )
    lines.append("")
    lines.append(
        f"plan() epoch (INOR + predictor + 2-config horizon): "
        f"{t_plan * 1e6:.0f} us"
    )
    return "\n".join(lines)


def test_stacked_horizon_speedup():
    """The acceptance gate: >= 1.4x for every count >= 8 configurations."""
    rows = sweep_rows()
    t_plan = epoch_time()
    emit("dnor_plan.txt", render(rows, t_plan))
    payload = {
        "n_modules": N_MODULES,
        "gate": {"min_configs": GATED_COUNT, "min_speedup": GATE_SPEEDUP},
        "configs": [
            {
                "n_configs": count,
                "sequential_s": t_seq,
                "stacked_s": t_stk,
                "speedup": t_seq / t_stk,
            }
            for count, t_seq, t_stk in rows
        ],
        "plan_epoch_s": t_plan,
    }
    path = write_artifact("dnor_plan.json", json.dumps(payload, indent=2))
    print(f"\n[dnor-plan JSON saved to {path}]")

    gated = [row for row in rows if row[0] >= GATED_COUNT]
    assert gated, f"no benchmarked count reaches {GATED_COUNT} configurations"
    for count, t_seq, t_stk in gated:
        assert t_seq / t_stk >= GATE_SPEEDUP, (
            f"stacked horizon kernel only {t_seq / t_stk:.2f}x the "
            f"sequential loop at {count} configurations"
        )
