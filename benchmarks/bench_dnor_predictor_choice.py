"""Ablation — DNOR end-to-end with each of the three predictors.

The paper selects MLR from MAPE and runtime (Fig. 5); this ablation
closes the loop by running the *whole system* (Algorithm 2 inside the
closed-loop simulator) with MLR, BPNN and SVR, plus the naive
persistence baseline.  Expected shape: harvested energy barely moves
(all predictors are accurate enough for a 1-2 s horizon), but the
controller's amortised runtime explodes for the trained predictors —
runtime, not accuracy, is what makes MLR the only sensible choice.
"""

import numpy as np
import pytest

from conftest import emit
from repro.core.oracle import make_oracle_policy
from repro.prediction.baselines import PersistencePredictor
from repro.prediction.bpnn import BPNNPredictor
from repro.prediction.mlr import MLRPredictor
from repro.prediction.svr import SVRPredictor
from repro.sim.scenario import default_scenario

DURATION_S = 120.0


def _true_temps(scenario):
    trace = scenario.trace
    rows = np.empty((trace.n_samples, scenario.n_modules))
    for i in range(trace.n_samples):
        op = scenario.boundary.operating_point(
            coolant_inlet_c=float(trace.coolant_inlet_c[i]),
            coolant_flow_kg_s=float(trace.coolant_flow_kg_s[i]),
            ambient_c=float(trace.ambient_c[i]),
            air_flow_kg_s=float(trace.air_flow_kg_s[i]),
            n_modules=scenario.n_modules,
        )
        rows[i] = float(trace.ambient_c[i]) + op.delta_t_k
    return rows


@pytest.fixture(scope="module")
def runs():
    results = {}
    for predictor in (
        MLRPredictor(),
        BPNNPredictor(epochs=15, seed=1),
        SVRPredictor(epochs=10, seed=1),
        PersistencePredictor(),
    ):
        scenario = default_scenario(duration_s=DURATION_S, seed=2018)
        simulator = scenario.make_simulator()
        policy = scenario.make_dnor_policy(predictor=predictor)
        results[predictor.name] = simulator.run(policy, scenario.make_charger())
    # The unrealisable upper bound: Algorithm 2 with perfect foresight.
    scenario = default_scenario(duration_s=DURATION_S, seed=2018)
    simulator = scenario.make_simulator()
    oracle_policy = make_oracle_policy(scenario, _true_temps(scenario))
    results["Oracle"] = simulator.run(oracle_policy, scenario.make_charger())
    return results


def render(results) -> str:
    lines = [
        f"DNOR predictor ablation over {DURATION_S:.0f} s",
        f"{'predictor':>10s} {'net energy (J)':>15s} {'switches':>9s} "
        f"{'overhead (J)':>13s} {'avg runtime (ms)':>17s}",
    ]
    for name, result in results.items():
        lines.append(
            f"{name:>10s} {result.energy_output_j:15.1f} "
            f"{result.switch_count:9d} {result.switch_overhead_j:13.2f} "
            f"{result.average_runtime_ms:17.3f}"
        )
    lines.append("")
    lines.append(
        "Paper comparison: all predictors (even the perfect-foresight "
        "oracle) harvest within ~1% of each other at this horizon, but "
        "the trained predictors cost orders of magnitude more "
        "controller time — MLR's O(N) fit is what keeps DNOR's "
        "amortised runtime below INOR's (Table I), and the tiny "
        "MLR-to-oracle gap shows prediction accuracy is not the "
        "binding constraint."
    )
    return "\n".join(lines)


def test_dnor_predictor_choice(benchmark, runs):
    energies = {name: r.energy_output_j for name, r in runs.items()}
    runtimes = {name: r.average_runtime_ms for name, r in runs.items()}

    # Harvest barely depends on the predictor at a 1-s horizon,
    # including against the perfect-foresight oracle...
    spread = max(energies.values()) / min(energies.values())
    assert spread < 1.02
    assert energies["MLR"] > energies["Oracle"] * 0.99
    # ...but the controller cost does, decisively.
    assert runtimes["MLR"] < runtimes["BPNN"] / 5
    assert runtimes["MLR"] < runtimes["SVR"] / 3

    emit("dnor_predictor_choice.txt", render(runs))

    benchmark(lambda: render(runs))
