"""Fig. 5 — 1-second prediction MAPE of MLR vs BPNN vs SVR.

Walk-forward evaluation of the three predictors on the module
temperature history of the canonical trace, forecasting 1 second ahead
and scoring with the paper's Eq. (3).  The regenerated artefact is the
per-method error series summary; the paper's verdict to check is
MLR < {BPNN, SVR} with worst-case MLR error around 0.3%.

The benchmark measures the MLR fit+forecast step — the cost the paper
calls "transitory" next to the reconfiguration algorithm.
"""

import numpy as np
import pytest

from conftest import emit
from repro.prediction.bpnn import BPNNPredictor
from repro.prediction.evaluate import walk_forward_evaluation
from repro.prediction.mlr import MLRPredictor
from repro.prediction.svr import SVRPredictor


@pytest.fixture(scope="module")
def temperature_history(scenario_800):
    """(T, N') surface-temperature matrix over the first 400 s.

    The paper predicts the radiator surface temperature distribution
    (Eq. 1); every 5th module is evaluated — the profile is smooth in
    space, so this keeps the slow trainers tractable without changing
    the verdict.
    """
    scenario = scenario_800
    trace = scenario.trace
    n_rows = int(400.0 / trace.dt_s)
    rows = np.empty((n_rows, scenario.n_modules))
    for i in range(n_rows):
        op = scenario.boundary.operating_point(
            coolant_inlet_c=float(trace.coolant_inlet_c[i]),
            coolant_flow_kg_s=float(trace.coolant_flow_kg_s[i]),
            ambient_c=float(trace.ambient_c[i]),
            air_flow_kg_s=float(trace.air_flow_kg_s[i]),
            n_modules=scenario.n_modules,
        )
        rows[i] = op.surface_temps_c
    return rows[:, ::5]


def evaluate_all(history):
    horizon = 2  # 1 second at the 0.5 s sample period
    evaluations = {}
    for predictor, refit in (
        (MLRPredictor(), 1),
        (BPNNPredictor(epochs=30, seed=1), 25),
        (SVRPredictor(epochs=25, seed=1), 25),
    ):
        evaluations[predictor.name] = walk_forward_evaluation(
            predictor,
            history,
            horizon_steps=horizon,
            warmup_rows=160,
            stride=4,
            refit_every=refit,
        )
    return evaluations


def render_fig5(evaluations) -> str:
    lines = [
        "Fig. 5 — 1-second-ahead prediction percentage error (Eq. 3 MAPE)",
        f"{'method':>6s} {'mean %':>9s} {'p90 %':>9s} {'max %':>9s} "
        f"{'fit ms':>8s} {'fcst ms':>8s}",
    ]
    for name, ev in evaluations.items():
        lines.append(
            f"{name:>6s} {ev.mean_mape_pct:9.4f} "
            f"{float(np.percentile(ev.mape_series_pct, 90)):9.4f} "
            f"{ev.max_mape_pct:9.4f} "
            f"{ev.mean_fit_seconds * 1e3:8.2f} "
            f"{ev.mean_forecast_seconds * 1e3:8.3f}"
        )
    mlr = evaluations["MLR"]
    series = mlr.mape_series_pct
    lines.append("")
    lines.append("MLR error series (one value per 2 s, percent):")
    chunks = [series[k : k + 20] for k in range(0, len(series), 20)]
    for chunk in chunks:
        lines.append(" ".join(f"{v:6.4f}" for v in chunk))
    lines.append("")
    lines.append(
        "Paper comparison: MLR is the most accurate method and its "
        "worst 1-2 s error stays around/below ~0.3% (Fig. 5)."
    )
    return "\n".join(lines)


def test_fig5_prediction_mape(benchmark, temperature_history):
    history = temperature_history
    evaluations = evaluate_all(history)

    # Paper shape: MLR wins.  Typical errors sit at the paper's ~0.1%
    # scale; the worst case is looser than the paper's 0.3% because our
    # synthetic drive has sharper load steps than the measured one
    # (recorded as a deviation in EXPERIMENTS.md).
    assert evaluations["MLR"].mean_mape_pct <= evaluations["BPNN"].mean_mape_pct
    assert evaluations["MLR"].mean_mape_pct <= evaluations["SVR"].mean_mape_pct
    assert evaluations["MLR"].mean_mape_pct < 0.15
    assert float(np.percentile(evaluations["MLR"].mape_series_pct, 90)) < 0.35
    assert evaluations["MLR"].max_mape_pct < 4.0

    emit("fig5_prediction_mape.txt", render_fig5(evaluations))

    # Benchmark the online MLR step (fit on history + 1 s forecast).
    predictor = MLRPredictor()

    def mlr_step():
        predictor.fit(history)
        return predictor.forecast(history, 2)

    forecast = benchmark(mlr_step)
    assert forecast.shape == (2, history.shape[1])
