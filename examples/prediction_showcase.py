#!/usr/bin/env python
"""Compare the paper's three temperature predictors (Fig. 5 workflow).

Builds the module-temperature history from a synthetic drive, then
walk-forward-evaluates MLR, BPNN and SVR on 1-second-ahead forecasts
of the whole distribution, reporting the MAPE of Eq. (3) and the
runtime that justifies the paper's choice of MLR.

Run with::

    python examples/prediction_showcase.py
"""

import numpy as np

from repro import default_scenario
from repro.prediction import (
    BPNNPredictor,
    MLRPredictor,
    SVRPredictor,
    walk_forward_evaluation,
)


def module_temperature_history(duration_s: float = 240.0) -> np.ndarray:
    """(T, N) hot-side temperature matrix from the canonical scenario."""
    scenario = default_scenario(duration_s=duration_s, seed=2018)
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
        rows[i] = op.surface_temps_c
    return rows


def main() -> None:
    history = module_temperature_history()
    dt_s = 0.5
    horizon_steps = int(round(1.0 / dt_s))  # 1-second-ahead, as in Fig. 5

    print(
        f"History: {history.shape[0]} samples x {history.shape[1]} modules "
        f"({history.shape[0] * dt_s:.0f} s at {dt_s} s)"
    )
    print(f"Forecast horizon: {horizon_steps * dt_s:.0f} s\n")

    predictors = [
        MLRPredictor(),
        BPNNPredictor(epochs=30),
        SVRPredictor(epochs=20),
    ]
    print(
        f"  {'method':>6s} {'mean MAPE %':>12s} {'max MAPE %':>12s} "
        f"{'fit (ms)':>10s} {'forecast (ms)':>14s}"
    )
    results = []
    for predictor in predictors:
        # BPNN/SVR training is orders of magnitude slower than MLR;
        # amortise with a sparser refit, exactly as a real controller
        # would have to.
        refit = 1 if predictor.name == "MLR" else 20
        evaluation = walk_forward_evaluation(
            predictor,
            history,
            horizon_steps=horizon_steps,
            warmup_rows=120,
            stride=2,
            refit_every=refit,
        )
        results.append(evaluation)
        print(
            f"  {evaluation.predictor_name:>6s} "
            f"{evaluation.mean_mape_pct:12.4f} "
            f"{evaluation.max_mape_pct:12.4f} "
            f"{evaluation.mean_fit_seconds * 1e3:10.2f} "
            f"{evaluation.mean_forecast_seconds * 1e3:14.3f}"
        )

    best = min(results, key=lambda e: e.mean_mape_pct)
    print(
        f"\nBest mean MAPE: {best.predictor_name} "
        f"({best.mean_mape_pct:.4f}%) — the paper reaches the same "
        f"verdict and worst-case errors around 0.3%."
    )


if __name__ == "__main__":
    main()
