"""``P_ideal`` — the every-module-at-its-own-MPP reference of Fig. 7.

``P_ideal(t) = sum_i E_i(t)^2 / 4 R_i`` is an upper bound no physical
configuration reaches (series groups share a current, parallel modules
share a voltage), which is what makes it the natural normaliser for
comparing schemes.  The series needs only the *true* boundary
conditions, so it is one vectorised boundary solve plus the batched
per-module MPP sum (:func:`repro.sim.physics.ideal_power_from_delta_t`)
— the sensed rows a full :class:`~repro.sim.physics.TracePhysics`
stacks into its solve are left out.
"""

from __future__ import annotations

import numpy as np

from repro.sim.physics import ideal_power_from_delta_t
from repro.teg.model import ModuleModel
from repro.thermal.boundary import ThermalBoundary
from repro.vehicle.trace import RadiatorTrace


def ideal_power_series(
    trace: RadiatorTrace,
    boundary: ThermalBoundary,
    module: ModuleModel,
    n_modules: int,
) -> np.ndarray:
    """``P_ideal`` at every trace sample, from the true boundary conditions."""
    solution = boundary.solve_trace(
        trace.coolant_inlet_c,
        trace.coolant_flow_kg_s,
        trace.ambient_c,
        trace.air_flow_kg_s,
        n_modules,
    )
    mean_true_c = (solution.surface_temps_c + solution.sink_temps_c) / 2.0
    return ideal_power_from_delta_t(module, solution.delta_t_k, mean_true_c)
