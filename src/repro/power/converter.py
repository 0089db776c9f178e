"""Buck-boost converter efficiency model (LTM4607 class).

The paper's charger converts the TEG array voltage to the 13.8 V
lead-acid charging bus and notes that "the converting efficiency
decreases when the input voltage deviates from the output voltage" —
the property that motivates INOR's converter-aware group-count range
``[n_min, n_max]``.

The efficiency surface is modelled as a log-parabola around an optimum
input voltage:

.. math::

    \\eta(V_{in}) = \\eta_{peak} - c \\cdot \\ln^2(V_{in}/V_{opt})

with a steeper coefficient below the optimum (buck-boost stages lose
more to conduction at low input voltage / high input current) than
above it.  A small quiescent draw makes very-low-power operation
unprofitable, as in the real part.

The curve has two evaluation forms: the scalar :meth:`efficiency` /
:meth:`output_power` used inside per-step control loops, and the
batched :meth:`efficiency_batch` / :meth:`output_power_batch` row-vector
forms the simulation engine and DNOR's horizon scoring consume.  The
scalar forms delegate to the same NumPy kernels so both paths are
bit-identical — the batch engine's equivalence guarantee depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from repro.errors import ModelParameterError
from repro.units import require_fraction, require_non_negative, require_positive


@dataclass(frozen=True)
class BuckBoostConverter:
    """Efficiency model of the charger's DC-DC stage.

    Parameters
    ----------
    output_voltage_v:
        Regulated output — 13.8 V for the paper's lead-acid bus.
    peak_efficiency:
        Efficiency at the optimal input voltage.
    optimal_input_v:
        Input voltage of peak efficiency; slightly above the output for
        a buck-leaning operating point.
    low_side_coeff, high_side_coeff:
        Log-parabola curvatures below/above the optimum.
    floor_efficiency:
        Lower clamp of the efficiency curve.
    quiescent_power_w:
        Controller/gate-drive overhead subtracted from the output.
    """

    output_voltage_v: float = 13.8
    peak_efficiency: float = 0.96
    optimal_input_v: float = 14.5
    low_side_coeff: float = 0.30
    high_side_coeff: float = 0.12
    floor_efficiency: float = 0.40
    quiescent_power_w: float = 0.35

    def __post_init__(self) -> None:
        require_positive(self.output_voltage_v, "output_voltage_v")
        require_fraction(self.peak_efficiency, "peak_efficiency")
        require_positive(self.optimal_input_v, "optimal_input_v")
        require_non_negative(self.low_side_coeff, "low_side_coeff")
        require_non_negative(self.high_side_coeff, "high_side_coeff")
        require_fraction(self.floor_efficiency, "floor_efficiency")
        require_non_negative(self.quiescent_power_w, "quiescent_power_w")
        if self.floor_efficiency > self.peak_efficiency:
            raise ModelParameterError(
                "floor_efficiency must not exceed peak_efficiency"
            )

    def efficiency(self, input_voltage_v: float) -> float:
        """Conversion efficiency at an input voltage.

        Non-positive and NaN input voltages return the floor (the stage
        cannot start); the curve is clamped to ``[floor, peak]``.
        """
        # ``not v > 0`` rather than ``v <= 0``: NaN takes the floor, as
        # in :meth:`efficiency_batch`.
        if not input_voltage_v > 0.0:
            return self.floor_efficiency
        deviation = float(np.log(input_voltage_v / self.optimal_input_v))
        coeff = self.low_side_coeff if deviation < 0.0 else self.high_side_coeff
        eta = self.peak_efficiency - coeff * deviation * deviation
        return min(max(eta, self.floor_efficiency), self.peak_efficiency)

    def efficiency_batch(self, input_voltage_v: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`efficiency` over a row vector of voltages.

        Elementwise bit-identical to the scalar form: both use the same
        NumPy ``log`` kernel, so a batched sweep and a per-step loop
        produce exactly the same efficiencies.
        """
        v = np.asarray(input_voltage_v, dtype=float)
        startable = v > 0.0
        safe_v = np.where(startable, v, self.optimal_input_v)
        deviation = np.log(safe_v / self.optimal_input_v)
        coeff = np.where(
            deviation < 0.0, self.low_side_coeff, self.high_side_coeff
        )
        eta = self.peak_efficiency - coeff * deviation * deviation
        eta = np.minimum(
            np.maximum(eta, self.floor_efficiency), self.peak_efficiency
        )
        return np.where(startable, eta, self.floor_efficiency)

    def output_power(self, input_power_w: float, input_voltage_v: float) -> float:
        """Power delivered to the bus for a given input operating point.

        Negative input power (a back-driven array) delivers nothing,
        and so does a NaN one, as in :meth:`output_power_batch`.
        """
        if not input_power_w > 0.0:
            return 0.0
        delivered = input_power_w * self.efficiency(input_voltage_v)
        return max(delivered - self.quiescent_power_w, 0.0)

    def output_power_batch(
        self, input_power_w: np.ndarray, input_voltage_v: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`output_power` over ``(P, V)`` row vectors.

        The hot-path form used by the batch simulation engine and by
        DNOR's horizon-energy scoring; elementwise bit-identical to the
        scalar :meth:`output_power`.
        """
        p = np.asarray(input_power_w, dtype=float)
        v = np.asarray(input_voltage_v, dtype=float)
        delivered = p * self.efficiency_batch(v)
        delivered = np.maximum(delivered - self.quiescent_power_w, 0.0)
        return np.where(p > 0.0, delivered, 0.0)

    def preferred_voltage_window(self, efficiency_drop: float = 0.03) -> tuple:
        """Input-voltage band keeping efficiency within ``drop`` of peak.

        Solves the log-parabola for the two crossings; this is the
        window INOR's ``[n_min, n_max]`` range targets (Sec. III-B /
        V-A of the paper).
        """
        require_positive(efficiency_drop, "efficiency_drop")
        low = self.optimal_input_v * math.exp(
            -math.sqrt(efficiency_drop / self.low_side_coeff)
            if self.low_side_coeff > 0.0
            else -math.inf
        )
        high = self.optimal_input_v * math.exp(
            math.sqrt(efficiency_drop / self.high_side_coeff)
            if self.high_side_coeff > 0.0
            else math.inf
        )
        return (low, high)
