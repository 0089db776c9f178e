"""The S-shaped 1-D radiator with TEG modules on its surface (Fig. 2).

The paper reduces the 2-D radiator to a 1-D coolant path (an actual
radiator is a parallel bank of such paths) and places ``N`` TEG modules
along it.  The surface temperature at distance ``d`` from the coolant
entrance follows Eq. (1):

.. math::

    T(d) = (T_{h,i} - T_{c,a}) e^{-\\frac{K}{C_c} d} + T_{c,a}

with ``T_h,i`` the coolant inlet temperature, ``T_c,a`` the arithmetic
mean of the air inlet/outlet temperatures, ``K`` the overall heat
transfer coefficient per unit path length and ``C_c`` the cold-stream
capacity rate.  ``T_c,a`` and ``K`` come from the effectiveness-NTU
solution of :mod:`repro.thermal.heat_exchanger`.

Cold-side model
---------------
The paper assumes the module heatsinks sit at ambient temperature.
:class:`Radiator` implements that assumption by default and adds an
optional *sink preheat gradient*: heatsinks further along the path
breathe air already warmed by the upstream core, so their temperature
rises linearly toward a fraction of the total air temperature rise.
This is the lever the default scenario uses to reproduce the module
temperature spread implied by the paper's baseline-vs-reconfiguration
gap; setting ``sink_preheat_fraction=0`` recovers the paper's stated
assumption exactly.  See DESIGN.md section 3.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping

import numpy as np

from repro.errors import ModelParameterError
from repro.thermal.boundary import (
    BoundaryOperatingPoint,
    BoundaryTraceSolution,
    ThermalBoundary,
    register_boundary,
)
from repro.thermal.coolant import FluidProperties, FluidStream
from repro.thermal.heat_exchanger import (
    CrossFlowHeatExchanger,
    HeatExchangerSolution,
    HeatExchangerTraceSolution,
    UAModel,
)
from repro.units import require_fraction, require_positive

#: UAModel parameters serialised by value into the boundary params dict.
_UA_FIELDS = (
    "hot_conductance_ref_w_k",
    "cold_conductance_ref_w_k",
    "hot_ref_flow_kg_s",
    "cold_ref_flow_kg_s",
    "wall_resistance_k_w",
    "hot_flow_exponent",
    "cold_flow_exponent",
)

#: FluidProperties parameters serialised by value.
_FLUID_FIELDS = (
    "name",
    "density_kg_m3",
    "specific_heat_j_kg_k",
    "thermal_conductivity_w_m_k",
    "kinematic_viscosity_m2_s",
)


def fluid_to_dict(fluid: FluidProperties) -> Dict[str, object]:
    """JSON-safe dictionary of one fluid property set."""
    return {
        name: (fluid.name if name == "name" else float(getattr(fluid, name)))
        for name in _FLUID_FIELDS
    }


def surface_temperature_profile(
    coolant_inlet_c: float,
    cold_mean_c: float,
    decay_per_m: float,
    distances_m: np.ndarray,
) -> np.ndarray:
    """Evaluate the paper's Eq. (1) at the given path distances.

    Parameters
    ----------
    coolant_inlet_c:
        ``T_h,i`` — coolant temperature at the radiator entrance.
    cold_mean_c:
        ``T_c,a`` — arithmetic mean of air inlet/outlet temperatures.
    decay_per_m:
        ``K / C_c`` — spatial decay constant along the path, 1/m.
    distances_m:
        Distances from the entrance, metres.
    """
    if decay_per_m < 0.0:
        raise ModelParameterError(f"decay_per_m must be >= 0, got {decay_per_m}")
    d = np.asarray(distances_m, dtype=float)
    return (coolant_inlet_c - cold_mean_c) * np.exp(-decay_per_m * d) + cold_mean_c


@dataclass(frozen=True)
class RadiatorGeometry:
    """Geometry of the S-shaped radiator path and module placement.

    Parameters
    ----------
    path_length_m:
        Total coolant path length following the S shape.
    n_rows:
        Number of straight rows forming the S (documentation only; the
        1-D model depends on path length alone).
    """

    path_length_m: float
    n_rows: int = 10

    def __post_init__(self) -> None:
        require_positive(self.path_length_m, "path_length_m")
        if self.n_rows < 1:
            raise ModelParameterError(f"n_rows must be >= 1, got {self.n_rows}")

    def module_positions(self, n_modules: int) -> np.ndarray:
        """Centre positions of ``n_modules`` equally pitched modules.

        Module ``i`` (0-based) sits at ``(i + 0.5) * L / N`` from the
        coolant entrance, following the S-path.
        """
        if n_modules < 1:
            raise ModelParameterError(f"n_modules must be >= 1, got {n_modules}")
        pitch = self.path_length_m / n_modules
        return (np.arange(n_modules) + 0.5) * pitch


@dataclass(frozen=True)
class RadiatorOperatingPoint(BoundaryOperatingPoint):
    """Solved thermal state of the radiator at one time instant.

    Extends the protocol-level :class:`BoundaryOperatingPoint` (module
    surface/sink/delta-T fields plus ambient) with the radiator's own
    effectiveness-NTU solution and Eq. (1) decay constant.

    Attributes
    ----------
    solution:
        The effectiveness-NTU solution of the core.
    decay_per_m:
        Eq. (1) decay constant ``K / C_c``.
    """

    solution: HeatExchangerSolution
    decay_per_m: float

    @property
    def coolant_outlet_c(self) -> float:
        """Coolant temperature leaving the radiator."""
        return self.solution.hot_outlet_c


@dataclass(frozen=True)
class RadiatorTraceSolution(BoundaryTraceSolution):
    """Vectorised radiator state over a whole boundary-condition trace.

    Row ``i`` of every array is exactly the operating point a scalar
    :meth:`Radiator.operating_point` call at sample ``i`` would produce
    — including the degenerate zero-duty state for cold-start samples
    whose coolant sits at or below ambient (``active[i] == False``).

    Extends the protocol-level :class:`BoundaryTraceSolution` columns
    with the radiator's own state:

    Attributes
    ----------
    exchanger:
        Effectiveness-NTU solution columns (degenerate rows hold the
        zero-duty solution).
    decay_per_m:
        Eq. (1) decay constant per sample (0 for inactive samples).
    """

    exchanger: HeatExchangerTraceSolution
    decay_per_m: np.ndarray

    def operating_point(self, i: int) -> RadiatorOperatingPoint:
        """Scalar :class:`RadiatorOperatingPoint` view of sample ``i``."""
        return RadiatorOperatingPoint(
            solution=self.exchanger.sample(i),
            decay_per_m=float(self.decay_per_m[i]),
            surface_temps_c=self.surface_temps_c[i].copy(),
            sink_temps_c=self.sink_temps_c[i].copy(),
            delta_t_k=self.delta_t_k[i].copy(),
            ambient_c=float(self.ambient_c[i]),
        )

    # ------------------------------------------------------------------
    # Flat-array round trip: exchanger columns travel as ``x_<name>``
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        arrays = {
            "surface_temps_c": self.surface_temps_c,
            "sink_temps_c": self.sink_temps_c,
            "delta_t_k": self.delta_t_k,
            "ambient_c": self.ambient_c,
            "active": self.active,
            "decay_per_m": self.decay_per_m,
        }
        for f in fields(HeatExchangerTraceSolution):
            arrays[f"x_{f.name}"] = getattr(self.exchanger, f.name)
        return arrays

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]):
        return cls(
            exchanger=HeatExchangerTraceSolution(
                **{
                    f.name: arrays[f"x_{f.name}"]
                    for f in fields(HeatExchangerTraceSolution)
                }
            ),
            decay_per_m=arrays["decay_per_m"],
            surface_temps_c=arrays["surface_temps_c"],
            sink_temps_c=arrays["sink_temps_c"],
            delta_t_k=arrays["delta_t_k"],
            ambient_c=arrays["ambient_c"],
            active=arrays["active"],
        )


class Radiator(ThermalBoundary):
    """Finned-tube radiator with a TEG array along its coolant path.

    The original — and first registered — thermal boundary
    (``boundary_type == "radiator"``): the protocol's generic hot
    stream is the coolant loop and the cold stream is the air through
    the core.

    Parameters
    ----------
    geometry:
        Path geometry and module placement.
    exchanger:
        The cross-flow core model.
    coolant, air:
        Property sets of the two streams.
    sink_preheat_fraction:
        Fraction of the total air temperature rise that the *last*
        module's heatsink sees; intermediate modules interpolate
        linearly.  ``0.0`` reproduces the paper's heatsink-at-ambient
        assumption.
    """

    boundary_type = "radiator"

    def __init__(
        self,
        geometry: RadiatorGeometry,
        exchanger: CrossFlowHeatExchanger,
        coolant: FluidProperties,
        air: FluidProperties,
        sink_preheat_fraction: float = 0.0,
    ) -> None:
        self._geometry = geometry
        self._exchanger = exchanger
        self._coolant = coolant
        self._air = air
        self._sink_preheat_fraction = require_fraction(
            sink_preheat_fraction, "sink_preheat_fraction"
        )

    @property
    def geometry(self) -> RadiatorGeometry:
        """Radiator geometry."""
        return self._geometry

    @property
    def exchanger(self) -> CrossFlowHeatExchanger:
        """The cross-flow core model."""
        return self._exchanger

    @property
    def coolant(self) -> FluidProperties:
        """Coolant property set."""
        return self._coolant

    @property
    def air(self) -> FluidProperties:
        """Air property set."""
        return self._air

    @property
    def sink_preheat_fraction(self) -> float:
        """Configured sink preheat fraction."""
        return self._sink_preheat_fraction

    # ------------------------------------------------------------------
    # ThermalBoundary serialisation contract
    # ------------------------------------------------------------------
    def params_dict(self) -> Dict[str, object]:
        """Every radiator parameter by value, JSON-safe."""
        ua = self._exchanger.ua_model
        return {
            "geometry": {
                "path_length_m": float(self._geometry.path_length_m),
                "n_rows": int(self._geometry.n_rows),
            },
            "ua_model": {
                name: float(getattr(ua, name)) for name in _UA_FIELDS
            },
            "both_unmixed": bool(self._exchanger.both_unmixed),
            "coolant": fluid_to_dict(self._coolant),
            "air": fluid_to_dict(self._air),
            "sink_preheat_fraction": float(self._sink_preheat_fraction),
        }

    @classmethod
    def from_params_dict(cls, params: Dict[str, object]) -> "Radiator":
        """Rebuild a radiator from :meth:`params_dict` output."""
        return cls(
            geometry=RadiatorGeometry(**params["geometry"]),
            exchanger=CrossFlowHeatExchanger(
                UAModel(**params["ua_model"]),
                both_unmixed=bool(params["both_unmixed"]),
            ),
            coolant=FluidProperties(**params["coolant"]),
            air=FluidProperties(**params["air"]),
            sink_preheat_fraction=float(params["sink_preheat_fraction"]),
        )

    @classmethod
    def solution_from_arrays(
        cls, arrays: Mapping[str, np.ndarray]
    ) -> RadiatorTraceSolution:
        return RadiatorTraceSolution.from_arrays(arrays)

    def operating_point(
        self,
        coolant_inlet_c: float,
        coolant_flow_kg_s: float,
        ambient_c: float,
        air_flow_kg_s: float,
        n_modules: int,
    ) -> RadiatorOperatingPoint:
        """Solve the radiator state and per-module temperatures.

        Parameters
        ----------
        coolant_inlet_c:
            Coolant temperature entering the radiator (``T_h,i``).
        coolant_flow_kg_s:
            Coolant mass flow.
        ambient_c:
            Ambient air temperature (= air inlet, and the heatsink
            reference).
        air_flow_kg_s:
            Air mass flow through the core.
        n_modules:
            Number of TEG modules along the path.

        Notes
        -----
        A cold start can present coolant at or below ambient; the
        exchanger model only covers heat rejection, so that regime is
        returned as a degenerate zero-duty operating point (flat
        profile at the coolant temperature, zero-to-negative module
        dT) instead of an error — the array then simply produces
        nothing until the engine warms past ambient.
        """
        if coolant_inlet_c <= ambient_c + 0.05:
            return self._inactive_operating_point(
                coolant_inlet_c, coolant_flow_kg_s, ambient_c, air_flow_kg_s,
                n_modules,
            )
        hot = FluidStream(self._coolant, coolant_flow_kg_s, coolant_inlet_c)
        cold = FluidStream(self._air, air_flow_kg_s, ambient_c)
        solution = self._exchanger.solve(hot, cold)

        # Eq. (1): K is the overall coefficient per unit path length,
        # C_c the cold-stream capacity rate.
        decay_per_m = solution.ua_w_k / (
            self._geometry.path_length_m * solution.cold_capacity_w_k
        )
        positions = self._geometry.module_positions(n_modules)
        surface = surface_temperature_profile(
            coolant_inlet_c, solution.cold_mean_c, decay_per_m, positions
        )

        air_rise_k = solution.cold_outlet_c - ambient_c
        sink = ambient_c + (
            self._sink_preheat_fraction
            * air_rise_k
            * positions
            / self._geometry.path_length_m
        )
        return RadiatorOperatingPoint(
            solution=solution,
            decay_per_m=decay_per_m,
            surface_temps_c=surface,
            sink_temps_c=sink,
            delta_t_k=surface - sink,
            ambient_c=float(ambient_c),
        )

    def solve_trace(
        self,
        coolant_inlet_c: np.ndarray,
        coolant_flow_kg_s: np.ndarray,
        ambient_c: np.ndarray,
        air_flow_kg_s: np.ndarray,
        n_modules: int,
    ) -> RadiatorTraceSolution:
        """Solve every sample of a boundary-condition trace in one pass.

        This is the vectorised counterpart of :meth:`operating_point`:
        instead of re-solving the exchanger sample by sample, the whole
        effectiveness-NTU chain and the Eq. (1) surface profile are
        evaluated as array algebra over the trace.  Cold-start samples
        (coolant at or below ambient) are masked out and filled with the
        same degenerate zero-duty state the scalar path returns.

        Parameters
        ----------
        coolant_inlet_c, coolant_flow_kg_s, ambient_c, air_flow_kg_s:
            Matching 1-D boundary-condition columns (one row per trace
            sample).
        n_modules:
            Number of TEG modules along the path.
        """
        inlet = np.asarray(coolant_inlet_c, dtype=float)
        flow = np.asarray(coolant_flow_kg_s, dtype=float)
        ambient = np.asarray(ambient_c, dtype=float)
        air_flow = np.asarray(air_flow_kg_s, dtype=float)
        for label, arr in (
            ("coolant_flow_kg_s", flow),
            ("ambient_c", ambient),
            ("air_flow_kg_s", air_flow),
        ):
            if arr.shape != inlet.shape or inlet.ndim != 1:
                raise ModelParameterError(
                    f"{label} must match coolant_inlet_c in shape, got "
                    f"{arr.shape} vs {inlet.shape}"
                )
        n = inlet.size
        positions = self._geometry.module_positions(n_modules)
        length = self._geometry.path_length_m

        active = inlet > ambient + 0.05
        all_active = bool(active.all())

        if all_active:
            # Fast path (the usual warm-engine trace): no degenerate
            # rows, so skip the mask scatter/gather entirely.
            sol = self._exchanger.solve_batch(
                inlet,
                flow,
                ambient,
                air_flow,
                self._coolant.specific_heat_j_kg_k,
                self._air.specific_heat_j_kg_k,
            )
            decay, surface, sink = self._profile_fields(
                sol, inlet, ambient, positions
            )
            return RadiatorTraceSolution(
                exchanger=sol,
                decay_per_m=decay,
                surface_temps_c=surface,
                sink_temps_c=sink,
                delta_t_k=surface - sink,
                ambient_c=ambient.copy(),
                active=active,
            )

        # Degenerate (cold-start) defaults; active samples overwrite.
        c_hot = flow * self._coolant.specific_heat_j_kg_k
        c_cold = air_flow * self._air.specific_heat_j_kg_k
        ua = self._exchanger.ua_model.ua_batch(flow, air_flow)
        duty = np.zeros(n)
        eff = np.zeros(n)
        ntu = ua / np.minimum(c_hot, c_cold)
        hot_outlet = inlet.copy()
        cold_outlet = ambient.copy()
        decay = np.zeros(n)
        surface = np.repeat(inlet[:, None], n_modules, axis=1)
        sink = np.repeat(ambient[:, None], n_modules, axis=1)

        if bool(active.any()):
            idx = np.flatnonzero(active)
            sol = self._exchanger.solve_batch(
                inlet[idx],
                flow[idx],
                ambient[idx],
                air_flow[idx],
                self._coolant.specific_heat_j_kg_k,
                self._air.specific_heat_j_kg_k,
            )
            duty[idx] = sol.duty_w
            eff[idx] = sol.effectiveness
            ntu[idx] = sol.ntu
            ua[idx] = sol.ua_w_k
            hot_outlet[idx] = sol.hot_outlet_c
            cold_outlet[idx] = sol.cold_outlet_c
            c_hot[idx] = sol.hot_capacity_w_k
            c_cold[idx] = sol.cold_capacity_w_k
            decay_a, surface_a, sink_a = self._profile_fields(
                sol, inlet[idx], ambient[idx], positions
            )
            decay[idx] = decay_a
            surface[idx] = surface_a
            sink[idx] = sink_a

        return RadiatorTraceSolution(
            exchanger=HeatExchangerTraceSolution(
                duty_w=duty,
                effectiveness=eff,
                ntu=ntu,
                ua_w_k=ua,
                hot_outlet_c=hot_outlet,
                cold_outlet_c=cold_outlet,
                hot_capacity_w_k=c_hot,
                cold_capacity_w_k=c_cold,
            ),
            decay_per_m=decay,
            surface_temps_c=surface,
            sink_temps_c=sink,
            delta_t_k=surface - sink,
            ambient_c=ambient.copy(),
            active=active,
        )

    def _profile_fields(
        self,
        sol: HeatExchangerTraceSolution,
        inlet: np.ndarray,
        ambient: np.ndarray,
        positions: np.ndarray,
    ) -> tuple:
        """Eq. (1) decay/surface plus the sink model for solved rows.

        The one copy of the profile math both ``solve_trace`` branches
        share; row ``i`` matches the scalar :meth:`operating_point`
        path operation-for-operation.
        """
        length = self._geometry.path_length_m
        decay = sol.ua_w_k / (length * sol.cold_capacity_w_k)
        cold_mean = sol.cold_mean_c
        surface = (inlet - cold_mean)[:, None] * np.exp(
            -decay[:, None] * positions[None, :]
        ) + cold_mean[:, None]
        air_rise_k = sol.cold_outlet_c - ambient
        sink = ambient[:, None] + (
            self._sink_preheat_fraction
            * air_rise_k[:, None]
            * positions[None, :]
            / length
        )
        return decay, surface, sink

    def _inactive_operating_point(
        self,
        coolant_inlet_c: float,
        coolant_flow_kg_s: float,
        ambient_c: float,
        air_flow_kg_s: float,
        n_modules: int,
    ) -> RadiatorOperatingPoint:
        """Zero-duty state for coolant at/below ambient (cold start)."""
        c_hot = self._coolant.capacity_rate(coolant_flow_kg_s)
        c_cold = self._air.capacity_rate(air_flow_kg_s)
        ua = self._exchanger.ua_model.ua(coolant_flow_kg_s, air_flow_kg_s)
        solution = HeatExchangerSolution(
            duty_w=0.0,
            effectiveness=0.0,
            ntu=ua / min(c_hot, c_cold),
            ua_w_k=ua,
            hot_outlet_c=float(coolant_inlet_c),
            cold_outlet_c=float(ambient_c),
            hot_capacity_w_k=c_hot,
            cold_capacity_w_k=c_cold,
        )
        surface = np.full(n_modules, float(coolant_inlet_c))
        sink = np.full(n_modules, float(ambient_c))
        return RadiatorOperatingPoint(
            solution=solution,
            decay_per_m=0.0,
            surface_temps_c=surface,
            sink_temps_c=sink,
            delta_t_k=surface - sink,
            ambient_c=float(ambient_c),
        )


register_boundary(Radiator)
