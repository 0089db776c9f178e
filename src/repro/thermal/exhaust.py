"""Exhaust-gas waste-heat recovery boundary (arXiv 1708.02920 regime).

An automotive/industrial exhaust duct with TEG modules mounted in
series along the flow: hot combustion gas sweeps the module hot faces
through a gas-side convection film while a liquid cold loop holds the
cold faces near ambient.  Unlike the radiator's effectiveness-NTU core,
the gas-side physics here is *temperature dependent* — the gas specific
heat and the convective conductance both drift with the local gas
temperature, so every module segment is solved with properties
evaluated at its own upstream gas state, per sample.

The model marches the gas temperature module by module (a 1-D
finite-volume sweep): segment ``j`` sees gas at ``T_g[j]``, computes
its local ``cp(T)``/``UA(T)``, extracts duty through the series
gas-film → module → cold-film conductance path and cools the gas by
``q / C_gas`` before segment ``j+1``.  All per-sample math inside the
march is vectorised over the whole trace — :meth:`solve_trace` touches
Python once per *module*, never per sample — which is what the
``benchmarks/bench_boundary.py`` ≥3x gate measures against the scalar
per-sample reference.  What does not change along the duct (the
flow-scaled film conductances, the module and cold-film resistances)
is computed once before the march, and ``t_gas - t_ref`` once per
module; operand order is unchanged, so the values are bitwise those of
the unhoisted march.

Mapped onto the generic :class:`~repro.thermal.boundary.ThermalBoundary`
trace columns: the *hot stream* is the exhaust gas (inlet temperature +
mass flow) and the *cold stream* is the cold-loop coolant (ambient
temperature = cold-loop supply temperature, plus its mass flow).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.errors import ModelParameterError
from repro.thermal.boundary import (
    BoundaryTraceSolution,
    ThermalBoundary,
    register_boundary,
)
from repro.units import require_positive


@dataclass(frozen=True)
class ExhaustGasBoundary(ThermalBoundary):
    """Series TEG chain in an exhaust duct with a liquid cold loop.

    Parameters
    ----------
    cp_ref_j_kg_k:
        Gas specific heat at the reference temperature.
    cp_coeff_per_k:
        Linear temperature coefficient of the gas specific heat:
        ``cp(T) = cp_ref * (1 + cp_coeff * (T - t_ref))``.
    t_ref_c:
        Reference temperature of the property fits.
    ua_gas_ref_w_k:
        Gas-film conductance of one module segment at the reference
        gas flow and temperature.
    gas_ref_flow_kg_s, gas_flow_exponent:
        Flow scaling of the gas film:
        ``UA_gas ∝ (m_dot / ref) ** exponent`` (0.8 = turbulent
        internal convection).
    ua_temp_coeff_per_k:
        Linear temperature coefficient of the gas film (gas thermal
        conductivity rises with temperature).
    module_conductance_w_k:
        Through-module thermal conductance (ceramic + couples); the
        share of the gas-to-coolant drop this keeps is the TEG's
        working ``delta_t``.
    ua_cold_w_k, cold_ref_flow_kg_s, cold_flow_exponent:
        Cold-plate film conductance per module and its flow scaling.
    """

    cp_ref_j_kg_k: float = 1100.0
    cp_coeff_per_k: float = 3.0e-4
    t_ref_c: float = 300.0
    ua_gas_ref_w_k: float = 8.0
    gas_ref_flow_kg_s: float = 0.08
    gas_flow_exponent: float = 0.8
    ua_temp_coeff_per_k: float = 5.0e-4
    module_conductance_w_k: float = 3.0
    ua_cold_w_k: float = 20.0
    cold_ref_flow_kg_s: float = 0.5
    cold_flow_exponent: float = 0.8

    boundary_type = "exhaust-gas"

    def __post_init__(self) -> None:
        require_positive(self.cp_ref_j_kg_k, "cp_ref_j_kg_k")
        require_positive(self.ua_gas_ref_w_k, "ua_gas_ref_w_k")
        require_positive(self.gas_ref_flow_kg_s, "gas_ref_flow_kg_s")
        require_positive(self.module_conductance_w_k, "module_conductance_w_k")
        require_positive(self.ua_cold_w_k, "ua_cold_w_k")
        require_positive(self.cold_ref_flow_kg_s, "cold_ref_flow_kg_s")

    # ------------------------------------------------------------------
    # ThermalBoundary serialisation contract
    # ------------------------------------------------------------------
    def params_dict(self):
        return {name: float(value) for name, value in asdict(self).items()}

    @classmethod
    def from_params_dict(cls, params) -> "ExhaustGasBoundary":
        return cls(**{name: float(value) for name, value in params.items()})

    # ------------------------------------------------------------------
    # The thermal contract
    # ------------------------------------------------------------------
    def solve_trace(
        self,
        hot_inlet_c: np.ndarray,
        hot_flow_kg_s: np.ndarray,
        ambient_c: np.ndarray,
        cold_flow_kg_s: np.ndarray,
        n_modules: int,
    ) -> BoundaryTraceSolution:
        """March the gas down the module chain, vectorised over samples.

        Row-wise elementwise by construction: every array op combines
        same-row values only, so a length-1 solve is bit-identical to
        the corresponding row of a batched solve (the protocol's
        scalar/batched parity contract).
        """
        inlet = np.asarray(hot_inlet_c, dtype=float)
        gas_flow = np.asarray(hot_flow_kg_s, dtype=float)
        ambient = np.asarray(ambient_c, dtype=float)
        cold_flow = np.asarray(cold_flow_kg_s, dtype=float)
        for label, arr in (
            ("hot_flow_kg_s", gas_flow),
            ("ambient_c", ambient),
            ("cold_flow_kg_s", cold_flow),
        ):
            if arr.shape != inlet.shape or inlet.ndim != 1:
                raise ModelParameterError(
                    f"{label} must match hot_inlet_c in shape, got "
                    f"{arr.shape} vs {inlet.shape}"
                )
        if n_modules < 1:
            raise ModelParameterError(
                f"n_modules must be >= 1, got {n_modules}"
            )
        n = inlet.size
        surface = np.empty((n, n_modules))
        sink = np.empty((n, n_modules))

        # Flow scalings are temperature independent — hoisted out of
        # the module march.
        ua_gas_flow = self.ua_gas_ref_w_k * (
            gas_flow / self.gas_ref_flow_kg_s
        ) ** self.gas_flow_exponent
        ua_cold = self.ua_cold_w_k * (
            cold_flow / self.cold_ref_flow_kg_s
        ) ** self.cold_flow_exponent

        # So are the module and cold-film resistances of the series
        # path.
        inv_module = 1.0 / self.module_conductance_w_k
        inv_cold = 1.0 / ua_cold

        t_gas = inlet.copy()
        for j in range(n_modules):
            # Gas properties at this segment's upstream state.
            t_excess = t_gas - self.t_ref_c
            cp = self.cp_ref_j_kg_k * (1.0 + self.cp_coeff_per_k * t_excess)
            c_gas = gas_flow * cp
            ua_gas = ua_gas_flow * (1.0 + self.ua_temp_coeff_per_k * t_excess)
            # Series path: gas film -> module -> cold film.
            ua_total = 1.0 / (1.0 / ua_gas + inv_module + inv_cold)
            eps = 1.0 - np.exp(-ua_total / c_gas)
            q = eps * c_gas * (t_gas - ambient)
            surface[:, j] = t_gas - q / ua_gas
            sink[:, j] = ambient + q / ua_cold
            t_gas = t_gas - q / c_gas

        # Degenerate fill for samples with no thermal gradient (gas at
        # or below the cold-loop temperature): flat zero-duty profile,
        # matching the radiator's cold-start convention.  Row-wise
        # np.where keeps scalar/batched bit-identity.
        active = inlet > ambient + 0.05
        mask = active[:, None]
        surface = np.where(mask, surface, inlet[:, None])
        sink = np.where(mask, sink, ambient[:, None])

        return BoundaryTraceSolution(
            surface_temps_c=surface,
            sink_temps_c=sink,
            delta_t_k=surface - sink,
            ambient_c=ambient.copy(),
            active=active,
        )


register_boundary(ExhaustGasBoundary)
