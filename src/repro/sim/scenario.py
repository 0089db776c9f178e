"""The canonical experiment scenario (the paper's evaluation platform).

Bundles every component the experiments share — the TGM-199-1.4-0.8
module, the 100-module chain, the calibrated radiator, the 800-second
Porter-II trace, the LTM4607-class charger with the 13.8 V lead-acid
bus, the switching-overhead model and the four policies — so that
examples, tests and benchmarks all run the *same* system and differ
only in what they measure.

Beyond the paper's platform, :class:`ScenarioRegistry` names the other
workloads the batch engine fans out over — an NEDC-style certification
drive, a cold start, a boiler-scale economiser and a degraded-sensing
fault-injection variant — so examples, benchmarks and the
``repro batch`` CLI all build them from one place instead of
hand-rolling setups.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.baseline import grid_for_square_array
from repro.core.controller import (
    DNORPolicy,
    PeriodicPolicy,
    ReconfigurationPolicy,
    StaticPolicy,
)
from repro.core.dnor import DNORPlanner
from repro.core.overhead import SwitchingOverheadModel
from repro.power.battery import LeadAcidBattery
from repro.power.charger import TEGCharger
from repro.power.converter import BuckBoostConverter
from repro.errors import ConfigurationError
from repro.prediction.mlr import MLRPredictor
from repro.sim.simulator import HarvestSimulator
from repro.teg.datasheet import TGM_199_1_4_0_8
from repro.teg.model import (
    ModuleModel,
    module_model_from_json_dict,
    module_model_to_json_dict,
)
from repro.teg.segmented import ModuleSegment, SegmentedModule, hybrid_module
from repro.thermal.boundary import (
    ThermalBoundary,
    boundary_from_json_dict,
    boundary_to_json_dict,
)
from repro.thermal.coolant import AIR, WATER
from repro.thermal.coupling import FiniteCouplingBoundary
from repro.thermal.exhaust import ExhaustGasBoundary
from repro.thermal.heat_exchanger import CrossFlowHeatExchanger, UAModel
from repro.thermal.radiator import Radiator, RadiatorGeometry
from repro.vehicle.drive_cycle import synthetic_nedc, synthetic_urban
from repro.vehicle.engine import EngineModel
from repro.vehicle.sensors import ModuleTemperatureScanner
from repro.teg.materials import (
    BISMUTH_TELLURIDE,
    LEAD_TELLURIDE,
    SKUTTERUDITE,
)
from repro.vehicle.trace import (
    RadiatorTrace,
    build_trace,
    default_radiator,
    porter_ii_trace,
)

#: Version tag of the scenario JSON layout; bumped on breaking changes
#: so a shard manifest written by a newer library is refused instead of
#: silently misread.  v2 wrapped the thermal model in a tagged
#: ``"boundary": {"type": ..., "params": ...}`` envelope; v3 does the
#: same for the module — ``"module": {"type": ..., "params": ...}``
#: behind the :mod:`repro.teg.model` registry.  Only the current
#: version loads; any other is refused with a message naming it.
SCENARIO_FORMAT_VERSION = 3

#: The four schemes of the paper's Table I, in table order.
POLICY_NAMES = ("DNOR", "INOR", "EHTR", "Baseline")

#: Trace columns serialised into the JSON form (every array field).
_TRACE_COLUMNS = (
    "time_s",
    "coolant_inlet_c",
    "coolant_flow_kg_s",
    "air_flow_kg_s",
    "ambient_c",
    "speed_mps",
    "coolant_inlet_sensed_c",
    "coolant_flow_sensed_kg_s",
)

_OVERHEAD_FIELDS = (
    "sensing_delay_s",
    "reconfiguration_delay_s",
    "mppt_settle_s",
    "per_toggle_energy_j",
    "compute_staleness_factor",
)


def _encode_array(arr: np.ndarray) -> str:
    """Base64 of the raw little-endian float64 bytes — loss-free.

    Scalar JSON floats round-trip exactly too (Python emits the
    shortest repr that parses back to the same double), but a decimal
    rendering of a whole trace would be ~3x the size and slower to
    parse, so arrays travel as raw bytes.
    """
    data = np.ascontiguousarray(arr, dtype="<f8")
    return base64.b64encode(data.tobytes()).decode("ascii")


def _decode_array(text: str) -> np.ndarray:
    """Inverse of :func:`_encode_array` (a fresh writable array)."""
    raw = base64.b64decode(text.encode("ascii"))
    return np.frombuffer(raw, dtype="<f8").astype(float)


@dataclass
class Scenario:
    """A complete, reproducible experiment setup.

    Attributes
    ----------
    module:
        The shared TEG module model.
    n_modules:
        Chain length (100 in the paper).
    boundary:
        The thermal-boundary model (any registered
        :class:`~repro.thermal.boundary.ThermalBoundary`; the paper's
        platform uses the radiator).
    trace:
        Boundary conditions over the run.
    overhead:
        Switching-bill model.
    tp_seconds:
        DNOR prediction horizon.
    control_period_s:
        INOR/EHTR reconfiguration period (0.5 s per the paper).
    sensor_seed:
        Seed for the module-temperature scanner.
    scanner_noise_std_k:
        Per-module scanner reading noise (1 sigma, kelvin); an axis of
        the batch engine's experiment grids.
    nominal_compute_s:
        Optional fixed compute time for deterministic overhead bills.
    """

    module: ModuleModel
    n_modules: int
    boundary: ThermalBoundary
    trace: RadiatorTrace
    overhead: SwitchingOverheadModel = field(default_factory=SwitchingOverheadModel)
    tp_seconds: float = 1.0
    control_period_s: float = 0.5
    sensor_seed: int = 99
    scanner_noise_std_k: float = 0.08
    nominal_compute_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Component factories (fresh instances per run, so schemes never
    # share mutable state)
    # ------------------------------------------------------------------
    def make_charger(self, with_battery: bool = True) -> TEGCharger:
        """A fresh charger (converter + optional battery)."""
        battery = LeadAcidBattery() if with_battery else None
        return TEGCharger(converter=BuckBoostConverter(), battery=battery)

    def make_scanner(self) -> ModuleTemperatureScanner:
        """A fresh, seeded module-temperature scanner."""
        return ModuleTemperatureScanner(
            noise_std_k=self.scanner_noise_std_k, seed=self.sensor_seed
        )

    def make_simulator(self, physics=None, cache=None) -> HarvestSimulator:
        """The simulator bound to this scenario's physics.

        Parameters
        ----------
        physics:
            Optionally inject a shared
            :class:`~repro.sim.physics.TracePhysics` precompute (it
            must describe this scenario's trace/boundary/module/chain)
            so several simulators over the same scenario skip the
            redundant solve; by default each simulator computes its
            own lazily.
        cache:
            Optional :class:`~repro.sim.cache.PhysicsCache` the
            simulator's lazy precompute consults, so content-equal
            scenarios (grid variants, repeated builds) share one
            boundary solve.  Ignored when ``physics`` is given.
        """
        return HarvestSimulator(
            trace=self.trace,
            boundary=self.boundary,
            module=self.module,
            n_modules=self.n_modules,
            overhead=self.overhead,
            scanner=self.make_scanner(),
            nominal_compute_s=self.nominal_compute_s,
            physics=physics,
            cache=cache,
        )

    def physics_fingerprint(self) -> str:
        """Content fingerprint of this scenario's physics inputs.

        Two scenarios with equal fingerprints share one
        :class:`~repro.sim.cache.PhysicsCache` entry (policy, charger
        and scanner settings deliberately do not enter the key — they
        cannot change the physics).
        """
        from repro.sim.cache import physics_fingerprint

        return physics_fingerprint(
            self.trace, self.boundary, self.module, self.n_modules
        )

    # ------------------------------------------------------------------
    # Loss-free JSON round trip (the shard manifest format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary reproducing this scenario exactly.

        Everything the scenario carries is serialised by *value* — the
        module material, the thermal boundary's full parameter dict
        behind its registered type tag, every trace column (as raw
        float64 bytes, base64), the overhead model and all control
        knobs — so :meth:`from_json_dict` on any host rebuilds a
        scenario whose physics fingerprint, simulation results and
        policy decisions are bit-identical (pinned in
        ``tests/test_sim_shard.py`` for every registry scenario).
        Scalars travel as plain JSON numbers, which round-trip float64
        exactly.
        """
        trace = self.trace
        return {
            "format_version": SCENARIO_FORMAT_VERSION,
            "module": module_model_to_json_dict(self.module),
            "n_modules": int(self.n_modules),
            "boundary": boundary_to_json_dict(self.boundary),
            "trace": {
                "name": trace.name,
                "columns": {
                    column: _encode_array(getattr(trace, column))
                    for column in _TRACE_COLUMNS
                },
            },
            "overhead": {
                name: float(getattr(self.overhead, name))
                for name in _OVERHEAD_FIELDS
            },
            "tp_seconds": float(self.tp_seconds),
            "control_period_s": float(self.control_period_s),
            "sensor_seed": int(self.sensor_seed),
            "scanner_noise_std_k": float(self.scanner_noise_std_k),
            "nominal_compute_s": (
                None
                if self.nominal_compute_s is None
                else float(self.nominal_compute_s)
            ),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json_dict` output.

        Reads the current (v3) layout with its tagged ``"boundary"``
        and ``"module"`` envelopes; any other ``format_version`` raises
        :class:`~repro.errors.ConfigurationError`.  Keys it does not
        read are ignored, among them the INOR kernel choice that older
        v3 files carry (it never changed a decision).
        """
        version = data.get("format_version")
        if version != SCENARIO_FORMAT_VERSION:
            raise ConfigurationError(
                f"unsupported scenario format version {version!r} "
                f"(this library reads version {SCENARIO_FORMAT_VERSION})"
            )
        boundary = boundary_from_json_dict(data["boundary"])
        module = module_model_from_json_dict(data["module"])
        trace_data = data["trace"]
        trace = RadiatorTrace(
            name=str(trace_data["name"]),
            **{
                column: _decode_array(trace_data["columns"][column])
                for column in _TRACE_COLUMNS
            },
        )
        nominal = data["nominal_compute_s"]
        return cls(
            module=module,
            n_modules=int(data["n_modules"]),
            boundary=boundary,
            trace=trace,
            overhead=SwitchingOverheadModel(**data["overhead"]),
            tp_seconds=float(data["tp_seconds"]),
            control_period_s=float(data["control_period_s"]),
            sensor_seed=int(data["sensor_seed"]),
            scanner_noise_std_k=float(data["scanner_noise_std_k"]),
            nominal_compute_s=None if nominal is None else float(nominal),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialised :meth:`to_json_dict` (strict JSON, no NaN tokens)."""
        return json.dumps(self.to_json_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        return cls.from_json_dict(json.loads(text))

    # ------------------------------------------------------------------
    # The four schemes of the paper's evaluation
    # ------------------------------------------------------------------
    def make_inor_policy(self) -> PeriodicPolicy:
        """INOR at the fixed control period."""
        return PeriodicPolicy(
            module=self.module,
            algorithm="inor",
            period_s=self.control_period_s,
            charger=self.make_charger(with_battery=False),
        )

    def make_ehtr_policy(self) -> PeriodicPolicy:
        """EHTR (prior work) at the fixed control period."""
        return PeriodicPolicy(
            module=self.module,
            algorithm="ehtr",
            period_s=self.control_period_s,
        )

    def make_dnor_policy(self, predictor=None, refit: str = "full") -> DNORPolicy:
        """DNOR with the paper's MLR predictor (or a supplied one).

        Parameters
        ----------
        predictor:
            Any :class:`repro.prediction.base.LagSeriesPredictor`;
            defaults to the paper's choice, MLR.  Supplying BPNN or SVR
            reproduces the predictor-selection ablation.
        refit:
            Predictor refit strategy per epoch — ``"full"`` (default,
            the pinned batch behaviour) or ``"incremental"`` (windowed
            normal-equation updates, the streaming service's hot
            path).  Not a serialised scenario field: the offline
            decision sequence is compared like-for-like against the
            online one under whichever mode both use.
        """
        planner = DNORPlanner(
            module=self.module,
            charger=self.make_charger(with_battery=False),
            overhead=self.overhead,
            predictor=predictor if predictor is not None else MLRPredictor(),
            tp_seconds=self.tp_seconds,
            sample_dt_s=self.trace.dt_s,
            nominal_compute_s=self.nominal_compute_s,
            refit=refit,
        )
        return DNORPolicy(planner)

    def make_baseline_policy(self) -> StaticPolicy:
        """The static sqrt(N) x sqrt(N) grid baseline."""
        return StaticPolicy(grid_for_square_array(self.n_modules))

    def make_policy(
        self, name: str, refit: str = "full"
    ) -> ReconfigurationPolicy:
        """One scheme by its Table I name (``refit`` applies to DNOR).

        Raises
        ------
        ConfigurationError
            If ``name`` is not one of the four schemes.
        """
        if name == "DNOR":
            return self.make_dnor_policy(refit=refit)
        if name == "INOR":
            return self.make_inor_policy()
        if name == "EHTR":
            return self.make_ehtr_policy()
        if name == "Baseline":
            return self.make_baseline_policy()
        raise ConfigurationError(
            f"unknown policy {name!r} (expected {'/'.join(POLICY_NAMES)})"
        )

    def make_policies(self) -> Dict[str, ReconfigurationPolicy]:
        """All four schemes, keyed by their Table I names."""
        return {name: self.make_policy(name) for name in POLICY_NAMES}


def default_scenario(
    duration_s: float = 800.0,
    seed: int = 2018,
    n_modules: int = 100,
    tp_seconds: float = 1.0,
    nominal_compute_s: Optional[float] = None,
) -> Scenario:
    """The paper's evaluation setup: 100 modules, 800 s, 0.5 s period."""
    radiator = default_radiator()
    trace = porter_ii_trace(duration_s=duration_s, seed=seed, radiator=radiator)
    return Scenario(
        module=TGM_199_1_4_0_8,
        n_modules=n_modules,
        boundary=radiator,
        trace=trace,
        tp_seconds=tp_seconds,
        sensor_seed=seed + 77,
        nominal_compute_s=nominal_compute_s,
    )


# ----------------------------------------------------------------------
# Named scenarios
# ----------------------------------------------------------------------
#: Registry-built scenarios bill reconfigurations at this fixed compute
#: time (the Table-I millisecond scale) instead of the measured
#: wall-clock, so batch-engine results are bit-reproducible across
#: machines, workers and repeated runs — the engine's determinism
#: contract.  Build a :class:`Scenario` directly (or override the
#: field) to study measured-runtime billing.
REGISTRY_NOMINAL_COMPUTE_S = 2.0e-3

#: Builder signature: ``builder(duration_s, seed, n_modules)`` where any
#: argument may be ``None`` to use the scenario's own default.
ScenarioBuilder = Callable[
    [Optional[float], Optional[int], Optional[int]], Scenario
]


class ScenarioRegistry:
    """Named, reproducible experiment setups.

    The registry is how the batch engine and the ``repro batch`` CLI
    talk about workloads: a scenario name plus ``(duration, seed,
    n_modules)`` fully determines a :class:`Scenario`, so an experiment
    grid is just a list of names.
    """

    def __init__(self) -> None:
        self._builders: Dict[str, Tuple[ScenarioBuilder, str]] = {}

    def register(
        self, name: str, builder: ScenarioBuilder, description: str
    ) -> None:
        """Add (or replace) a named scenario builder."""
        if not name:
            raise ConfigurationError("scenario name must be non-empty")
        self._builders[name] = (builder, description)

    def names(self) -> Tuple[str, ...]:
        """Registered scenario names, in registration order."""
        return tuple(self._builders)

    def describe(self) -> Dict[str, str]:
        """Mapping of scenario name to one-line description."""
        return {name: desc for name, (_, desc) in self._builders.items()}

    def build(
        self,
        name: str,
        duration_s: Optional[float] = None,
        seed: Optional[int] = None,
        n_modules: Optional[int] = None,
    ) -> Scenario:
        """Build a registered scenario, overriding its defaults."""
        if name not in self._builders:
            raise ConfigurationError(
                f"unknown scenario {name!r} "
                f"(registered: {', '.join(self._builders) or 'none'})"
            )
        builder, _ = self._builders[name]
        return builder(duration_s, seed, n_modules)


def _build_porter_ii(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    return default_scenario(
        duration_s=800.0 if duration_s is None else duration_s,
        seed=2018 if seed is None else seed,
        n_modules=100 if n_modules is None else n_modules,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


def _build_nedc_drive(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    duration = 1180.0 if duration_s is None else float(duration_s)
    seed = 2018 if seed is None else int(seed)
    radiator = default_radiator()
    cycle = synthetic_nedc(duration_s=duration, seed=seed)
    trace = build_trace(
        cycle,
        EngineModel(radiator),
        sensor_seed=seed + 13,
        name=f"nedc-{int(duration)}s-seed{seed}",
    )
    return Scenario(
        module=TGM_199_1_4_0_8,
        n_modules=100 if n_modules is None else n_modules,
        boundary=radiator,
        trace=trace,
        sensor_seed=seed + 77,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


def _build_cold_start(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    duration = 300.0 if duration_s is None else float(duration_s)
    seed = 77 if seed is None else int(seed)
    radiator = default_radiator()
    cycle = synthetic_urban(duration_s=duration, seed=seed)
    # Overnight soak: thermostat initially closed, coolant at ambient.
    engine = EngineModel(radiator, start_temp_c=21.0)
    trace = build_trace(
        cycle,
        engine,
        sensor_seed=seed + 1,
        name=f"cold-start-{int(duration)}s-seed{seed}",
    )
    return Scenario(
        module=TGM_199_1_4_0_8,
        n_modules=100 if n_modules is None else n_modules,
        boundary=radiator,
        trace=trace,
        sensor_seed=seed + 2,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


def boiler_radiator(path_length_m: float = 6.0) -> Radiator:
    """A boiler-economiser "radiator": feedwater tubes in a flue duct.

    Same 1-D surface model as the truck radiator, scaled to economiser
    conductances and path length — the "larger scale systems such as
    industrial boilers" regime of the paper's outlook section.
    """
    geometry = RadiatorGeometry(path_length_m=path_length_m, n_rows=20)
    ua_model = UAModel(
        hot_conductance_ref_w_k=12000.0,
        cold_conductance_ref_w_k=6000.0,
        hot_ref_flow_kg_s=0.9,
        cold_ref_flow_kg_s=2.5,
        wall_resistance_k_w=1.0e-5,
    )
    return Radiator(
        geometry=geometry,
        exchanger=CrossFlowHeatExchanger(ua_model),
        coolant=WATER,
        air=AIR,
        sink_preheat_fraction=0.5,
    )


def industrial_boiler_trace(
    duration_s: float = 400.0, seed: int = 2018, dt_s: float = 0.5
) -> RadiatorTrace:
    """Boundary conditions of a boiler economiser under load swings.

    No vehicle in the loop: the feedwater inlet follows slow firing-
    rate oscillations with stochastic load steps, and the sensed
    columns carry plant-instrumentation noise.  Deterministic for a
    given ``(duration_s, seed)``.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s / dt_s)) + 1
    time_s = np.arange(n) * dt_s

    # Firing-rate setpoint: piecewise-constant load steps every ~2 min,
    # low-pass filtered to boiler-thermal-mass time scales.
    setpoint = np.empty(n)
    level = 150.0 + float(rng.uniform(-5.0, 5.0))
    step_every = max(int(round(120.0 / dt_s)), 1)
    for i in range(n):
        if i % step_every == 0 and i > 0:
            level = float(np.clip(level + rng.uniform(-12.0, 12.0), 130.0, 170.0))
        setpoint[i] = level
    inlet = np.empty(n)
    state = setpoint[0]
    blend = dt_s / 45.0  # ~45 s economiser inlet time constant
    for i in range(n):
        state += (setpoint[i] - state) * blend
        inlet[i] = state
    inlet = inlet + 1.5 * np.sin(2.0 * np.pi * time_s / 90.0)

    flow = 0.9 + 0.04 * np.sin(2.0 * np.pi * time_s / 150.0)
    air_flow = 2.5 + 0.1 * np.sin(2.0 * np.pi * time_s / 60.0 + 1.0)
    ambient = np.full(n, 32.0)

    return RadiatorTrace(
        time_s=time_s,
        coolant_inlet_c=inlet,
        coolant_flow_kg_s=flow,
        air_flow_kg_s=air_flow,
        ambient_c=ambient,
        speed_mps=np.zeros(n),
        coolant_inlet_sensed_c=inlet + rng.normal(0.0, 0.4, n),
        coolant_flow_sensed_kg_s=np.maximum(
            flow + rng.normal(0.0, 0.008, n), 1.0e-4
        ),
        name=f"industrial-boiler-{int(duration_s)}s-seed{seed}",
    )


def _build_industrial_boiler(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    duration = 400.0 if duration_s is None else float(duration_s)
    seed = 2018 if seed is None else int(seed)
    return Scenario(
        module=TGM_199_1_4_0_8,
        n_modules=144 if n_modules is None else n_modules,
        boundary=boiler_radiator(),
        trace=industrial_boiler_trace(duration_s=duration, seed=seed),
        sensor_seed=seed + 77,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


def exhaust_gas_trace(
    duration_s: float = 600.0, seed: int = 2018, dt_s: float = 0.5
) -> RadiatorTrace:
    """Boundary conditions of an exhaust-duct TEG chain under load.

    The generic trace columns carry the exhaust-gas domain's streams:
    ``coolant_inlet_c`` is the *gas* temperature entering the duct
    (250–450 °C following engine-load steps filtered to turbo/manifold
    time scales), ``coolant_flow_kg_s`` the gas mass flow (rises with
    load), ``ambient_c`` the cold-loop supply temperature and
    ``air_flow_kg_s`` the cold-loop mass flow.  Sensed columns carry
    exhaust-instrumentation noise (thermocouples in hot gas are far
    noisier than coolant probes).  Deterministic for a given
    ``(duration_s, seed)``.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s / dt_s)) + 1
    time_s = np.arange(n) * dt_s

    # Engine-load setpoint: steps every ~45 s, low-pass filtered to the
    # exhaust-manifold thermal time constant (~20 s).
    setpoint = np.empty(n)
    level = 380.0 + float(rng.uniform(-30.0, 30.0))
    step_every = max(int(round(45.0 / dt_s)), 1)
    for i in range(n):
        if i % step_every == 0 and i > 0:
            level = float(
                np.clip(level + rng.uniform(-60.0, 60.0), 250.0, 450.0)
            )
        setpoint[i] = level
    inlet = np.empty(n)
    state = setpoint[0]
    blend = dt_s / 20.0
    for i in range(n):
        state += (setpoint[i] - state) * blend
        inlet[i] = state
    inlet = inlet + 4.0 * np.sin(2.0 * np.pi * time_s / 30.0)

    # Gas flow tracks load; cold loop is a pump with a small ripple.
    gas_flow = 0.05 + 2.5e-4 * (inlet - 250.0) + 0.004 * np.sin(
        2.0 * np.pi * time_s / 25.0 + 0.7
    )
    cold_flow = 0.5 + 0.05 * np.sin(2.0 * np.pi * time_s / 80.0)
    ambient = np.full(n, 35.0)

    return RadiatorTrace(
        time_s=time_s,
        coolant_inlet_c=inlet,
        coolant_flow_kg_s=gas_flow,
        air_flow_kg_s=cold_flow,
        ambient_c=ambient,
        speed_mps=np.zeros(n),
        coolant_inlet_sensed_c=inlet + rng.normal(0.0, 2.0, n),
        coolant_flow_sensed_kg_s=np.maximum(
            gas_flow + rng.normal(0.0, 0.002, n), 1.0e-4
        ),
        name=f"exhaust-gas-{int(duration_s)}s-seed{seed}",
    )


def _build_exhaust_gas(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    duration = 600.0 if duration_s is None else float(duration_s)
    seed = 2018 if seed is None else int(seed)
    return Scenario(
        module=TGM_199_1_4_0_8,
        n_modules=64 if n_modules is None else n_modules,
        boundary=ExhaustGasBoundary(),
        trace=exhaust_gas_trace(duration_s=duration, seed=seed),
        sensor_seed=seed + 77,
        scanner_noise_std_k=0.3,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


#: Three-stage segmented chain for the exhaust duct: skutterudite at
#: the hot face, lead telluride mid-stack, bismuth telluride on the
#: cold plate — 240 couples total, matching the high-gradient regime of
#: Gaurav & Pandey (arXiv 1708.02920).
SEGMENTED_EXHAUST_MODULE = SegmentedModule(
    name="SEG-3-EXHAUST",
    segments=(
        ModuleSegment(material=SKUTTERUDITE, n_couples=100),
        ModuleSegment(material=LEAD_TELLURIDE, n_couples=80),
        ModuleSegment(material=BISMUTH_TELLURIDE, n_couples=60),
    ),
)

#: Two-segment hybrid for the steel-industry flue: a lead-telluride
#: bank takes 60% of the module temperature drop at the hot face,
#: bismuth telluride finishes the chain (arXiv 1603.02883's hybrid
#: arrangement).
STEEL_HYBRID_MODULE = hybrid_module(
    name="HYB-2-STEEL",
    hot_material=LEAD_TELLURIDE,
    cold_material=BISMUTH_TELLURIDE,
    n_couples_hot=140,
    n_couples_cold=100,
    hot_fraction=0.6,
)


def _build_segmented_exhaust(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    duration = 600.0 if duration_s is None else float(duration_s)
    seed = 2018 if seed is None else int(seed)
    trace = exhaust_gas_trace(duration_s=duration, seed=seed)
    # Distinct trace name: grid case names are trace-derived, and this
    # scenario shares the exhaust-gas boundary conditions by design.
    trace = dataclasses.replace(
        trace, name=f"segmented-exhaust-{int(duration)}s-seed{seed}"
    )
    return Scenario(
        module=SEGMENTED_EXHAUST_MODULE,
        n_modules=64 if n_modules is None else n_modules,
        boundary=ExhaustGasBoundary(),
        trace=trace,
        sensor_seed=seed + 77,
        scanner_noise_std_k=0.3,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


def steel_flue_trace(
    duration_s: float = 500.0, seed: int = 2018, dt_s: float = 0.5
) -> RadiatorTrace:
    """Boundary conditions of a steel-plant flue TEG bank.

    The reheating-furnace regime of arXiv 1603.02883: flue gas entering
    at 450–600 °C following slow charge/discharge cycles of the
    furnace, much higher gas mass flow than a vehicle duct, and a
    water-cooled cold loop.  Columns carry the exhaust-gas domain's
    streams (gas temperature/flow in the coolant columns, cold loop in
    the ambient/air columns).  Deterministic for a given
    ``(duration_s, seed)``.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s / dt_s)) + 1
    time_s = np.arange(n) * dt_s

    # Furnace charge cycles: load steps every ~90 s, filtered to the
    # flue-duct thermal time constant (~35 s).
    setpoint = np.empty(n)
    level = 520.0 + float(rng.uniform(-25.0, 25.0))
    step_every = max(int(round(90.0 / dt_s)), 1)
    for i in range(n):
        if i % step_every == 0 and i > 0:
            level = float(
                np.clip(level + rng.uniform(-50.0, 50.0), 450.0, 600.0)
            )
        setpoint[i] = level
    inlet = np.empty(n)
    state = setpoint[0]
    blend = dt_s / 35.0
    for i in range(n):
        state += (setpoint[i] - state) * blend
        inlet[i] = state
    inlet = inlet + 3.0 * np.sin(2.0 * np.pi * time_s / 70.0)

    # Flue fan runs near-constant; cold loop is a plant water circuit.
    gas_flow = 0.30 + 2.0e-4 * (inlet - 450.0) + 0.01 * np.sin(
        2.0 * np.pi * time_s / 40.0 + 0.4
    )
    cold_flow = 1.0 + 0.06 * np.sin(2.0 * np.pi * time_s / 110.0)
    ambient = np.full(n, 30.0)

    return RadiatorTrace(
        time_s=time_s,
        coolant_inlet_c=inlet,
        coolant_flow_kg_s=gas_flow,
        air_flow_kg_s=cold_flow,
        ambient_c=ambient,
        speed_mps=np.zeros(n),
        coolant_inlet_sensed_c=inlet + rng.normal(0.0, 2.5, n),
        coolant_flow_sensed_kg_s=np.maximum(
            gas_flow + rng.normal(0.0, 0.004, n), 1.0e-4
        ),
        name=f"steel-flue-{int(duration_s)}s-seed{seed}",
    )


def steel_flue_boundary() -> ExhaustGasBoundary:
    """An exhaust-gas boundary scaled to a steel-plant flue duct.

    Higher reference gas flow and duct conductance than the vehicle
    exhaust defaults, a hotter property reference point, and a
    water-cooled cold side.
    """
    return ExhaustGasBoundary(
        t_ref_c=500.0,
        ua_gas_ref_w_k=14.0,
        gas_ref_flow_kg_s=0.30,
        module_conductance_w_k=3.5,
        ua_cold_w_k=35.0,
        cold_ref_flow_kg_s=1.0,
    )


def _build_steel_hybrid(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    duration = 500.0 if duration_s is None else float(duration_s)
    seed = 2018 if seed is None else int(seed)
    return Scenario(
        module=STEEL_HYBRID_MODULE,
        n_modules=49 if n_modules is None else n_modules,
        boundary=steel_flue_boundary(),
        trace=steel_flue_trace(duration_s=duration, seed=seed),
        sensor_seed=seed + 77,
        scanner_noise_std_k=0.4,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


def _build_finite_coupling(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    duration = 800.0 if duration_s is None else float(duration_s)
    seed = 2018 if seed is None else int(seed)
    radiator = default_radiator()
    trace = porter_ii_trace(duration_s=duration, seed=seed, radiator=radiator)
    # Distinct trace name: grid case names are trace-derived, and this
    # scenario shares porter-ii's boundary conditions by design.
    trace = dataclasses.replace(
        trace, name=f"finite-coupling-{int(duration)}s-seed{seed}"
    )
    return Scenario(
        module=TGM_199_1_4_0_8,
        n_modules=100 if n_modules is None else n_modules,
        boundary=FiniteCouplingBoundary(inner=radiator),
        trace=trace,
        sensor_seed=seed + 77,
        nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
    )


def fault_injected_trace(
    base: RadiatorTrace,
    seed: int = 2018,
    extra_inlet_noise_k: float = 1.5,
    extra_flow_noise_kg_s: float = 0.01,
    stuck_probability: float = 0.02,
    stuck_hold_samples: int = 8,
) -> RadiatorTrace:
    """Degrade a trace's *sensed* columns with instrumentation faults.

    Adds heavy zero-mean noise plus stuck-sensor episodes (the reading
    freezes for ``stuck_hold_samples`` control periods) to the sensed
    coolant temperature and flow.  True columns are untouched — the
    physics stays healthy, only the controller's view degrades.
    """
    rng = np.random.default_rng(seed)
    n = base.n_samples
    inlet = base.coolant_inlet_sensed_c + rng.normal(0.0, extra_inlet_noise_k, n)
    flow = base.coolant_flow_sensed_kg_s + rng.normal(
        0.0, extra_flow_noise_kg_s, n
    )
    stuck_starts = np.flatnonzero(rng.uniform(size=n) < stuck_probability)
    for start in stuck_starts:
        stop = min(start + stuck_hold_samples, n)
        inlet[start:stop] = inlet[start]
        flow[start:stop] = flow[start]
    return dataclasses.replace(
        base,
        coolant_inlet_sensed_c=inlet,
        coolant_flow_sensed_kg_s=np.maximum(flow, 1.0e-4),
        name=f"{base.name}+faults",
    )


def _build_fault_injection(
    duration_s: Optional[float], seed: Optional[int], n_modules: Optional[int]
) -> Scenario:
    base = _build_porter_ii(duration_s, seed, n_modules)
    seed = 2018 if seed is None else int(seed)
    return dataclasses.replace(
        base,
        trace=fault_injected_trace(base.trace, seed=seed + 101),
        scanner_noise_std_k=0.5,
    )


def default_registry() -> ScenarioRegistry:
    """The registry of named scenarios every frontend shares."""
    return _DEFAULT_REGISTRY


def build_named_scenario(
    name: str,
    duration_s: Optional[float] = None,
    seed: Optional[int] = None,
    n_modules: Optional[int] = None,
) -> Scenario:
    """Convenience wrapper over :func:`default_registry`."""
    return _DEFAULT_REGISTRY.build(
        name, duration_s=duration_s, seed=seed, n_modules=n_modules
    )


_DEFAULT_REGISTRY = ScenarioRegistry()
_DEFAULT_REGISTRY.register(
    "porter-ii",
    _build_porter_ii,
    "the paper's platform: 100 modules on the 800 s Porter-II drive",
)
_DEFAULT_REGISTRY.register(
    "nedc-drive",
    _build_nedc_drive,
    "NEDC-style certification drive (4 x ECE-15 urban + EUDC)",
)
_DEFAULT_REGISTRY.register(
    "cold-start",
    _build_cold_start,
    "overnight-soak cold start: coolant climbs from ambient to ~90 degC",
)
_DEFAULT_REGISTRY.register(
    "industrial-boiler",
    _build_industrial_boiler,
    "boiler-economiser bank (144 modules) under firing-rate swings",
)
_DEFAULT_REGISTRY.register(
    "fault-injection",
    _build_fault_injection,
    "Porter-II with stuck/noisy sensing faults injected into the "
    "controller's view",
)
_DEFAULT_REGISTRY.register(
    "exhaust-gas",
    _build_exhaust_gas,
    "exhaust-duct waste-heat chain (64 modules) with "
    "temperature-dependent gas properties",
)
_DEFAULT_REGISTRY.register(
    "finite-coupling",
    _build_finite_coupling,
    "Porter-II radiator behind finite contact conductances "
    "(Apertet-style non-ideal coupling)",
)
_DEFAULT_REGISTRY.register(
    "segmented-exhaust",
    _build_segmented_exhaust,
    "exhaust duct with a 3-stage segmented module chain "
    "(skutterudite / PbTe / Bi2Te3 along the gradient)",
)
_DEFAULT_REGISTRY.register(
    "steel-hybrid",
    _build_steel_hybrid,
    "steel-plant flue bank (49 modules) with a 2-segment "
    "PbTe + Bi2Te3 hybrid module",
)
