"""The closed-loop harvesting simulator.

One simulation step (= one 0.5 s control period) does what the real
platform does:

1. look up the *true* thermal-boundary operating point — the physical
   module temperatures the array actually experiences;
2. look up the operating point at the *sensed* boundary conditions and
   pass the scanned (noise-injected) distribution to the policy;
3. let the policy decide; apply any new configuration through the
   switch fabric and charge the switching bill (downtime at the
   pre-switch power + toggle energy);
4. operate the charger at the configured array's MPP and accumulate
   the delivered power, alongside the ``P_ideal`` reference.

Engine layering (see also :mod:`repro.sim.physics` and
:mod:`repro.sim.engine`): the thermal world is precomputed for the
whole trace by :class:`~repro.sim.physics.TracePhysics`, the step loop
here only sequences the *stateful* parts — sensor noise, policy
decisions, switch fabric — and the electrical series is evaluated in
batched segments of constant configuration through the converter's
row-vector API.  The policy decisions themselves are vectorised too:
INOR builds and scores its whole candidate window as a one-case
partition stack, and DNOR's epoch is a one-lane ``dnor_stack`` call
that scores its horizon energies in one ``array_mpp_rows_multi_stack``
call, both through the one MPP scoring core of
:mod:`repro.teg.network` (INOR bit-identical to its scalar reference
loop, selectable via the scenario's ``inor_kernel``), so no
layer of the engine runs per-sample or per-candidate Python.  The
pre-refactor sample-by-sample path (two boundary solves and a scalar
charger step per sample) is retained as ``engine="reference"`` for
cross-validation and benchmarking.

Runtime accounting wraps every ``decide`` call with a wall-clock
timer; the measured time also feeds the overhead bill (the paper's
"longer runtime always results in a higher timing overhead").  For
bit-reproducible tests a ``nominal_compute_s`` override decouples the
energy numbers from machine speed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.controller import ReconfigurationPolicy
from repro.core.overhead import OverheadEvent, SwitchingOverheadModel
from repro.errors import SimulationError
from repro.power.charger import TEGCharger
from repro.sim.physics import TracePhysics
from repro.sim.results import SimulationResult
from repro.teg.array import TEGArray
from repro.teg.network import array_mpp_rows
from repro.teg.model import ModuleModel
from repro.teg.switches import SwitchFabric
from repro.thermal.boundary import ThermalBoundary
from repro.vehicle.sensors import ModuleTemperatureScanner
from repro.vehicle.trace import RadiatorTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.cache import PhysicsCache

#: Valid values of the ``engine`` constructor argument.
ENGINES = ("batched", "reference")


class HarvestSimulator:
    """Run reconfiguration policies against a boundary-condition trace.

    Parameters
    ----------
    trace:
        The boundary conditions (true + sensed).
    boundary:
        Thermal-boundary model used for both physics and the
        controller's model-derived distribution (any
        :class:`~repro.thermal.boundary.ThermalBoundary`).
    module:
        TEG module model shared by the chain.
    n_modules:
        Chain length.
    overhead:
        Switching-bill model.
    scanner:
        Per-module sensing-noise injector; ``None`` means noiseless.
    nominal_compute_s:
        When set, the overhead bill uses this fixed compute time
        instead of the measured wall-clock (deterministic tests).
    physics:
        Optionally inject a precomputed :class:`TracePhysics` (it must
        describe the same trace/module/chain); by default it is
        computed lazily on the first run and cached, so consecutive
        policy runs share one precompute.
    cache:
        Optional :class:`~repro.sim.cache.PhysicsCache` consulted by
        the lazy precompute instead of calling
        :meth:`TracePhysics.compute` directly, so simulators built at
        different times (or over content-equal scenario variants)
        share one solve.  Ignored when ``physics`` is injected.
    engine:
        ``"batched"`` (default) runs the layered engine —
        trace-physics lookup plus segment-batched electrical math.
        ``"reference"`` runs the pre-refactor per-sample loop (two
        boundary solves per step); it exists for cross-validation and
        benchmarking, not for production use.
    """

    def __init__(
        self,
        trace: RadiatorTrace,
        boundary: ThermalBoundary,
        module: ModuleModel,
        n_modules: int,
        overhead: Optional[SwitchingOverheadModel] = None,
        scanner: Optional[ModuleTemperatureScanner] = None,
        nominal_compute_s: Optional[float] = None,
        physics: Optional[TracePhysics] = None,
        engine: str = "batched",
        cache: Optional["PhysicsCache"] = None,
    ) -> None:
        if n_modules < 1:
            raise SimulationError(f"n_modules must be >= 1, got {n_modules}")
        if engine not in ENGINES:
            raise SimulationError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if physics is not None and (
            physics.trace is not trace
            or physics.boundary is not boundary
            or physics.n_modules != int(n_modules)
            or physics.module is not module
        ):
            raise SimulationError(
                "injected physics does not describe this simulator's "
                "trace/boundary/module/chain"
            )
        self._trace = trace
        self._boundary = boundary
        self._module = module
        self._n_modules = int(n_modules)
        self._overhead = overhead or SwitchingOverheadModel()
        self._scanner = scanner
        self._nominal_compute_s = nominal_compute_s
        self._physics = physics
        self._engine = engine
        self._cache = cache

    @property
    def trace(self) -> RadiatorTrace:
        """The driving trace."""
        return self._trace

    @property
    def n_modules(self) -> int:
        """Chain length."""
        return self._n_modules

    @property
    def engine(self) -> str:
        """Active engine mode (``"batched"`` or ``"reference"``)."""
        return self._engine

    @property
    def physics(self) -> TracePhysics:
        """The trace-level physics precompute (computed once, cached)."""
        if self._physics is None:
            if self._cache is not None:
                self._physics = self._cache.get_or_compute(
                    self._trace, self._boundary, self._module, self._n_modules
                )
            else:
                self._physics = TracePhysics.compute(
                    self._trace, self._boundary, self._module, self._n_modules
                )
        return self._physics

    def _operating_points(self, i: int):
        """True and sensed boundary solutions at trace sample ``i``.

        Only the reference engine solves per sample; the batched engine
        reads both from the :class:`TracePhysics` precompute.  Calls
        the protocol's positional scalar ``operating_point`` (hot
        inlet, hot flow, ambient, cold flow, chain length).
        """
        tr = self._trace
        true_op = self._boundary.operating_point(
            float(tr.coolant_inlet_c[i]),
            float(tr.coolant_flow_kg_s[i]),
            float(tr.ambient_c[i]),
            float(tr.air_flow_kg_s[i]),
            self._n_modules,
        )
        sensed_op = self._boundary.operating_point(
            float(tr.coolant_inlet_sensed_c[i]),
            float(tr.coolant_flow_sensed_kg_s[i]),
            float(tr.ambient_c[i]),
            float(tr.air_flow_kg_s[i]),
            self._n_modules,
        )
        return true_op, sensed_op

    def run(
        self,
        policy: ReconfigurationPolicy,
        charger: Optional[TEGCharger] = None,
    ) -> SimulationResult:
        """Simulate one policy over the full trace.

        The policy is ``reset()`` before the run, so the same instance
        can be reused across experiments.
        """
        policy.reset()
        if self._scanner is not None:
            self._scanner.reset()
        charger = charger or TEGCharger()
        if self._engine == "reference":
            return self._run_reference(policy, charger)
        return self._run_batched(policy, charger)

    # ------------------------------------------------------------------
    # Batched engine: sequential decisions, vectorised electrical pass
    # ------------------------------------------------------------------
    def _run_batched(
        self, policy: ReconfigurationPolicy, charger: TEGCharger
    ) -> SimulationResult:
        physics = self.physics
        trace = self._trace
        dt = trace.dt_s
        n = trace.n_samples
        fabric = SwitchFabric(self._n_modules)

        runtimes = np.zeros(n)
        groups = np.zeros(n, dtype=np.int64)
        # Chronological bill of executed reconfigurations; the energy
        # charge needs the pre-switch delivered power, which is only
        # known after the electrical pass.
        billed: List[Tuple[int, float, int, float]] = []
        switch_times: List[float] = []
        # Runs of constant configuration: (first sample index, starts).
        segments: List[Tuple[int, Tuple[int, ...]]] = []
        first_application = True

        # The controller works on the paper's heatsink-at-ambient
        # model, so it must be fed the *effective* hot-side temperature
        # whose ambient-referenced difference equals the module's
        # actual driving dT (differential sensing across each module).
        # Feeding raw surface temperatures would make INOR balance
        # currents the modules do not produce.  The whole scan is one
        # batched draw — bit-identical to per-step scanning.
        if self._scanner is not None:
            scanned = self._scanner.scan_batch(physics.sensed_temps_c)
        else:
            scanned = physics.sensed_temps_c.copy()

        for i in range(n):
            t = float(trace.time_s[i])
            sensed_temps = scanned[i]

            t0 = time.perf_counter()
            decision = policy.decide(t, sensed_temps, float(trace.ambient_c[i]))
            decide_seconds = time.perf_counter() - t0
            runtimes[i] = decide_seconds

            if decision is not None:
                toggles = fabric.toggles_to(decision.starts)
                fabric.apply(decision.starts)
                if first_application:
                    # Commissioning the initial wiring is free: every
                    # scheme starts from the same cold array.
                    first_application = False
                else:
                    # Every commanded reconfiguration pays the bill —
                    # the array is interrupted for switch settling and
                    # MPPT re-tracking even when the new partition
                    # happens to equal the old one (the paper's INOR
                    # and EHTR "switch at every time point").
                    billed.append((i, t, toggles, decide_seconds))
                    switch_times.append(t)
            starts = tuple(fabric.starts)
            if not segments or segments[-1][1] != starts:
                segments.append((i, starts))
            groups[i] = len(starts)

        gross, delivered, voltage = self._electrical_series(
            physics, segments, charger
        )

        events: List[OverheadEvent] = []
        for i, t, toggles, decide_seconds in billed:
            previous_delivered = float(delivered[i - 1]) if i > 0 else 0.0
            compute_s = (
                decide_seconds
                if self._nominal_compute_s is None
                else self._nominal_compute_s
            )
            events.append(
                self._overhead.event(
                    time_s=t,
                    power_w=max(previous_delivered, 0.0),
                    compute_time_s=compute_s,
                    toggles=toggles,
                )
            )

        if charger.battery is not None and charger.exact_tracking:
            # Replay the bus power into the battery so its state of
            # charge ends exactly where the per-step loop would leave
            # it (the accepted power itself is not a recorded series).
            # The P&O fallback already charged it inside charger.step.
            for i in range(n):
                charger.battery.accept(float(delivered[i]), dt)

        return SimulationResult(
            scheme=policy.name,
            time_s=trace.time_s.copy(),
            gross_power_w=gross,
            delivered_power_w=delivered,
            ideal_power_w=physics.ideal_power_w.copy(),
            array_voltage_v=voltage,
            runtime_s=runtimes,
            overhead_events=tuple(events),
            switch_times_s=tuple(switch_times),
            n_groups_series=groups,
        )

    def _electrical_series(
        self,
        physics: TracePhysics,
        segments: List[Tuple[int, Tuple[int, ...]]],
        charger: TEGCharger,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array power / delivered power / voltage for the whole trace.

        Each run of constant configuration is evaluated as one batched
        Thevenin reduction over the precomputed EMF matrix followed by
        one call into the converter's row-vector API.  Chargers with
        P&O tracking enabled fall back to the scalar per-step path
        (the tracker's limit cycle is inherently sequential).
        """
        n = physics.n_samples
        if not charger.exact_tracking:
            return self._electrical_series_stepwise(physics, segments, charger)
        gross = np.empty(n)
        delivered = np.empty(n)
        voltage = np.empty(n)
        # Identical elementwise ops to TEGArray.resistance_vector —
        # the constant-parameter chain has one shared resistance.
        resistance = np.full(physics.n_modules, physics.module_resistance_ohm)
        bounds = [idx for idx, _ in segments] + [n]
        for (lo, starts), hi in zip(segments, bounds[1:]):
            power, volt = array_mpp_rows(
                physics.emf_true[lo:hi], resistance, starts
            )
            power = np.maximum(power, 0.0)
            gross[lo:hi] = power
            voltage[lo:hi] = volt
            delivered[lo:hi] = charger.converter.output_power_batch(power, volt)
        return gross, delivered, voltage

    def _electrical_series_stepwise(
        self,
        physics: TracePhysics,
        segments: List[Tuple[int, Tuple[int, ...]]],
        charger: TEGCharger,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-step charger operation (P&O tracking) on precomputed physics."""
        n = physics.n_samples
        dt = self._trace.dt_s
        gross = np.empty(n)
        delivered = np.empty(n)
        voltage = np.empty(n)
        array = TEGArray(self._module, self._n_modules)
        mean_temps = physics.true_mean_temps_c
        bounds = [idx for idx, _ in segments] + [n]
        for (lo, starts), hi in zip(segments, bounds[1:]):
            for i in range(lo, hi):
                array.set_thermal_state(
                    physics.true_delta_t_k[i], mean_temps[i]
                )
                report = charger.step(array, starts, dt)
                gross[i] = report.array_power_w
                delivered[i] = report.delivered_power_w
                voltage[i] = report.array_voltage_v
        return gross, delivered, voltage

    # ------------------------------------------------------------------
    # Reference engine: the pre-refactor per-sample loop
    # ------------------------------------------------------------------
    def _run_reference(
        self, policy: ReconfigurationPolicy, charger: TEGCharger
    ) -> SimulationResult:
        trace = self._trace
        dt = trace.dt_s
        n = trace.n_samples

        array = TEGArray(self._module, self._n_modules)
        fabric = SwitchFabric(self._n_modules)

        gross = np.zeros(n)
        delivered = np.zeros(n)
        ideal = np.zeros(n)
        voltage = np.zeros(n)
        runtimes = np.zeros(n)
        groups = np.zeros(n, dtype=np.int64)
        events: List[OverheadEvent] = []
        switch_times: List[float] = []
        previous_delivered = 0.0
        first_application = True

        for i in range(n):
            t = float(trace.time_s[i])
            true_op, sensed_op = self._operating_points(i)
            sensed_temps = float(trace.ambient_c[i]) + sensed_op.delta_t_k
            if self._scanner is not None:
                sensed_temps = self._scanner.scan(sensed_temps)

            t0 = time.perf_counter()
            decision = policy.decide(t, sensed_temps, float(trace.ambient_c[i]))
            decide_seconds = time.perf_counter() - t0
            runtimes[i] = decide_seconds

            if decision is not None:
                toggles = fabric.toggles_to(decision.starts)
                fabric.apply(decision.starts)
                if first_application:
                    first_application = False
                else:
                    compute_s = (
                        decide_seconds
                        if self._nominal_compute_s is None
                        else self._nominal_compute_s
                    )
                    events.append(
                        self._overhead.event(
                            time_s=t,
                            power_w=max(previous_delivered, 0.0),
                            compute_time_s=compute_s,
                            toggles=toggles,
                        )
                    )
                    switch_times.append(t)

            array.set_thermal_state(
                true_op.delta_t_k,
                (true_op.surface_temps_c + true_op.sink_temps_c) / 2.0,
            )
            report = charger.step(array, fabric.starts, dt)
            gross[i] = report.array_power_w
            delivered[i] = report.delivered_power_w
            voltage[i] = report.array_voltage_v
            ideal[i] = array.ideal_power()
            groups[i] = len(fabric.starts)
            previous_delivered = report.delivered_power_w

        return SimulationResult(
            scheme=policy.name,
            time_s=trace.time_s.copy(),
            gross_power_w=gross,
            delivered_power_w=delivered,
            ideal_power_w=ideal,
            array_voltage_v=voltage,
            runtime_s=runtimes,
            overhead_events=tuple(events),
            switch_times_s=tuple(switch_times),
            n_groups_series=groups,
        )
