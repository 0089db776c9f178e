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
whole trace by :class:`~repro.sim.physics.TracePhysics`, and the step
loop here only sequences the *stateful* parts — sensor noise and
policy decisions.  Decisions go to an :class:`EpochLedger`, the one
commissioning and billing rule, and :func:`collate_lanes`, the one
electrical and collation tail, evaluates the series in row-stacked
spans of constant configuration, prices the bills, replays the battery
and packages the result.  Both are lane-stacked: this engine is one
lane, and every fused group of :mod:`repro.sim.gridstack` runs the same
two with one lane per case.  The policy decisions are vectorised too:
INOR builds and scores its whole candidate window as a one-case
partition stack, and DNOR's epoch is a one-lane ``dnor_stack`` call,
both through the one MPP scoring core of :mod:`repro.teg.network`, so
no layer of the engine runs per-sample or per-candidate Python.  The
pre-refactor sample-by-sample path (two boundary solves, a
:class:`~repro.teg.switches.SwitchFabric` and a scalar charger step per
sample) is retained as ``engine="reference"``, the oracle the batched
engine is cross-validated against.

Runtime accounting wraps every ``decide`` call with a wall-clock
timer; the measured time also feeds the overhead bill (the paper's
"longer runtime always results in a higher timing overhead").  For
bit-reproducible tests a ``nominal_compute_s`` override decouples the
energy numbers from machine speed.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import ReconfigurationPolicy
from repro.core.overhead import OverheadEvent, SwitchingOverheadModel
from repro.errors import SimulationError
from repro.power.charger import TEGCharger
from repro.sim.physics import TracePhysics
from repro.sim.results import SimulationResult
from repro.teg.array import TEGArray
from repro.teg.network import array_mpp_rows, validate_starts
from repro.teg.model import ModuleModel
from repro.teg.switches import SWITCHES_PER_JUNCTION_FLIP, SwitchFabric
from repro.thermal.boundary import ThermalBoundary
from repro.vehicle.sensors import ModuleTemperatureScanner
from repro.vehicle.trace import RadiatorTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.cache import PhysicsCache

#: Valid values of the ``engine`` constructor argument.
ENGINES = ("batched", "reference")


class EpochLedger:
    """Lane-stacked switching ledger: the one commissioning and billing rule.

    One lane per simulated case (the serial engine is one lane, a fused
    gridstack group one lane per case).  Every lane's switch fabric
    powers up all-series and holds its configuration as a boolean
    start-membership row, so a reconfiguration's junction flips are an
    XOR popcount of two rows — integer-exact, the same count a
    :class:`~repro.teg.switches.SwitchFabric` reports.

    :meth:`apply` is the rule.  A lane's first applied configuration is
    free: commissioning the initial wiring, since every scheme starts
    from the same cold array.  Every later one is billed
    :data:`~repro.teg.switches.SWITCHES_PER_JUNCTION_FLIP` toggles per
    flipped junction plus its compute seconds, even when the wiring is
    unchanged — the array is interrupted for switch settling and MPPT
    re-tracking regardless (the paper's INOR and EHTR "switch at every
    time point").  A new constant-configuration segment opens only when
    the wiring changes.  The energy charge of each bill needs the
    pre-switch delivered power, so :func:`collate_lanes` prices the
    bills after the electrical pass.
    """

    def __init__(self, n_lanes: int, n_modules: int, n_samples: int) -> None:
        self.n_modules = int(n_modules)
        self.membership = np.ones((n_lanes, n_modules), dtype=bool)
        self.commissioned = [False] * n_lanes
        #: Per-lane, per-sample decision wall-clock seconds.
        self.runtimes = np.zeros((n_lanes, n_samples))
        #: Per lane: ``(sample, time, toggles, compute seconds)`` bills.
        self.billed: List[List[Tuple[int, float, int, float]]] = [
            [] for _ in range(n_lanes)
        ]
        #: Per lane: runs of constant configuration as
        #: ``(first sample index, starts)``.
        all_series = tuple(range(n_modules))
        self.segments: List[List[Tuple[int, Tuple[int, ...]]]] = [
            [(0, all_series)] for _ in range(n_lanes)
        ]

    def apply(
        self,
        i: int,
        t: float,
        lanes: Sequence[int],
        decided_rows: np.ndarray,
        compute_s: float | Sequence[float],
    ) -> None:
        """Commit ``decided_rows`` (one membership row per lane) at sample ``i``.

        ``compute_s`` is one compute time for every lane or one per
        lane; it is billed as given.
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        flips = (self.membership[lanes] != decided_rows).sum(axis=1).tolist()
        self.membership[lanes] = decided_rows
        costs = np.broadcast_to(np.asarray(compute_s, dtype=float), lanes.shape)
        for j, (k, cost) in enumerate(zip(lanes.tolist(), costs.tolist())):
            if self.commissioned[k]:
                toggles = SWITCHES_PER_JUNCTION_FLIP * flips[j]
                self.billed[k].append((i, t, toggles, cost))
            self.commissioned[k] = True
            if flips[j]:
                segments = self.segments[k]
                if segments[-1][0] == i:
                    segments.pop()  # the power-up wiring never ran
                starts = tuple(np.flatnonzero(decided_rows[j]).tolist())
                segments.append((i, starts))

    def apply_starts(
        self,
        i: int,
        t: float,
        lanes: Sequence[int],
        starts_per_lane: Sequence[Sequence[int]],
        compute_s: float | Sequence[float],
    ) -> None:
        """:meth:`apply` for configurations given as group-start vectors.

        Every vector is validated against the chain first: a policy's
        output is input from outside the engine.
        """
        rows = np.zeros((len(starts_per_lane), self.n_modules), dtype=bool)
        for row, starts in zip(rows, starts_per_lane):
            row[validate_starts(starts, self.n_modules)] = True
        self.apply(i, t, lanes, rows, compute_s)


def collate_lanes(
    physics: TracePhysics,
    ledger: EpochLedger,
    chargers: Sequence[TEGCharger],
    overheads: Sequence[SwitchingOverheadModel],
    scheme: str,
) -> List[SimulationResult]:
    """The one electrical and collation tail: ledger lanes -> results.

    All ``(lane, segment)`` spans sharing a configuration evaluate
    through one row-stacked :func:`array_mpp_rows` reduction over the
    precomputed EMF matrix (the reduction is row-independent, so
    stacking the spans, each sample once, is bit-safe), then one call
    per lane into the converter's row-vector API.  A lane whose charger
    runs P&O tracking steps the charger per sample instead (the
    tracker's limit cycle is inherently sequential).  Then each lane's
    bills are priced at the pre-switch delivered power, its battery is
    replayed, and its result packaged.
    """
    trace = physics.trace
    n = trace.n_samples
    dt = trace.dt_s
    n_lanes = len(chargers)
    gross = np.empty((n_lanes, n))
    voltage = np.empty((n_lanes, n))
    delivered = np.empty((n_lanes, n))
    groups = np.empty((n_lanes, n), dtype=np.int64)
    spans = []
    spans_by_config: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}
    for k, segments in enumerate(ledger.segments):
        bounds = [lo for lo, _ in segments[1:]] + [n]
        lane_spans = [
            (lo, hi, starts) for (lo, starts), hi in zip(segments, bounds)
        ]
        spans.append(lane_spans)
        for lo, hi, starts in lane_spans:
            groups[k, lo:hi] = len(starts)
            if chargers[k].exact_tracking:
                spans_by_config.setdefault(starts, []).append((k, lo, hi))

    # Identical elementwise ops to TEGArray.resistance_vector — the
    # constant-parameter chain has one shared resistance.
    resistance = np.full(physics.n_modules, physics.module_resistance_ohm)
    for starts, config_spans in spans_by_config.items():
        # Every sample once: lanes sharing a span (a Baseline group's)
        # share its rows.
        rows = np.zeros(n, dtype=bool)
        for _, lo, hi in config_spans:
            rows[lo:hi] = True
        power, volt = np.zeros(n), np.zeros(n)
        power[rows], volt[rows] = array_mpp_rows(
            physics.emf_true[rows], resistance, starts
        )
        np.maximum(power, 0.0, out=power)
        for k, lo, hi in config_spans:
            gross[k, lo:hi] = power[lo:hi]
            voltage[k, lo:hi] = volt[lo:hi]

    results: List[SimulationResult] = []
    for k, charger in enumerate(chargers):
        if charger.exact_tracking:
            delivered[k] = charger.converter.output_power_batch(
                gross[k], voltage[k]
            )
            if charger.battery is not None:
                # Replay the bus power into the battery so its state of
                # charge ends where the per-step loop would leave it.
                for i in range(n):
                    charger.battery.accept(float(delivered[k, i]), dt)
        else:
            # charger.step also charges the battery.
            array = TEGArray(physics.module, physics.n_modules)
            for lo, hi, starts in spans[k]:
                for i in range(lo, hi):
                    array.set_thermal_state(
                        physics.true_delta_t_k[i], physics.true_mean_temps_c[i]
                    )
                    report = charger.step(array, starts, dt)
                    gross[k, i] = report.array_power_w
                    delivered[k, i] = report.delivered_power_w
                    voltage[k, i] = report.array_voltage_v
        events = tuple(
            overheads[k].event(
                time_s=t,
                power_w=max(float(delivered[k, i - 1]) if i > 0 else 0.0, 0.0),
                compute_time_s=compute_s,
                toggles=toggles,
            )
            for i, t, toggles, compute_s in ledger.billed[k]
        )
        results.append(
            SimulationResult(
                scheme=scheme,
                time_s=trace.time_s.copy(),
                gross_power_w=gross[k].copy(),
                delivered_power_w=delivered[k].copy(),
                ideal_power_w=physics.ideal_power_w.copy(),
                array_voltage_v=voltage[k].copy(),
                runtime_s=ledger.runtimes[k].copy(),
                overhead_events=events,
                switch_times_s=tuple(t for _, t, _, _ in ledger.billed[k]),
                n_groups_series=groups[k].copy(),
            )
        )
    return results


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
    # Batched engine: sequential decisions into a one-lane ledger
    # ------------------------------------------------------------------
    def _run_batched(
        self, policy: ReconfigurationPolicy, charger: TEGCharger
    ) -> SimulationResult:
        physics = self.physics
        trace = self._trace
        ledger = EpochLedger(1, self._n_modules, trace.n_samples)
        runtimes = ledger.runtimes[0]

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

        for i in range(trace.n_samples):
            t = float(trace.time_s[i])
            t0 = time.perf_counter()
            decision = policy.decide(t, scanned[i], float(trace.ambient_c[i]))
            decide_seconds = time.perf_counter() - t0
            runtimes[i] = decide_seconds
            if decision is not None:
                compute_s = (
                    decide_seconds
                    if self._nominal_compute_s is None
                    else self._nominal_compute_s
                )
                ledger.apply_starts(i, t, [0], [decision.starts], compute_s)

        return collate_lanes(
            physics, ledger, [charger], [self._overhead], policy.name
        )[0]

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
