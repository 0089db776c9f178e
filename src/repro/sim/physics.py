"""Trace-level physics precompute — the engine's first layer.

The closed-loop simulator used to re-solve the thermal boundary twice
per control period (once at the true boundary conditions, once at the
sensed ones) and rebuild the per-module EMF vector from scratch each
step.  None of that depends on the controller's decisions: the thermal
world is fully determined by the trace.  :class:`TracePhysics` hoists
it all out of the control loop:

* one vectorised
  :meth:`repro.thermal.boundary.ThermalBoundary.solve_trace` pass over
  the *true* boundary conditions,
* a second pass over the *sensed* conditions — skipped entirely when
  the trace is noiseless (sensed columns identical to true), in which
  case the true solution is shared,
* the per-module EMF matrix and the ``P_ideal`` reference series,
  precomputed with exactly the same elementwise operations the
  per-step :class:`repro.teg.array.TEGArray` path uses, so downstream
  results are bit-identical.

The step loop (:class:`repro.sim.simulator.HarvestSimulator`) and the
batch experiment layer (:mod:`repro.sim.engine`) both consume this
object; computing it once and reusing it across policies amortises the
physics over a whole experiment grid.

For online consumption — telemetry arriving in chunks rather than as a
complete trace — :class:`TracePhysicsStream` exposes the same
precompute incrementally: every solve in the chain is per-sample
(row-wise elementwise, the boundary protocol's contract), so chunked
evaluation is a restructuring, not an approximation, and each chunk's
state is bit-identical to the corresponding rows of the one-shot
``compute()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.teg.model import ModuleModel
from repro.thermal.boundary import BoundaryTraceSolution, ThermalBoundary
from repro.vehicle.trace import RadiatorTrace


def ideal_power_from_delta_t(
    module: ModuleModel,
    delta_t_k: np.ndarray,
    mean_temp_c: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``P_ideal`` rows from a ``(T, N)`` temperature-difference matrix.

    Mirrors :meth:`repro.teg.array.TEGArray.ideal_power` operation-for-
    operation (back-biased modules contribute zero), batched over the
    trace.  ``mean_temp_c``, when given, carries the matching mean
    junction temperatures so temperature-interpolated module models
    evaluate at the right point along the gradient.
    """
    emf = module.emf(delta_t_k, mean_temp_c)
    resistance_row = np.full(delta_t_k.shape[1], module.internal_resistance())
    per_module = np.where(emf > 0.0, emf * emf / (4.0 * resistance_row), 0.0)
    return per_module.sum(axis=1)


@dataclass(frozen=True)
class TracePhysics:
    """Everything the control loop needs from the thermal world.

    Attributes
    ----------
    trace:
        The driving boundary conditions.
    boundary:
        The thermal-boundary model both solutions were solved against
        (any :class:`~repro.thermal.boundary.ThermalBoundary`).
    module:
        The shared TEG module model.
    n_modules:
        Chain length.
    true_solution:
        Vectorised boundary solution at the true boundary conditions —
        the temperatures the array physically experiences.
    sensed_solution:
        Boundary solution at the sensed boundary conditions (what the
        controller's model-derived distribution sees).  When the trace
        is noiseless this is the *same object* as ``true_solution``;
        the redundant second solve is skipped.
    sensed_temps_c:
        ``(T, N)`` effective hot-side temperatures fed to the policies:
        ambient plus the sensed per-module temperature difference
        (differential sensing across each module — see the simulator
        docstring).
    emf_true:
        ``(T, N)`` per-module open-circuit EMFs at the true temperature
        differences.
    module_resistance_ohm:
        Per-module internal resistance (constant-parameter model).
    ideal_power_w:
        ``P_ideal`` reference series (every module at its own MPP).
    noiseless:
        True when the sensed trace columns equal the true columns and
        the second boundary solve was skipped.
    """

    trace: RadiatorTrace
    boundary: ThermalBoundary
    module: ModuleModel
    n_modules: int
    true_solution: BoundaryTraceSolution
    sensed_solution: BoundaryTraceSolution
    sensed_temps_c: np.ndarray
    emf_true: np.ndarray
    module_resistance_ohm: float
    ideal_power_w: np.ndarray
    noiseless: bool

    @property
    def n_samples(self) -> int:
        """Number of trace samples."""
        return self.trace.n_samples

    @property
    def true_delta_t_k(self) -> np.ndarray:
        """``(T, N)`` true per-module temperature differences."""
        return self.true_solution.delta_t_k

    @property
    def true_mean_temps_c(self) -> np.ndarray:
        """``(T, N)`` true mean junction temperatures (hot+cold)/2.

        The temperature each module's material stack actually sits at —
        the evaluation point for temperature-interpolated module models
        (segmented chains) on the physics plane.
        """
        return (
            self.true_solution.surface_temps_c
            + self.true_solution.sink_temps_c
        ) / 2.0

    @classmethod
    def compute(
        cls,
        trace: RadiatorTrace,
        boundary: ThermalBoundary,
        module: ModuleModel,
        n_modules: int,
    ) -> "TracePhysics":
        """Precompute the physics of a whole trace in two NumPy passes.

        The second (sensed) pass is skipped when the trace carries no
        sensing error — ``sensed_solution`` then aliases
        ``true_solution``.
        """
        true_solution = boundary.solve_trace(
            trace.coolant_inlet_c,
            trace.coolant_flow_kg_s,
            trace.ambient_c,
            trace.air_flow_kg_s,
            n_modules,
        )
        noiseless = bool(
            np.array_equal(trace.coolant_inlet_sensed_c, trace.coolant_inlet_c)
            and np.array_equal(
                trace.coolant_flow_sensed_kg_s, trace.coolant_flow_kg_s
            )
        )
        if noiseless:
            sensed_solution = true_solution
        else:
            sensed_solution = boundary.solve_trace(
                trace.coolant_inlet_sensed_c,
                trace.coolant_flow_sensed_kg_s,
                trace.ambient_c,
                trace.air_flow_kg_s,
                n_modules,
            )
        sensed_temps_c = trace.ambient_c[:, None] + sensed_solution.delta_t_k

        # Mirror TEGArray.emf_vector / resistance_vector / ideal_power
        # operation-for-operation so the precomputed series are
        # bit-identical to what the per-step path would produce.  EMFs
        # evaluate at the boundary-solved mean junction temperatures —
        # for nominal single-material modules the drift scale is exactly
        # 1.0, so this is bitwise the historical nominal expression.
        mean_true_c = (
            true_solution.surface_temps_c + true_solution.sink_temps_c
        ) / 2.0
        emf_true = module.emf(true_solution.delta_t_k, mean_true_c)
        return cls(
            trace=trace,
            boundary=boundary,
            module=module,
            n_modules=int(n_modules),
            true_solution=true_solution,
            sensed_solution=sensed_solution,
            sensed_temps_c=sensed_temps_c,
            emf_true=emf_true,
            module_resistance_ohm=float(module.internal_resistance()),
            ideal_power_w=ideal_power_from_delta_t(
                module, true_solution.delta_t_k, mean_true_c
            ),
            noiseless=noiseless,
        )


def _concat_trace_solutions(
    parts: Sequence[BoundaryTraceSolution],
) -> BoundaryTraceSolution:
    """Row-concatenate per-chunk boundary solutions into one.

    Every column of a :class:`BoundaryTraceSolution` is per-sample
    (row) data, so concatenation along axis 0 reassembles exactly the
    arrays a whole-trace ``solve_trace`` call produces — the solve
    itself is row-wise elementwise (pinned in the stream parity suite).
    Dispatches on the concrete solution type so richer subclasses (the
    radiator's exchanger columns) reassemble their own fields too.
    """
    return type(parts[0]).concat(parts)


@dataclass(frozen=True)
class TraceChunkState:
    """Thermal + EMF state of one streamed telemetry chunk.

    Row ``j`` of every array corresponds to global trace sample
    ``start_index + j`` and is bit-identical to the same row of the
    whole-trace :meth:`TracePhysics.compute` fields.
    """

    start_index: int
    true_solution: BoundaryTraceSolution
    sensed_solution: BoundaryTraceSolution
    sensed_temps_c: np.ndarray
    emf_true: np.ndarray
    ideal_power_w: np.ndarray
    noiseless: bool

    @property
    def n_samples(self) -> int:
        """Number of samples in this chunk."""
        return int(self.sensed_temps_c.shape[0])


class TracePhysicsStream:
    """Chunked/incremental counterpart of :meth:`TracePhysics.compute`.

    The boundary solve, the Thevenin EMF map and the ``P_ideal``
    reduction are all per-sample (row-wise elementwise) operations, so
    a trace can be consumed as it arrives: :meth:`extend` appends a
    chunk of boundary-condition samples and returns that chunk's state
    **bit-identical** to the corresponding rows of the one-shot
    precompute, at any chunk size (pinned in
    ``tests/test_physics_stream.py`` for chunk sizes {1, 7, full} over
    every registry scenario).

    The only whole-trace quantity is the ``noiseless`` flag —
    ``compute()`` decides it from the full sensed columns; here it is
    the conjunction of the per-chunk checks (equality of a
    concatenation is exactly the conjunction of per-chunk equality, so
    :meth:`snapshot` reproduces the flag and the solution-aliasing
    behaviour bit-for-bit).
    """

    def __init__(
        self, boundary: ThermalBoundary, module: ModuleModel, n_modules: int
    ) -> None:
        self._boundary = boundary
        self._module = module
        self._n_modules = int(n_modules)
        self._chunks: List[TraceChunkState] = []
        self._n_seen = 0

    @property
    def n_samples_seen(self) -> int:
        """Total samples appended so far."""
        return self._n_seen

    @property
    def chunks(self) -> Sequence[TraceChunkState]:
        """Per-chunk states in arrival order."""
        return tuple(self._chunks)

    def extend(
        self,
        coolant_inlet_c: np.ndarray,
        coolant_flow_kg_s: np.ndarray,
        ambient_c: np.ndarray,
        air_flow_kg_s: np.ndarray,
        coolant_inlet_sensed_c: Optional[np.ndarray] = None,
        coolant_flow_sensed_kg_s: Optional[np.ndarray] = None,
    ) -> TraceChunkState:
        """Append a chunk of boundary-condition samples (1-D columns).

        Sensed columns default to the true columns (a noiseless chunk).
        Chunks may be as short as a single sample — unlike
        :class:`~repro.vehicle.trace.RadiatorTrace`, no minimum length
        applies, so a live feed can deliver one sample at a time.
        """
        inlet = np.asarray(coolant_inlet_c, dtype=float)
        flow = np.asarray(coolant_flow_kg_s, dtype=float)
        ambient = np.asarray(ambient_c, dtype=float)
        air_flow = np.asarray(air_flow_kg_s, dtype=float)
        if inlet.ndim != 1 or inlet.size < 1:
            raise SimulationError(
                f"chunk columns must be non-empty 1-D, got {inlet.shape}"
            )
        sensed_inlet = (
            inlet
            if coolant_inlet_sensed_c is None
            else np.asarray(coolant_inlet_sensed_c, dtype=float)
        )
        sensed_flow = (
            flow
            if coolant_flow_sensed_kg_s is None
            else np.asarray(coolant_flow_sensed_kg_s, dtype=float)
        )
        true_solution = self._boundary.solve_trace(
            inlet, flow, ambient, air_flow, self._n_modules
        )
        noiseless = bool(
            np.array_equal(sensed_inlet, inlet)
            and np.array_equal(sensed_flow, flow)
        )
        if noiseless:
            sensed_solution = true_solution
        else:
            sensed_solution = self._boundary.solve_trace(
                sensed_inlet, sensed_flow, ambient, air_flow, self._n_modules
            )
        sensed_temps_c = ambient[:, None] + sensed_solution.delta_t_k
        # Same expression order as TracePhysics.compute — bit-identical.
        mean_true_c = (
            true_solution.surface_temps_c + true_solution.sink_temps_c
        ) / 2.0
        emf_true = self._module.emf(true_solution.delta_t_k, mean_true_c)
        state = TraceChunkState(
            start_index=self._n_seen,
            true_solution=true_solution,
            sensed_solution=sensed_solution,
            sensed_temps_c=sensed_temps_c,
            emf_true=emf_true,
            ideal_power_w=ideal_power_from_delta_t(
                self._module, true_solution.delta_t_k, mean_true_c
            ),
            noiseless=noiseless,
        )
        self._chunks.append(state)
        self._n_seen += state.n_samples
        return state

    def extend_trace(
        self, trace: RadiatorTrace, lo: int, hi: int
    ) -> TraceChunkState:
        """Convenience: :meth:`extend` on trace sample slice ``[lo, hi)``."""
        return self.extend(
            trace.coolant_inlet_c[lo:hi],
            trace.coolant_flow_kg_s[lo:hi],
            trace.ambient_c[lo:hi],
            trace.air_flow_kg_s[lo:hi],
            trace.coolant_inlet_sensed_c[lo:hi],
            trace.coolant_flow_sensed_kg_s[lo:hi],
        )

    def snapshot(self, trace: RadiatorTrace) -> TracePhysics:
        """Assemble the streamed chunks into a whole-trace precompute.

        ``trace`` must be the trace whose samples were streamed (its
        sample count is validated); the returned object is bit-identical
        field-for-field to ``TracePhysics.compute(trace, ...)``,
        including the noiseless solution aliasing.
        """
        if trace.n_samples != self._n_seen:
            raise SimulationError(
                f"snapshot trace has {trace.n_samples} samples but "
                f"{self._n_seen} were streamed"
            )
        if not self._chunks:
            raise SimulationError("no chunks streamed yet")
        true_solution = _concat_trace_solutions(
            [c.true_solution for c in self._chunks]
        )
        noiseless = all(c.noiseless for c in self._chunks)
        if noiseless:
            sensed_solution = true_solution
        else:
            sensed_solution = _concat_trace_solutions(
                [c.sensed_solution for c in self._chunks]
            )
        return TracePhysics(
            trace=trace,
            boundary=self._boundary,
            module=self._module,
            n_modules=self._n_modules,
            true_solution=true_solution,
            sensed_solution=sensed_solution,
            sensed_temps_c=np.concatenate(
                [c.sensed_temps_c for c in self._chunks]
            ),
            emf_true=np.concatenate([c.emf_true for c in self._chunks]),
            module_resistance_ohm=float(self._module.internal_resistance()),
            ideal_power_w=np.concatenate(
                [c.ideal_power_w for c in self._chunks]
            ),
            noiseless=noiseless,
        )
