"""Trace-level physics precompute — the engine's first layer.

The closed-loop simulator used to re-solve the thermal boundary twice
per control period (once at the true boundary conditions, once at the
sensed ones) and rebuild the per-module EMF vector from scratch each
step.  None of that depends on the controller's decisions: the thermal
world is fully determined by the trace.  :class:`TracePhysics` hoists
it all out of the control loop:

* one vectorised
  :meth:`repro.thermal.boundary.ThermalBoundary.solve_trace` pass over
  the *true* and the *sensed* boundary conditions stacked row-wise
  (rows ``[0, T)`` true, ``[T, 2T)`` sensed) and split afterwards —
  the solve is row-wise elementwise, so each half is bitwise what a
  separate solve over its own columns returns, and the fixed per-call
  cost (the exhaust duct march loops over modules in Python) is paid
  once instead of twice.  A noiseless trace (sensed columns identical
  to true) solves the true rows alone and shares that solution,
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
precompute incrementally through the same one-solve helper: every
solve in the chain is per-sample (row-wise elementwise, the boundary
protocol's contract), so chunked evaluation is a restructuring, not an
approximation, and each chunk's state is bit-identical to the
corresponding rows of the one-shot ``compute()``.  That same row-wise
contract lets the streaming service (:mod:`repro.serve`) skip this
class: it solves only the sensed rows it reads, once per physics group
of sessions, and this stream stays the chunked parity oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
        controller's model-derived distribution sees), solved in the
        same call as ``true_solution`` over the stacked rows.  When the
        trace is noiseless this is the *same object* as
        ``true_solution`` and only the true rows are solved.
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
        the sensed rows were not solved.
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
        """Precompute the physics of a whole trace in one boundary solve.

        The true and sensed rows go through one stacked solve; a trace
        with no sensing error solves only the true rows, and
        ``sensed_solution`` then aliases ``true_solution``.
        """
        state = _solve_chunk(
            boundary,
            module,
            n_modules,
            0,
            trace.coolant_inlet_c,
            trace.coolant_flow_kg_s,
            trace.ambient_c,
            trace.air_flow_kg_s,
            trace.coolant_inlet_sensed_c,
            trace.coolant_flow_sensed_kg_s,
        )
        return cls(
            trace=trace,
            boundary=boundary,
            module=module,
            n_modules=int(n_modules),
            true_solution=state.true_solution,
            sensed_solution=state.sensed_solution,
            sensed_temps_c=state.sensed_temps_c,
            emf_true=state.emf_true,
            module_resistance_ohm=float(module.internal_resistance()),
            ideal_power_w=state.ideal_power_w,
            noiseless=state.noiseless,
        )


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


def _solve_chunk(
    boundary: ThermalBoundary,
    module: ModuleModel,
    n_modules: int,
    start_index: int,
    inlet: np.ndarray,
    flow: np.ndarray,
    ambient: np.ndarray,
    air_flow: np.ndarray,
    sensed_inlet: np.ndarray,
    sensed_flow: np.ndarray,
) -> TraceChunkState:
    """The physics of ``n`` samples from one boundary solve.

    A noisy chunk solves ``2n`` rows at once — the true columns
    stacked over the sensed ones, ambient and cold-stream flow
    repeated — and splits the solution at row ``n``.  The boundary
    protocol makes every row depend only on its own inputs, so each
    half is bitwise a separate solve over its own columns.  A
    noiseless chunk solves the ``n`` true rows and shares the solution.
    """
    noiseless = bool(
        np.array_equal(sensed_inlet, inlet) and np.array_equal(sensed_flow, flow)
    )
    columns = (inlet, flow, ambient, air_flow)
    if not noiseless:
        sensed = (sensed_inlet, sensed_flow, ambient, air_flow)
        columns = tuple(map(np.concatenate, zip(columns, sensed)))
    solution = boundary.solve_trace(*columns, n_modules)
    if noiseless:
        true_solution = sensed_solution = solution
    else:
        n = inlet.size
        true_solution = solution.rows(0, n)
        sensed_solution = solution.rows(n, 2 * n)
    # Mirror TEGArray.emf_vector / resistance_vector / ideal_power
    # operation-for-operation so the precomputed series are
    # bit-identical to what the per-step path would produce.  EMFs
    # evaluate at the boundary-solved mean junction temperatures —
    # for nominal single-material modules the drift scale is exactly
    # 1.0, so this is bitwise the historical nominal expression.
    mean_true_c = (
        true_solution.surface_temps_c + true_solution.sink_temps_c
    ) / 2.0
    return TraceChunkState(
        start_index=start_index,
        true_solution=true_solution,
        sensed_solution=sensed_solution,
        sensed_temps_c=ambient[:, None] + sensed_solution.delta_t_k,
        emf_true=module.emf(true_solution.delta_t_k, mean_true_c),
        ideal_power_w=ideal_power_from_delta_t(
            module, true_solution.delta_t_k, mean_true_c
        ),
        noiseless=noiseless,
    )


class TracePhysicsStream:
    """Chunked/incremental counterpart of :meth:`TracePhysics.compute`.

    The boundary solve, the Thevenin EMF map and the ``P_ideal``
    reduction are all per-sample (row-wise elementwise) operations, so
    a trace can be consumed as it arrives: :meth:`extend` appends a
    chunk of boundary-condition samples and returns that chunk's state
    **bit-identical** to the corresponding rows of the one-shot
    precompute, at any chunk size (pinned in
    ``tests/test_physics_stream.py`` for chunk sizes {1, 7, full} over
    every registry scenario).  Each chunk costs one boundary solve —
    true and sensed rows stacked, like ``compute()``.

    The stream keeps no per-chunk state: a long-lived session holds
    only the running sample count, and the caller owns the states
    :meth:`extend` returns.  The only whole-trace quantity of
    ``compute()`` is the ``noiseless`` flag; it is the conjunction of
    the per-chunk flags (equality of a concatenation is exactly the
    conjunction of per-chunk equality), so concatenating the returned
    states reproduces the one-shot precompute field for field,
    solution aliasing included.
    """

    def __init__(
        self, boundary: ThermalBoundary, module: ModuleModel, n_modules: int
    ) -> None:
        self._boundary = boundary
        self._module = module
        self._n_modules = int(n_modules)
        self._n_seen = 0

    @property
    def n_samples_seen(self) -> int:
        """Total samples appended so far."""
        return self._n_seen

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
        if inlet.ndim != 1 or inlet.size < 1:
            raise SimulationError(
                f"chunk columns must be non-empty 1-D, got {inlet.shape}"
            )
        state = _solve_chunk(
            self._boundary,
            self._module,
            self._n_modules,
            self._n_seen,
            inlet,
            flow,
            np.asarray(ambient_c, dtype=float),
            np.asarray(air_flow_kg_s, dtype=float),
            inlet
            if coolant_inlet_sensed_c is None
            else np.asarray(coolant_inlet_sensed_c, dtype=float),
            flow
            if coolant_flow_sensed_kg_s is None
            else np.asarray(coolant_flow_sensed_kg_s, dtype=float),
        )
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
