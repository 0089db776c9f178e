"""Grid-stacked fused simulation: one decision pass for a whole case grid.

Boiler-scale experiment grids are dominated by decision epochs: a
64-case noise-axis grid over one trace re-runs the same
window-derivation + partition-build + MPP-scoring pipeline 64 times per
control period, each time over a different scanned temperature vector
but through *identical* kernels.  The ``executor="gridstack"`` path of
:class:`~repro.sim.engine.ExperimentRunner` exploits that homogeneity:
cases sharing one physics precompute, chain length, control period,
converter and policy shape are grouped, and every decision epoch runs
as **one** stacked kernel pass instead of ``C`` per-case policy calls:

* **INOR** groups run :func:`repro.core.inor.inor_stack` over a
  ``(C, N)`` EMF matrix per control period;
* **DNOR** groups run :func:`repro.core.dnor.dnor_stack` per epoch —
  one stacked INOR proposal pass plus one
  :func:`repro.teg.network.array_mpp_rows_multi_stack` horizon-scoring
  pass over every case's (current, candidate) pair, with per-case
  predictor state carried between epochs;
* **Baseline** cases fuse trivially as a degenerate stack — one shared
  configuration, one span, one electrical pass.

The electrical series is fused the same way for every policy — all
``(case, segment)`` spans sharing a configuration evaluate through one
row-stacked :func:`repro.teg.network.array_mpp_rows` call.

Results are **bit-identical** to ``executor="serial"`` (pinned in the
parity suite) for everything except the wall-clock ``runtime_s`` series,
which by construction measures the *fused* decision cost split evenly
across the group.  The parity argument layer by layer:

* the scanner draw, Thevenin map, converter curve and battery replay are
  elementwise, so batching them over a case axis reuses the same doubles;
* the decision epochs of :class:`~repro.core.controller.PeriodicPolicy`
  and :class:`~repro.core.controller.DNORPolicy` depend only on the
  shared time vector and period, so one replicated schedule drives
  every case;
* ``inor_stack`` / ``dnor_stack`` / ``array_mpp_rows`` are pinned
  bit-identical to their per-case forms by the kernel parity suites.

Cases that do not fit the fused contract — EHTR, scalar kernels,
measured (non-nominal) compute time, P&O tracking — fall back to
:func:`repro.sim.engine.run_case` over the same shared physics, i.e.
exactly the serial path.  Mixed grids therefore partition into
homogeneous fused groups plus a serial remainder instead of dropping
wholesale to serial.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import EpochClock
from repro.core.dnor import dnor_stack
from repro.core.inor import _inor_stack_raw
from repro.core.overhead import OverheadEvent
from repro.errors import SimulationError
from repro.sim.results import SimulationResult
from repro.teg.network import array_mpp_rows

__all__ = ["fusable_reason", "run_grid_stacked"]


def fusable_reason(case) -> Optional[str]:
    """Why ``case`` cannot join a fused group, or ``None`` if it can.

    The fused pass covers the grid's hot diagonals — batched-kernel
    INOR and DNOR under deterministic (nominal) compute accounting,
    plus the trivially stackable Baseline — and leaves every other
    shape to the bit-identical per-case path rather than growing
    special cases.
    """
    scenario = case.scenario
    if not scenario.make_charger(with_battery=case.with_battery).exact_tracking:
        return "P&O tracking is inherently sequential"
    if case.policy == "Baseline":
        return None
    if case.policy not in ("INOR", "DNOR"):
        return f"policy {case.policy!r} has no stacked epoch kernel"
    if scenario.inor_kernel != "batched":
        return f"kernel {scenario.inor_kernel!r} is the scalar reference"
    if scenario.nominal_compute_s is None:
        return "measured compute time is per-case wall-clock"
    return None


def _group_key(case, physics_id) -> Tuple:
    """Hashable fused-group identity: one key, one stacked epoch stream.

    ``physics_id`` names the shared trace physics: ``id(physics)`` at
    run time, the content fingerprint when sharding.
    """
    scenario = case.scenario
    key: Tuple = (
        case.policy,
        physics_id,
        int(scenario.n_modules),
        float(scenario.control_period_s),
        scenario.module,
        scenario.make_charger(with_battery=False).converter,
    )
    if case.policy == "DNOR":
        # DNOR epochs fire every tp + 1 seconds; only cases on the same
        # epoch clock (and horizon geometry) share a stacked stream.
        key += (float(scenario.tp_seconds),)
    return key


def _decision_schedule(time_s: np.ndarray, period_s: float) -> List[int]:
    """Sample indices where a periodic policy fires.

    Gates through the same :class:`~repro.core.controller.EpochClock`
    as :class:`~repro.core.controller.PeriodicPolicy` and
    :class:`~repro.core.controller.DNORPolicy`, so the fused loop visits
    precisely the samples the per-case loops would decide on.
    """
    clock = EpochClock(period_s)
    return [i for i in range(time_s.size) if clock.due(float(time_s[i]))]


def _scan_group(cases: Sequence, physics) -> np.ndarray:
    """Per-case sensed temperatures, drawn in one batch per case.

    Each case owns its seeded scanner, drawn exactly like
    ``HarvestSimulator._run_batched`` does.
    """
    n = physics.trace.n_samples
    scanned = np.empty((len(cases), n, physics.n_modules))
    for k, case in enumerate(cases):
        scanner = case.scenario.make_scanner()
        scanner.reset()
        scanned[k] = scanner.scan_batch(physics.sensed_temps_c)
    return scanned


def _collate_group(
    cases: Sequence,
    physics,
    run_chargers: Sequence,
    scheme: str,
    runtimes: np.ndarray,
    billed: Sequence[List[Tuple[int, float, int]]],
    switch_times: Sequence[List[float]],
    segments: Sequence[List[Tuple[int, Tuple[int, ...]]]],
) -> List[SimulationResult]:
    """Fused electrical pass + per-case result packaging.

    The shared tail of every group runner: all ``(case, span)`` runs
    sharing one configuration evaluate through a single row-stacked
    reduction (:func:`array_mpp_rows` is row-independent, so stacking
    — and de-duplicating identical spans, the Baseline case — is
    bit-safe), then the overhead bill, battery replay and result
    packaging replicate the serial engine per case.
    """
    trace = physics.trace
    n = trace.n_samples
    dt = trace.dt_s
    n_cases = len(cases)
    n_modules = physics.n_modules

    gross = np.empty((n_cases, n))
    voltage = np.empty((n_cases, n))
    delivered = np.empty((n_cases, n))
    resistance = np.full(n_modules, physics.module_resistance_ohm)
    spans_by_config: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}
    for k in range(n_cases):
        bounds = [idx for idx, _ in segments[k]] + [n]
        for (lo, starts), hi in zip(segments[k], bounds[1:]):
            spans_by_config.setdefault(starts, []).append((k, lo, hi))
    for starts, spans in spans_by_config.items():
        # Distinct sample windows only: Baseline groups (and repeated
        # partitions generally) share whole spans across cases, which
        # would otherwise be evaluated once per case.
        windows = sorted({(lo, hi) for _, lo, hi in spans})
        rows = np.concatenate(
            [physics.emf_true[lo:hi] for lo, hi in windows], axis=0
        )
        power, volt = array_mpp_rows(rows, resistance, starts)
        power = np.maximum(power, 0.0)
        cursors: Dict[Tuple[int, int], int] = {}
        cursor = 0
        for lo, hi in windows:
            cursors[(lo, hi)] = cursor
            cursor += hi - lo
        for k, lo, hi in spans:
            at = cursors[(lo, hi)]
            width = hi - lo
            gross[k, lo:hi] = power[at : at + width]
            voltage[k, lo:hi] = volt[at : at + width]
    for k in range(n_cases):
        delivered[k] = run_chargers[k].converter.output_power_batch(
            gross[k], voltage[k]
        )

    results: List[SimulationResult] = []
    for k, case in enumerate(cases):
        nominal = case.scenario.nominal_compute_s
        overhead = case.scenario.overhead
        events: List[OverheadEvent] = []
        for i, t, toggles in billed[k]:
            previous = float(delivered[k, i - 1]) if i > 0 else 0.0
            events.append(
                overhead.event(
                    time_s=t,
                    power_w=max(previous, 0.0),
                    compute_time_s=nominal,
                    toggles=toggles,
                )
            )
        charger = run_chargers[k]
        if charger.battery is not None and charger.exact_tracking:
            for i in range(n):
                charger.battery.accept(float(delivered[k, i]), dt)
        groups = np.zeros(n, dtype=np.int64)
        bounds = [idx for idx, _ in segments[k]] + [n]
        for (lo, starts), hi in zip(segments[k], bounds[1:]):
            groups[lo:hi] = len(starts)
        results.append(
            SimulationResult(
                scheme=scheme,
                time_s=trace.time_s.copy(),
                gross_power_w=gross[k].copy(),
                delivered_power_w=delivered[k].copy(),
                ideal_power_w=physics.ideal_power_w.copy(),
                array_voltage_v=voltage[k].copy(),
                runtime_s=runtimes[k].copy(),
                overhead_events=tuple(events),
                switch_times_s=tuple(switch_times[k]),
                n_groups_series=groups,
            )
        )
    return results


def _run_inor_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one homogeneous INOR group through the fused stacked pass."""
    scenario0 = cases[0].scenario
    trace = physics.trace
    n = trace.n_samples
    n_cases = len(cases)
    n_modules = physics.n_modules
    module = scenario0.module
    rank_charger = scenario0.make_charger(with_battery=False)
    run_chargers = [
        case.scenario.make_charger(with_battery=case.with_battery)
        for case in cases
    ]
    scanned = _scan_group(cases, physics)

    # Thevenin map constants (thevenin_from_temps, batched over cases).
    emf_coef = module.emf_coefficient()
    decision_resistance = np.full(n_modules, module.internal_resistance())

    runtimes = np.zeros((n_cases, n))
    billed: List[List[Tuple[int, float, int]]] = [[] for _ in range(n_cases)]
    switch_times: List[List[float]] = [[] for _ in range(n_cases)]
    segments: List[List[Tuple[int, Tuple[int, ...]]]] = [
        [] for _ in range(n_cases)
    ]
    case_index = np.arange(n_cases)
    # Configurations live as boolean start-membership rows: the switch
    # fabric's toggle count is 3x the symmetric difference of the start
    # sets, i.e. an XOR popcount per row — integer-exact, so the fused
    # bookkeeping bills exactly what per-case SwitchFabric objects
    # would.  Every fabric powers up all-series (every module a start).
    membership = np.ones((n_cases, n_modules), dtype=bool)

    for epoch, i in enumerate(
        _decision_schedule(trace.time_s, scenario0.control_period_s)
    ):
        t = float(trace.time_s[i])
        ambient = float(trace.ambient_c[i])
        # One stacked Thevenin + INOR pass decides every case at once.
        emf_rows = emf_coef * (scanned[:, i, :] - ambient)
        t0 = time.perf_counter()
        stack, _, _, _, _, winners, _, _ = _inor_stack_raw(
            emf_rows, decision_resistance, rank_charger, 0.03
        )
        runtimes[:, i] = (time.perf_counter() - t0) / n_cases

        # Winner configurations -> membership rows, no per-case Python.
        winner_counts = np.diff(stack.offsets)[winners]
        flat_lo = stack.offsets[winners]
        lane = np.arange(int(winner_counts.sum()), dtype=np.int64)
        within = lane - np.repeat(
            np.cumsum(winner_counts) - winner_counts, winner_counts
        )
        starts_vals = stack.cat[np.repeat(flat_lo, winner_counts) + within]
        decided = np.zeros((n_cases, n_modules), dtype=bool)
        decided[np.repeat(case_index, winner_counts), starts_vals] = True

        flips = (membership != decided).sum(axis=1)
        if epoch > 0:
            # INOR bills every post-commissioning decision (the paper's
            # "switch at every time point"), toggles included even when
            # the new partition equals the old one.
            for k in range(n_cases):
                billed[k].append((i, t, 3 * int(flips[k])))
                switch_times[k].append(t)
        for k in np.flatnonzero((flips > 0) | (epoch == 0)):
            starts = tuple(int(s) for s in np.flatnonzero(decided[k]))
            segments[k].append((i, starts))
        membership = decided

    return _collate_group(
        cases, physics, run_chargers, "INOR",
        runtimes, billed, switch_times, segments,
    )


def _run_dnor_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one homogeneous DNOR group through the stacked epoch kernel.

    Per-case :class:`~repro.core.controller.DNORPolicy` state —
    predictor stream, history window, durable configuration — is
    carried per lane; every epoch decision runs through **one**
    :func:`repro.core.dnor.dnor_stack` call.  The epoch schedule, the
    first-adoption commissioning rule and the switch billing replicate
    the serial engine exactly (pinned in the parity suite).
    """
    trace = physics.trace
    n = trace.n_samples
    n_cases = len(cases)
    n_modules = physics.n_modules
    run_chargers = [
        case.scenario.make_charger(with_battery=case.with_battery)
        for case in cases
    ]
    policies = [case.scenario.make_dnor_policy() for case in cases]
    planners = [policy.planner for policy in policies]
    caps = [policy._history.maxlen for policy in policies]
    scanned = _scan_group(cases, physics)

    runtimes = np.zeros((n_cases, n))
    billed: List[List[Tuple[int, float, int]]] = [[] for _ in range(n_cases)]
    switch_times: List[List[float]] = [[] for _ in range(n_cases)]
    segments: List[List[Tuple[int, Tuple[int, ...]]]] = [
        [] for _ in range(n_cases)
    ]
    currents: List[Optional[object]] = [None] * n_cases

    prev_i: Optional[int] = None
    for i in _decision_schedule(trace.time_s, planners[0].epoch_seconds):
        t = float(trace.time_s[i])
        ambient = float(trace.ambient_c[i])
        # The policy's history deque holds the last `cap` sensed rows,
        # appended every control period; `new_rows` counts the arrivals
        # since the previous epoch (the incremental-refit stream).
        new_rows = i + 1 if prev_i is None else i - prev_i
        histories = [
            scanned[k, max(0, i + 1 - caps[k]) : i + 1, :]
            for k in range(n_cases)
        ]
        t0 = time.perf_counter()
        decisions = dnor_stack(
            planners, histories, ambient, currents,
            time_s=t, new_rows=[new_rows] * n_cases,
        )
        runtimes[:, i] = (time.perf_counter() - t0) / n_cases

        for k, decision in enumerate(decisions):
            if not decision.switch:
                continue
            if currents[k] is None:
                # Commissioning the initial wiring is free: every
                # scheme starts from the same cold array.
                pass
            else:
                toggles = currents[k].switch_toggles_to(decision.config)
                billed[k].append((i, t, toggles))
                switch_times[k].append(t)
            segments[k].append((i, decision.config.starts))
            currents[k] = decision.config
        prev_i = i

    return _collate_group(
        cases, physics, run_chargers, "DNOR",
        runtimes, billed, switch_times, segments,
    )


def _run_baseline_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one Baseline group as a degenerate (single-span) stack.

    :class:`~repro.core.controller.StaticPolicy` applies its wired-in
    grid at the first sample, for free, and never decides again: every
    case is one configuration span over the whole trace, so the whole
    group collapses into one fused electrical pass (the span
    de-duplication in :func:`_collate_group`) plus per-case converter
    and battery replay.  The scanner draw is skipped entirely — the
    static policy never reads the sensed temperatures, and each case's
    scanner is private state, so the omission is unobservable.
    """
    n_cases = len(cases)
    n = physics.trace.n_samples
    run_chargers = [
        case.scenario.make_charger(with_battery=case.with_battery)
        for case in cases
    ]
    runtimes = np.zeros((n_cases, n))
    billed: List[List[Tuple[int, float, int]]] = [[] for _ in range(n_cases)]
    switch_times: List[List[float]] = [[] for _ in range(n_cases)]
    segments = [
        [(0, case.scenario.make_baseline_policy().config.starts)]
        for case in cases
    ]
    return _collate_group(
        cases, physics, run_chargers, "Baseline",
        runtimes, billed, switch_times, segments,
    )


# Policy name -> module attribute of the group runner (resolved late so
# tests can monkeypatch the runners).
_GROUP_RUNNERS = {
    "INOR": "_run_inor_group",
    "DNOR": "_run_dnor_group",
    "Baseline": "_run_baseline_group",
}


def run_grid_stacked(
    cases: Sequence, physics_per_case: Sequence
) -> List[SimulationResult]:
    """Execute a case grid with fused groups, in collation order.

    Fusable cases (see :func:`fusable_reason`) sharing a group key run
    through their policy's stacked group runner; every other case takes
    the serial per-case path over the same shared physics.  Output
    order matches the input grid regardless of grouping.
    """
    from repro.sim.engine import run_case  # circular-import guard

    results: List[Optional[SimulationResult]] = [None] * len(cases)
    groups: Dict[Tuple, List[int]] = {}
    for index, (case, physics) in enumerate(zip(cases, physics_per_case)):
        if fusable_reason(case) is None:
            groups.setdefault(_group_key(case, id(physics)), []).append(index)
        else:
            results[index] = run_case(case, physics)
    for key, indices in groups.items():
        members = [cases[i] for i in indices]
        runner = globals()[_GROUP_RUNNERS[key[0]]]
        try:
            fused = runner(members, physics_per_case[indices[0]])
        except Exception as exc:
            names = ", ".join(repr(case.name) for case in members)
            raise SimulationError(
                f"grid-stacked group [{names}] failed: {exc}"
            ) from exc
        for index, result in zip(indices, fused):
            results[index] = result
    return [result for result in results if result is not None]
