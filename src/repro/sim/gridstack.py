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

Every runner hands its decided configurations to one
:class:`~repro.sim.simulator.EpochLedger` lane per case and finishes in
:func:`~repro.sim.simulator.collate_lanes` — the ledger and tail the
serial engine runs as one lane.  So commissioning, billing, the fused
electrical pass, battery replay and result packaging are one body.

Results are **bit-identical** to ``executor="serial"`` (pinned in the
parity suite) for everything except the wall-clock ``runtime_s`` series,
which by construction measures the *fused* decision cost split evenly
across the group.  The scanner draw is per case, as in the serial
engine; the decision epochs depend only on the shared time vector and
period, so one :class:`~repro.core.controller.EpochClock` schedule
drives every case; and ``inor_stack`` / ``dnor_stack`` are pinned
equal lane for lane to the one-lane calls the serial policies make.

Cases that do not fit the fused contract — EHTR, scalar-kernel INOR,
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
from repro.core.dnor import dnor_stack, thevenin_from_temps
from repro.core.inor import _inor_stack_raw
from repro.errors import SimulationError
from repro.sim.results import SimulationResult
from repro.sim.simulator import EpochLedger, collate_lanes

__all__ = ["fusable_reason", "run_grid_stacked", "stack_key"]


def fusable_reason(case) -> Optional[str]:
    """Why ``case`` cannot join a fused group, or ``None`` if it can.

    The fused pass covers the grid's hot diagonals — batched-kernel
    INOR and DNOR (which always proposes through the batched INOR
    pass) under deterministic (nominal) compute accounting, plus the
    trivially stackable Baseline — and leaves every other shape to the
    bit-identical per-case path rather than growing special cases.
    """
    scenario = case.scenario
    if not scenario.make_charger(with_battery=case.with_battery).exact_tracking:
        return "P&O tracking is inherently sequential"
    if case.policy == "Baseline":
        return None
    if case.policy not in ("INOR", "DNOR"):
        return f"policy {case.policy!r} has no stacked epoch kernel"
    if case.policy == "INOR" and scenario.inor_kernel != "batched":
        return f"kernel {scenario.inor_kernel!r} is the scalar reference"
    if scenario.nominal_compute_s is None:
        return "measured compute time is per-case wall-clock"
    return None


def stack_key(scenario, policy: str) -> Tuple:
    """Hashable stacking identity shared by gridstack and the serve hub.

    Policy name (first: the group runners dispatch on it), array size,
    module electricals and converter curve, plus for DNOR the horizon
    geometry ``(tp_seconds, dt_s)`` of the ``dnor_stack`` homogeneity
    contract.  DNOR always proposes through the batched INOR pass, so
    the scenario's INOR kernel is not part of the key.
    """
    key: Tuple = (
        policy,
        int(scenario.n_modules),
        scenario.module,
        scenario.make_charger(with_battery=False).converter,
    )
    if policy == "DNOR":
        key += (float(scenario.tp_seconds), float(scenario.trace.dt_s))
    return key


def _group_key(case, physics_id) -> Tuple:
    """Hashable fused-group identity: one key, one stacked epoch stream.

    :func:`stack_key` plus the shared trace physics and the epoch clock.
    ``physics_id`` names the physics: ``id(physics)`` at run time, the
    content fingerprint when sharding.
    """
    scenario = case.scenario
    return stack_key(scenario, case.policy) + (
        physics_id,
        float(scenario.control_period_s),
    )


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


def _collate(
    cases: Sequence, physics, ledger: EpochLedger, scheme: str
) -> List[SimulationResult]:
    """Each case's own charger and overhead model through the one tail."""
    chargers = [
        case.scenario.make_charger(with_battery=case.with_battery)
        for case in cases
    ]
    overheads = [case.scenario.overhead for case in cases]
    return collate_lanes(physics, ledger, chargers, overheads, scheme)


def _run_inor_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one homogeneous INOR group through the fused stacked pass."""
    scenario0 = cases[0].scenario
    trace = physics.trace
    n_cases = len(cases)
    n_modules = physics.n_modules
    module = scenario0.module
    rank_charger = scenario0.make_charger(with_battery=False)
    scanned = _scan_group(cases, physics)
    nominal = [case.scenario.nominal_compute_s for case in cases]

    ledger = EpochLedger(n_cases, n_modules, trace.n_samples)
    case_index = np.arange(n_cases)
    for i in _decision_schedule(trace.time_s, scenario0.control_period_s):
        ambient = float(trace.ambient_c[i])
        # One stacked Thevenin + INOR pass decides every case at once.
        emf_rows, resistance = thevenin_from_temps(
            module, scanned[:, i, :], ambient
        )
        t0 = time.perf_counter()
        stack, _, _, _, _, winners, _, _ = _inor_stack_raw(
            emf_rows, resistance[0], rank_charger
        )
        ledger.runtimes[:, i] = (time.perf_counter() - t0) / n_cases

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
        ledger.apply(i, float(trace.time_s[i]), case_index, decided, nominal)

    return _collate(cases, physics, ledger, "INOR")


def _run_dnor_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one homogeneous DNOR group through the stacked epoch kernel.

    Per-case :class:`~repro.core.controller.DNORPolicy` state —
    predictor stream, history window, durable configuration — is
    carried per lane; every epoch decision runs through **one**
    :func:`repro.core.dnor.dnor_stack` call, and the switched lanes'
    configurations go to the shared :class:`EpochLedger`.
    """
    trace = physics.trace
    n_cases = len(cases)
    policies = [case.scenario.make_dnor_policy() for case in cases]
    planners = [policy.planner for policy in policies]
    caps = [policy.history_rows for policy in policies]
    scanned = _scan_group(cases, physics)
    nominal = [case.scenario.nominal_compute_s for case in cases]

    ledger = EpochLedger(n_cases, physics.n_modules, trace.n_samples)
    currents: List[Optional[object]] = [None] * n_cases
    prev_i: Optional[int] = None
    for i in _decision_schedule(trace.time_s, planners[0].epoch_seconds):
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
            planners,
            histories,
            ambient,
            currents,
            new_rows=[new_rows] * n_cases,
        )
        ledger.runtimes[:, i] = (time.perf_counter() - t0) / n_cases

        switched = [k for k, decision in enumerate(decisions) if decision.switch]
        for k in switched:
            currents[k] = decisions[k].config
        ledger.apply_starts(
            i,
            float(trace.time_s[i]),
            switched,
            [currents[k].starts for k in switched],
            [nominal[k] for k in switched],
        )
        prev_i = i

    return _collate(cases, physics, ledger, "DNOR")


def _run_baseline_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one Baseline group as a degenerate (single-span) stack.

    :class:`~repro.core.controller.StaticPolicy` applies its wired-in
    grid at the first sample, for free, and never decides again: every
    case is one configuration span over the whole trace, so the whole
    group collapses into one fused electrical pass (the tail evaluates
    each sample once per configuration) plus per-case converter and
    battery replay.  The
    scanner draw is skipped entirely — the static policy never reads
    the sensed temperatures, and each case's scanner is private state,
    so the omission is unobservable.
    """
    trace = physics.trace
    ledger = EpochLedger(len(cases), physics.n_modules, trace.n_samples)
    ledger.apply_starts(
        0,
        float(trace.time_s[0]),
        range(len(cases)),
        [case.scenario.make_baseline_policy().config.starts for case in cases],
        0.0,
    )
    return _collate(cases, physics, ledger, "Baseline")


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
