"""Grid-stacked fused simulation: one decision pass for a whole case grid.

Boiler-scale experiment grids are dominated by decision epochs: a
64-case noise-axis grid over one trace re-runs the same
window-derivation + partition-build + MPP-scoring pipeline 64 times per
control period, each time over a different scanned temperature vector
but through *identical* kernels.  The ``executor="gridstack"`` path of
:class:`~repro.sim.engine.ExperimentRunner` exploits that homogeneity:
cases sharing one physics precompute, chain length, control period,
converter and policy shape are grouped, and every decision epoch runs
as **one** stacked kernel pass instead of ``C`` per-case policy calls.
Each lane runs its own policy (``Scenario.make_policy``), whose
``observe`` gates every sample, and :func:`decide_epochs` — the one
stacked epoch step, shared with the serve hub — decides the due lanes:

* **INOR** epochs in one batched INOR ranking over the stacked
  ``(C, N)`` EMF matrix, winners gathered straight to membership rows;
* **DNOR** epochs in one :func:`repro.core.dnor.dnor_stack` call, then
  each lane's own ``commit``;
* **Baseline** cases fuse trivially as a degenerate stack — one shared
  configuration, one span, one electrical pass.

Every group hands its decided configurations to one
:class:`~repro.sim.simulator.EpochLedger` lane per case and finishes in
:func:`~repro.sim.simulator.collate_lanes` — the ledger and tail the
serial engine runs as one lane.  So commissioning, billing, the fused
electrical pass, battery replay and result packaging are one body.

Results are **bit-identical** to ``executor="serial"`` (pinned in the
parity suite) for everything except the wall-clock ``runtime_s`` series,
which by construction measures the *fused* step's cost split evenly
across its lanes.  The scanner draw is per case, as in the serial
engine; the gate, history and commit are each lane's own policy code;
and the stacked kernels are pinned equal lane for lane to the one-lane
calls the serial policies make.

Cases that do not fit the fused contract — EHTR (no stacked epoch
kernel) and measured (non-nominal) compute time — fall back to
:func:`repro.sim.engine.run_case` over the same shared physics, i.e.
exactly the serial path.  A P&O-tracking charger fuses like any other:
:func:`~repro.sim.simulator.collate_lanes` steps each such lane's
tracker on its own.  Mixed grids therefore partition into
homogeneous fused groups plus a serial remainder instead of dropping
wholesale to serial.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dnor import dnor_stack
from repro.core.inor import _inor_stack_raw
from repro.errors import SimulationError
from repro.sim.results import SimulationResult
from repro.sim.simulator import EpochLedger, collate_lanes

__all__ = [
    "decide_epochs", "fusable_reason", "run_grid_stacked", "stack_key"
]


def fusable_reason(case) -> Optional[str]:
    """Why ``case`` cannot join a fused group, or ``None`` if it can.

    The fused pass covers the grid's hot diagonals — INOR and DNOR
    under deterministic (nominal) compute accounting, plus the
    trivially stackable Baseline — and leaves the two genuinely
    sequential shapes to the bit-identical per-case path: a policy
    with no stacked epoch kernel (EHTR), and measured compute time,
    which bills each case its own wall-clock.
    """
    if case.policy == "Baseline":
        return None
    if case.policy not in ("INOR", "DNOR"):
        return f"policy {case.policy!r} has no stacked epoch kernel"
    if case.scenario.nominal_compute_s is None:
        return "measured compute time is per-case wall-clock"
    return None


def stack_key(scenario, policy: str) -> Tuple:
    """Hashable stacking identity shared by gridstack and the serve hub.

    Policy name (first: the group runners dispatch on it), array size,
    module electricals and converter curve, plus for DNOR the horizon
    geometry ``(tp_seconds, dt_s)`` of the ``dnor_stack`` homogeneity
    contract.
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


def decide_epochs(
    policies: Sequence, times: Sequence[float], inputs: Sequence[tuple]
) -> np.ndarray:
    """The one stacked epoch step: decide a stack group's due epochs.

    Epoch ``j`` is what ``policies[j].observe`` returned at sample time
    ``times[j]``.  The policies share one :func:`stack_key`, and a DNOR
    policy appears at most once (its epochs chain).  INOR epochs are
    ranked by one ``_inor_stack_raw`` pass and every winner applies;
    DNOR epochs are planned by one ``dnor_stack`` pass against each
    policy's current configuration, then committed in order through
    each policy's own ``commit``.  Gridstack and the serve hub reach
    the decision kernels only through here.

    Returns one boolean group-start membership row per epoch: the
    configuration it applies, or all ``False`` where it keeps the
    current one (a configuration always starts a group at module 0).
    """
    if policies[0].name == "DNOR":
        decisions = dnor_stack(
            [policy.planner for policy in policies],
            [history for history, _, _ in inputs],
            np.array([ambient for _, ambient, _ in inputs]),
            [policy.current_config for policy in policies],
            new_rows=[new_rows for _, _, new_rows in inputs],
        )
        rows = np.zeros((len(inputs), inputs[0][0].shape[1]), dtype=bool)
        for row, policy, t, decision in zip(rows, policies, times, decisions):
            config = policy.commit(t, decision)
            if config is not None:
                row[list(config.starts)] = True
        return rows

    emf_rows = np.vstack([emf for emf, _ in inputs])
    stack, _, _, _, _, winners, _, _ = _inor_stack_raw(
        emf_rows, inputs[0][1], policies[0].charger
    )
    # Winner configurations -> membership rows, no per-epoch Python.
    counts = np.diff(stack.offsets)[winners]
    within = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    starts = stack.cat[np.repeat(stack.offsets[winners], counts) + within]
    rows = np.zeros(emf_rows.shape, dtype=bool)
    rows[np.repeat(np.arange(len(inputs)), counts), starts] = True
    return rows


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


def _run_stacked_group(cases: Sequence, physics) -> List[SimulationResult]:
    """Run one homogeneous INOR or DNOR group, one stacked step per epoch.

    Each case runs its own policy (built by ``Scenario.make_policy``):
    every sample goes through the lane's own ``observe``, the due lanes
    are decided together by :func:`decide_epochs`, and the applied
    configurations go to the shared :class:`EpochLedger`.  Only the
    step is timed, split evenly across its lanes.
    """
    trace = physics.trace
    policies = [case.scenario.make_policy(case.policy) for case in cases]
    scanned = _scan_group(cases, physics)
    nominal = np.array([case.scenario.nominal_compute_s for case in cases])

    ledger = EpochLedger(len(cases), physics.n_modules, trace.n_samples)
    for i in range(trace.n_samples):
        t = float(trace.time_s[i])
        ambient = float(trace.ambient_c[i])
        lanes, inputs = [], []
        for k, policy in enumerate(policies):
            observed = policy.observe(t, scanned[k, i], ambient)
            if observed is not None:
                lanes.append(k)
                inputs.append(observed)
        if not lanes:
            continue
        t0 = time.perf_counter()
        rows = decide_epochs(
            [policies[k] for k in lanes], [t] * len(lanes), inputs
        )
        ledger.runtimes[lanes, i] = (time.perf_counter() - t0) / len(lanes)
        applied = rows[:, 0]  # every configuration starts at module 0
        lanes = np.array(lanes)[applied]
        ledger.apply(i, t, lanes, rows[applied], nominal[lanes])

    return _collate(cases, physics, ledger, policies[0].name)


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
        runner = (
            _run_baseline_group if key[0] == "Baseline" else _run_stacked_group
        )
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
