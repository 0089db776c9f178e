"""Grid-stacked fused executor: grouping, fallback and schedule pins.

The executor-level *bitwise* parity against ``executor="serial"`` lives
in :mod:`tests.test_engine_parity`; this module pins the plumbing around
the fused pass — which cases may fuse (:func:`fusable_reason`), that the
fused lanes decide like the serial executor over any time shape (and
fire on exactly the :class:`~repro.core.controller.PeriodicPolicy`
gate's samples), that unfusable
cases fall back to the untouched per-case path in collation order, and
that group failures surface with the member case names attached.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.controller import PeriodicPolicy
from repro.errors import SimulationError
from repro.power.battery import LeadAcidBattery
from repro.power.charger import TEGCharger
from repro.sim import gridstack
from repro.sim.engine import EXECUTORS, ExperimentRunner, grid_cases, run_case
from repro.sim.gridstack import (
    _group_key,
    fusable_reason,
    run_grid_stacked,
)
from repro.sim.scenario import build_named_scenario

DURATION_S = 15.0
N_MODULES = 16


@pytest.fixture(scope="module")
def scenario():
    return build_named_scenario(
        "porter-ii", duration_s=DURATION_S, n_modules=N_MODULES
    )


def _case(scenario, policy="INOR", **scenario_overrides):
    if scenario_overrides:
        scenario = dataclasses.replace(scenario, **scenario_overrides)
    return grid_cases([scenario], [policy])[0]


class _PerturbObserveScenario:
    """Scenario proxy whose charger tracks by P&O, not the analytic MPP."""

    def __init__(self, scenario):
        self._scenario = scenario

    def __getattr__(self, name):
        return getattr(self._scenario, name)

    def make_charger(self, with_battery=True):
        battery = LeadAcidBattery() if with_battery else None
        return TEGCharger(battery=battery, exact_tracking=False)


class TestFusableReason:
    def test_registry_inor_case_fuses(self, scenario):
        assert fusable_reason(_case(scenario)) is None

    @pytest.mark.parametrize("policy", ["DNOR", "Baseline"])
    def test_stackable_policies_fuse(self, scenario, policy):
        assert fusable_reason(_case(scenario, policy=policy)) is None

    def test_ehtr_does_not_fuse(self, scenario):
        reason = fusable_reason(_case(scenario, policy="EHTR"))
        assert reason is not None and "EHTR" in reason

    def test_measured_compute_time_does_not_fuse(self, scenario):
        reason = fusable_reason(_case(scenario, nominal_compute_s=None))
        assert reason is not None and "compute" in reason

    def test_perturb_observe_group_fuses(self, scenario):
        """P&O tracking is per lane in the one electrical tail, so P&O
        INOR, DNOR and Baseline groups fuse, with or without a battery,
        and decide bit for bit like the serial executor."""
        cases = [
            dataclasses.replace(
                case,
                scenario=_PerturbObserveScenario(case.scenario),
                with_battery=k < 3,
            )
            for k, case in enumerate(
                grid_cases(
                    [scenario],
                    ["INOR", "DNOR", "Baseline"],
                    scanner_noise_std_k=[0.02, 0.08],
                )
            )
        ]
        for case in cases:
            assert fusable_reason(case) is None
        stacked = ExperimentRunner(cases, executor="gridstack").run()
        serial = ExperimentRunner(cases, executor="serial").run()
        for case in cases:
            a, b = serial[case.name], stacked[case.name]
            for field in dataclasses.fields(a):
                if field.name == "runtime_s":
                    continue  # measured wall-clock, not a decision
                want, got = getattr(a, field.name), getattr(b, field.name)
                if isinstance(want, np.ndarray):
                    assert want.tobytes() == got.tobytes(), field.name
                else:
                    assert want == got, field.name


def _policy_firings(scenario, time_s, period):
    """Sample indices where a real PeriodicPolicy returns a decision."""
    policy = PeriodicPolicy(
        module=scenario.module, algorithm="inor", period_s=period
    )
    temps = np.linspace(90.0, 60.0, N_MODULES)
    return [
        i
        for i, t in enumerate(time_s)
        if policy.decide(float(t), temps, 25.0) is not None
    ]


def _retimed(scenario, time_s, **overrides):
    """``scenario`` over its trace's first ``len(time_s)`` samples,
    re-stamped at ``time_s``."""
    trace = scenario.trace
    n = len(time_s)
    columns = {
        field.name: getattr(trace, field.name)[:n]
        for field in dataclasses.fields(trace)
        if field.name not in ("time_s", "name")
    }
    trace = dataclasses.replace(
        trace, time_s=np.asarray(time_s, dtype=float), **columns
    )
    return dataclasses.replace(scenario, trace=trace, **overrides)


def _stacked_equals_serial(scenario):
    """Run INOR and DNOR cases through the gridstack and serial
    executors, assert bit parity, and return the stacked results by
    policy (lowest-noise case)."""
    cases = grid_cases(
        [scenario], ["INOR", "DNOR"], scanner_noise_std_k=[0.02, 0.08]
    )
    stacked = ExperimentRunner(cases, executor="gridstack").run()
    serial = ExperimentRunner(cases, executor="serial").run()
    by_policy = {}
    for case in cases:
        assert fusable_reason(case) is None
        a, b = serial[case.name], stacked[case.name]
        for field in ("delivered_power_w", "gross_power_w", "n_groups_series"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.switch_times_s == b.switch_times_s
        assert a.overhead_events == b.overhead_events
        by_policy.setdefault(case.policy, b)
    return by_policy


def _fired(result):
    """Samples a fused lane decided on: the step is timed only there."""
    return np.flatnonzero(result.runtime_s).tolist()


class TestDecisionSchedule:
    """Each fused lane gates through its own policy, so the gridstack
    executor decides bit for bit like the serial one over any time
    shape, and INOR fires on exactly the PeriodicPolicy gate's samples."""

    @pytest.mark.parametrize(
        "dt,period",
        [(0.1, 0.5), (0.1, 0.25), (0.3, 0.5), (0.1, 0.1), (0.7, 0.5)],
    )
    def test_matches_periodic_policy_gate(self, scenario, dt, period):
        time_s = np.arange(scenario.trace.n_samples) * dt
        fired = _policy_firings(scenario, time_s, period)
        stacked = _stacked_equals_serial(
            _retimed(scenario, time_s, control_period_s=period)
        )
        assert _fired(stacked["INOR"]) == fired

    def test_first_sample_always_fires(self, scenario):
        stacked = _stacked_equals_serial(
            _retimed(scenario, [0.0, 0.5, 1.0], control_period_s=10.0)
        )
        for result in stacked.values():
            assert _fired(result) == [0]
            assert result.switch_times_s == ()  # the first one is free

    def test_period_shorter_than_sample_dt_fires_every_sample(self, scenario):
        """The gate re-arms from the firing sample's time, so a period
        below the sampling interval degenerates to every-sample."""
        time_s = np.arange(10) * 0.5
        stacked = _stacked_equals_serial(
            _retimed(scenario, time_s, control_period_s=0.1)
        )
        assert _fired(stacked["INOR"]) == list(range(10))

    def test_trace_shorter_than_one_period(self, scenario):
        """A trace that ends before the second epoch only ever fires
        the initial decision."""
        for time_s in ([0.0, 0.1], np.arange(4) * 0.1):
            stacked = _stacked_equals_serial(
                _retimed(scenario, time_s, control_period_s=5.0)
            )
            for result in stacked.values():
                assert _fired(result) == [0]

    def test_non_uniform_time_matches_periodic_policy(self, scenario):
        """Irregular sample spacing (jittered, with a gap) gates
        exactly like PeriodicPolicy fed the same doubles."""
        rng = np.random.default_rng(7)
        steps = rng.uniform(0.05, 0.4, size=scenario.trace.n_samples - 1)
        steps[12] = 3.0  # a telemetry gap longer than the period
        time_s = np.concatenate([[0.0], np.cumsum(steps)])
        period = 0.5
        fired = _policy_firings(scenario, time_s, period)
        assert len(fired) > 2  # the jittered trace must actually fire
        stacked = _stacked_equals_serial(
            _retimed(scenario, time_s, control_period_s=period)
        )
        assert _fired(stacked["INOR"]) == fired


class TestGroupingAndFallback:
    def test_group_key_splits_on_chain_and_period(self, scenario):
        from repro.sim.physics import TracePhysics

        physics = TracePhysics.compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        base = _group_key(_case(scenario), id(physics))
        same = _group_key(
            _case(scenario, scanner_noise_std_k=0.3), id(physics)
        )
        other_period = _group_key(
            _case(scenario, control_period_s=1.0), id(physics)
        )
        assert base == same  # noise axis only changes the scanner seed path
        assert base != other_period
        assert base != _group_key(_case(scenario), id(object()))

    def test_mixed_grid_preserves_collation_order(self, scenario):
        """Fused + fallback cases come back in input order, and the
        fallback outputs are exactly run_case's."""
        from repro.sim.physics import TracePhysics

        cases = grid_cases(
            [scenario], ["INOR", "Baseline"], scanner_noise_std_k=[0.02, 0.1]
        )
        physics = TracePhysics.compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        results = run_grid_stacked(cases, [physics] * len(cases))
        assert len(results) == len(cases)
        for case, result in zip(cases, results):
            expected_scheme = "Baseline" if case.policy == "Baseline" else "INOR"
            assert result.scheme == expected_scheme
        # The (now fused) Baseline rows equal the serial path bit for bit.
        for k, case in enumerate(cases):
            if case.policy != "Baseline":
                continue
            serial = run_case(case, physics)
            assert np.array_equal(
                results[k].delivered_power_w, serial.delivered_power_w
            )
            assert np.array_equal(
                results[k].n_groups_series, serial.n_groups_series
            )

    def test_group_failure_names_its_cases(self, scenario, monkeypatch):
        cases = grid_cases([scenario], ["INOR"], scanner_noise_std_k=[0.02])
        from repro.sim.physics import TracePhysics

        physics = TracePhysics.compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )

        def boom(cases, physics):
            raise ValueError("kernel exploded")

        monkeypatch.setattr(gridstack, "_run_stacked_group", boom)
        with pytest.raises(SimulationError) as excinfo:
            run_grid_stacked(cases, [physics])
        assert cases[0].name in str(excinfo.value)
        assert "kernel exploded" in str(excinfo.value)


class TestExecutorWiring:
    def test_gridstack_is_a_registered_executor(self):
        assert "gridstack" in EXECUTORS

    def test_runner_accepts_gridstack(self, scenario):
        cases = grid_cases(
            [scenario], ["INOR"], scanner_noise_std_k=[0.02, 0.08]
        )
        stacked = ExperimentRunner(cases, executor="gridstack").run()
        serial = ExperimentRunner(cases, executor="serial").run()
        for (c1, r1), (c2, r2) in zip(serial, stacked):
            assert c1.name == c2.name
            assert r1.delivered_power_w.tobytes() == r2.delivered_power_w.tobytes()
            assert r1.overhead_events == r2.overhead_events
