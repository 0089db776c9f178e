"""Tests for the layered simulation engine.

Covers the three layers introduced by the batch-engine refactor:

* trace-level physics precompute (``solve_trace`` / ``TracePhysics``)
  against the per-sample scalar path,
* the batched step loop against the pre-refactor reference loop,
* the :class:`ExperimentRunner` fan-out against direct sequential
  runs — pinned *bit-identical* on a seeded scenario, for every
  executor.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.power.charger import TEGCharger
from repro.power.converter import BuckBoostConverter
from repro.sim.engine import (
    ExperimentCase,
    ExperimentCollation,
    ExperimentRunner,
    grid_cases,
    run_case,
)
from repro.sim.physics import TracePhysics
from repro.sim.results import SimulationResult
from repro.sim.scenario import (
    build_named_scenario,
    default_registry,
    default_scenario,
    fault_injected_trace,
)
from repro.sim.simulator import HarvestSimulator
from repro.teg.array import TEGArray


@pytest.fixture(scope="module")
def scenario():
    """Pinned seeded scenario: deterministic scanner + overhead bills."""
    return default_scenario(
        duration_s=30.0, seed=5, n_modules=25, nominal_compute_s=1.0e-3
    )


@pytest.fixture(scope="module")
def physics(scenario):
    return TracePhysics.compute(
        scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
    )


SERIES_FIELDS = (
    "delivered_power_w",
    "gross_power_w",
    "array_voltage_v",
    "ideal_power_w",
    "n_groups_series",
    "time_s",
)


def assert_results_bit_identical(a, b):
    for field in SERIES_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.switch_times_s == b.switch_times_s
    assert len(a.overhead_events) == len(b.overhead_events)
    for ea, eb in zip(a.overhead_events, b.overhead_events):
        assert ea.time_s == eb.time_s
        assert ea.energy_j == eb.energy_j
        assert ea.toggles == eb.toggles


class TestSolveTraceAgreement:
    def test_matches_per_sample_operating_point(self, scenario):
        trace = scenario.trace
        sol = scenario.boundary.solve_trace(
            trace.coolant_inlet_c,
            trace.coolant_flow_kg_s,
            trace.ambient_c,
            trace.air_flow_kg_s,
            scenario.n_modules,
        )
        assert sol.n_samples == trace.n_samples
        assert sol.n_modules == scenario.n_modules
        for i in range(trace.n_samples):
            op = scenario.boundary.operating_point(
                float(trace.coolant_inlet_c[i]),
                float(trace.coolant_flow_kg_s[i]),
                float(trace.ambient_c[i]),
                float(trace.air_flow_kg_s[i]),
                scenario.n_modules,
            )
            np.testing.assert_allclose(
                sol.delta_t_k[i], op.delta_t_k, rtol=1e-12, atol=1e-12
            )
            np.testing.assert_allclose(
                sol.surface_temps_c[i], op.surface_temps_c, rtol=1e-12
            )
            assert sol.decay_per_m[i] == pytest.approx(op.decay_per_m, rel=1e-12)
            assert sol.exchanger.duty_w[i] == pytest.approx(
                op.solution.duty_w, rel=1e-12, abs=1e-9
            )

    def test_cold_start_rows_match_degenerate_path(self):
        scenario = build_named_scenario("cold-start", duration_s=30.0)
        trace = scenario.trace
        sol = scenario.boundary.solve_trace(
            trace.coolant_inlet_c,
            trace.coolant_flow_kg_s,
            trace.ambient_c,
            trace.air_flow_kg_s,
            scenario.n_modules,
        )
        assert not sol.active.all()  # the soak starts below ambient + 0.05
        i = int(np.flatnonzero(~sol.active)[0])
        op = scenario.boundary.operating_point(
            float(trace.coolant_inlet_c[i]),
            float(trace.coolant_flow_kg_s[i]),
            float(trace.ambient_c[i]),
            float(trace.air_flow_kg_s[i]),
            scenario.n_modules,
        )
        assert np.array_equal(sol.delta_t_k[i], op.delta_t_k)
        assert sol.exchanger.duty_w[i] == 0.0

    def test_operating_point_reconstruction(self, scenario, physics):
        op = physics.true_solution.operating_point(3)
        assert op.delta_t_k.shape == (scenario.n_modules,)
        assert op.coolant_outlet_c == pytest.approx(
            float(physics.true_solution.exchanger.hot_outlet_c[3])
        )


class TestTracePhysics:
    def test_sensed_solve_skipped_when_noiseless(self, scenario):
        trace = scenario.trace
        noiseless = dataclasses.replace(
            trace,
            coolant_inlet_sensed_c=trace.coolant_inlet_c,
            coolant_flow_sensed_kg_s=trace.coolant_flow_kg_s,
        )
        physics = TracePhysics.compute(
            noiseless, scenario.boundary, scenario.module, scenario.n_modules
        )
        assert physics.noiseless
        assert physics.sensed_solution is physics.true_solution

    def test_noisy_trace_solves_twice(self, physics):
        assert not physics.noiseless
        assert physics.sensed_solution is not physics.true_solution

    def test_ideal_matches_array_path(self, scenario, physics):
        array = TEGArray(scenario.module, scenario.n_modules)
        for i in (0, 7, physics.n_samples - 1):
            array.set_delta_t(physics.true_delta_t_k[i])
            assert physics.ideal_power_w[i] == array.ideal_power()

    def test_emf_matches_array_path(self, scenario, physics):
        array = TEGArray(scenario.module, scenario.n_modules)
        array.set_delta_t(physics.true_delta_t_k[4])
        assert np.array_equal(physics.emf_true[4], array.emf_vector())


class TestBatchedVsReference:
    @pytest.mark.parametrize("policy", ["Baseline", "INOR", "DNOR"])
    def test_engines_agree(self, scenario, policy):
        def run(engine):
            simulator = HarvestSimulator(
                trace=scenario.trace,
                boundary=scenario.boundary,
                module=scenario.module,
                n_modules=scenario.n_modules,
                overhead=scenario.overhead,
                scanner=scenario.make_scanner(),
                nominal_compute_s=scenario.nominal_compute_s,
                engine=engine,
            )
            return simulator.run(
                scenario.make_policies()[policy], scenario.make_charger()
            )

        batched = run("batched")
        reference = run("reference")
        # The reference loop computes the thermal chain with scalar
        # libm calls, so agreement is ULP-level, not bitwise.
        for field in SERIES_FIELDS:
            np.testing.assert_allclose(
                getattr(batched, field),
                getattr(reference, field),
                rtol=1e-9,
                atol=1e-9,
            )
        assert batched.switch_count == reference.switch_count
        assert batched.switch_overhead_j == pytest.approx(
            reference.switch_overhead_j, rel=1e-9
        )

    def test_po_tracking_fallback(self, scenario):
        simulator = scenario.make_simulator()
        result = simulator.run(
            scenario.make_baseline_policy(), TEGCharger(exact_tracking=False)
        )
        exact = simulator.run(
            scenario.make_baseline_policy(), TEGCharger(exact_tracking=True)
        )
        # P&O maximises *array* power; after the converter's
        # voltage-dependent efficiency its delivered energy can land a
        # hair above or below the exact-MPP loop.
        ratio = result.delivered_energy_j / exact.delivered_energy_j
        assert 0.99 < ratio < 1.01

    def test_battery_state_replayed(self, scenario):
        charger = scenario.make_charger(with_battery=True)
        simulator = scenario.make_simulator()
        simulator.run(scenario.make_baseline_policy(), charger)
        assert charger.battery is not None
        assert charger.battery.absorbed_energy_j > 0.0

    def test_battery_not_double_charged_with_po_tracking(self, scenario):
        """The P&O fallback charges the battery inside charger.step;
        the replay pass must not bill it a second time."""
        from repro.power.battery import LeadAcidBattery

        def run(engine):
            charger = TEGCharger(
                exact_tracking=False, battery=LeadAcidBattery()
            )
            simulator = HarvestSimulator(
                trace=scenario.trace,
                boundary=scenario.boundary,
                module=scenario.module,
                n_modules=scenario.n_modules,
                scanner=scenario.make_scanner(),
                nominal_compute_s=1.0e-3,
                engine=engine,
            )
            simulator.run(scenario.make_baseline_policy(), charger)
            return charger.battery.absorbed_energy_j

        assert run("batched") == pytest.approx(run("reference"), rel=1e-9)

    def test_physics_cached_across_runs(self, scenario):
        simulator = scenario.make_simulator()
        simulator.run(scenario.make_baseline_policy(), scenario.make_charger())
        first = simulator.physics
        simulator.run(scenario.make_inor_policy(), scenario.make_charger())
        assert simulator.physics is first

    def test_rejects_unknown_engine(self, scenario):
        with pytest.raises(SimulationError):
            HarvestSimulator(
                trace=scenario.trace,
                boundary=scenario.boundary,
                module=scenario.module,
                n_modules=scenario.n_modules,
                engine="warp",
            )

    def test_rejects_mismatched_physics(self, scenario, physics):
        other = default_scenario(duration_s=20.0, seed=6, n_modules=25)
        with pytest.raises(SimulationError):
            HarvestSimulator(
                trace=other.trace,
                boundary=other.boundary,
                module=other.module,
                n_modules=other.n_modules,
                physics=physics,
            )


class TestExperimentRunnerEquivalence:
    """The acceptance pin: the batch layer reproduces sequential runs
    bit-identically on a seeded scenario, for every executor."""

    @pytest.fixture(scope="class")
    def sequential(self, scenario):
        results = {}
        for policy in ("DNOR", "INOR", "Baseline"):
            simulator = scenario.make_simulator()
            results[policy] = simulator.run(
                scenario.make_policies()[policy], scenario.make_charger()
            )
        return results

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_bit_identical_to_sequential(self, scenario, sequential, executor):
        cases = grid_cases([scenario], ["DNOR", "INOR", "Baseline"])
        collation = ExperimentRunner(
            cases, executor=executor, max_workers=2
        ).run()
        assert len(collation) == 3
        for case in cases:
            assert_results_bit_identical(
                collation[case.name], sequential[case.policy]
            )

    def test_grid_axes_and_names(self, scenario):
        cases = grid_cases(
            [scenario],
            ["Baseline"],
            n_modules=[16, 25],
            scanner_noise_std_k=[0.0, 0.5],
        )
        assert len(cases) == 4
        names = [c.name for c in cases]
        assert f"{scenario.trace.name}/N=16/noise=0K/Baseline" in names
        noisy = next(c for c in cases if "noise=0.5K" in c.name)
        assert noisy.scenario.scanner_noise_std_k == 0.5
        assert noisy.scenario.n_modules in (16, 25)

    def test_duplicate_names_rejected(self, scenario):
        case = ExperimentCase(name="x", scenario=scenario, policy="Baseline")
        with pytest.raises(SimulationError):
            ExperimentRunner([case, case])

    def test_unknown_policy_rejected(self, scenario):
        case = ExperimentCase(name="x", scenario=scenario, policy="MAGIC")
        with pytest.raises(SimulationError):
            run_case(case)

    def test_unknown_executor_rejected(self, scenario):
        case = ExperimentCase(name="x", scenario=scenario, policy="Baseline")
        with pytest.raises(SimulationError):
            ExperimentRunner([case], executor="gpu")

    def test_collation_accessors(self, scenario):
        cases = grid_cases([scenario], ["Baseline", "INOR"])
        collation = ExperimentRunner(cases, executor="serial").run()
        assert "Energy Output (J)" in collation.tables()
        rows = collation.summary_rows()
        assert {row["policy"] for row in rows} == {"Baseline", "INOR"}
        assert "energy_output_j" in collation.to_json()
        pairs = list(collation)  # iterable: (case, result) pairs
        assert len(pairs) == 2
        assert pairs[0][0] is cases[0]
        with pytest.raises(KeyError):
            collation["nope"]

    def test_failed_case_names_itself(self, scenario, physics):
        """One bad cell in a pooled/sharded grid must say which case it
        was: the worker's traceback surfaces far from the submission
        site."""
        other = default_scenario(duration_s=20.0, seed=6, n_modules=25)
        case = ExperimentCase(
            name="porter/bad-cell", scenario=other, policy="Baseline"
        )
        with pytest.raises(SimulationError, match="case 'porter/bad-cell' failed"):
            run_case(case, physics=physics)  # physics of another scenario
        try:
            run_case(case, physics=physics)
        except SimulationError as exc:
            assert exc.__cause__ is not None  # original error chained

    def test_collation_json_sanitises_non_finite(self, scenario):
        """NaN/Inf summary values must serialise as null, not as the
        non-standard NaN/Infinity tokens strict parsers reject."""
        import json as json_mod

        case = ExperimentCase(name="x/Baseline", scenario=scenario, policy="Baseline")
        n = 4
        result = SimulationResult(
            scheme="Baseline",
            time_s=np.arange(n) * 0.5,
            gross_power_w=np.full(n, np.nan),
            delivered_power_w=np.full(n, np.nan),
            ideal_power_w=np.full(n, np.inf),
            array_voltage_v=np.zeros(n),
            runtime_s=np.zeros(n),
            overhead_events=(),
            switch_times_s=(),
            n_groups_series=np.ones(n, dtype=np.int64),
        )
        collation = ExperimentCollation(cases=(case,), results=(result,))
        text = collation.to_json()
        rows = json_mod.loads(text)  # strict parse must succeed
        assert rows[0]["energy_output_j"] is None
        assert "NaN" not in text and "Infinity" not in text

    def test_registry_scenarios_are_deterministic(self):
        """Registry builders pin nominal_compute_s, so repeated DNOR
        runs are bit-identical (the engine's reproducibility contract
        for everything users can build by name)."""

        def run_once():
            scenario = build_named_scenario(
                "porter-ii", duration_s=15.0, n_modules=25
            )
            assert scenario.nominal_compute_s is not None
            return scenario.make_simulator().run(
                scenario.make_dnor_policy(), scenario.make_charger()
            )

        a, b = run_once(), run_once()
        assert np.array_equal(a.delivered_power_w, b.delivered_power_w)
        assert a.switch_overhead_j == b.switch_overhead_j


class TestBatchedPowerMath:
    def test_converter_batch_matches_scalar(self):
        converter = BuckBoostConverter()
        rng = np.random.default_rng(3)
        power = rng.uniform(-5.0, 120.0, 400)
        voltage = rng.uniform(-2.0, 60.0, 400)
        batch = converter.output_power_batch(power, voltage)
        scalar = np.array(
            [
                converter.output_power(float(p), float(v))
                for p, v in zip(power, voltage)
            ]
        )
        assert np.array_equal(batch, scalar)

    def test_efficiency_batch_matches_scalar(self):
        converter = BuckBoostConverter()
        voltages = np.array([-1.0, 0.0, 0.5, 5.0, 14.5, 40.0, 200.0])
        batch = converter.efficiency_batch(voltages)
        scalar = np.array([converter.efficiency(float(v)) for v in voltages])
        assert np.array_equal(batch, scalar)

    def test_charger_delivered_batch(self):
        charger = TEGCharger()
        power = np.array([0.0, 10.0, 50.0])
        voltage = np.array([5.0, 15.0, 30.0])
        assert np.array_equal(
            charger.delivered_batch(power, voltage),
            charger.converter.output_power_batch(power, voltage),
        )


class TestScenarioRegistry:
    def test_registry_names(self):
        names = default_registry().names()
        assert names == (
            "porter-ii",
            "nedc-drive",
            "cold-start",
            "industrial-boiler",
            "fault-injection",
            "exhaust-gas",
            "finite-coupling",
            "segmented-exhaust",
            "steel-hybrid",
        )

    def test_build_overrides(self):
        scenario = build_named_scenario(
            "porter-ii", duration_s=20.0, seed=9, n_modules=16
        )
        assert scenario.n_modules == 16
        assert scenario.trace.duration_s == pytest.approx(20.0)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            build_named_scenario("warp-core")

    def test_boiler_scenario_is_hot_and_square(self):
        scenario = build_named_scenario("industrial-boiler", duration_s=30.0)
        assert scenario.n_modules == 144  # perfect square: baseline valid
        assert scenario.trace.coolant_inlet_c.mean() > 120.0
        # The bank actually harvests.
        result = scenario.make_simulator().run(
            scenario.make_baseline_policy(), scenario.make_charger()
        )
        assert result.energy_output_j > 0.0

    def test_fault_injection_leaves_truth_untouched(self):
        base = build_named_scenario("porter-ii", duration_s=20.0)
        faulty = build_named_scenario("fault-injection", duration_s=20.0)
        assert np.array_equal(
            base.trace.coolant_inlet_c, faulty.trace.coolant_inlet_c
        )
        assert not np.array_equal(
            base.trace.coolant_inlet_sensed_c,
            faulty.trace.coolant_inlet_sensed_c,
        )
        assert faulty.scanner_noise_std_k == 0.5

    def test_fault_injected_trace_has_stuck_episodes(self):
        base = build_named_scenario("porter-ii", duration_s=60.0).trace
        faulty = fault_injected_trace(base, seed=1, stuck_probability=0.2)
        diffs = np.diff(faulty.coolant_inlet_sensed_c)
        assert np.any(diffs == 0.0)  # frozen readings exist

    def test_nedc_scenario_builds(self):
        scenario = build_named_scenario("nedc-drive", duration_s=40.0, seed=3)
        assert scenario.trace.n_samples == 81
        assert scenario.trace.name.startswith("nedc-")
