"""Cross-engine differential suite: batched engine vs the reference loop.

The layered engine's contract is that its vectorised fast paths are
*indistinguishable* from the pre-refactor per-sample loop.  This suite
locks that down across every workload users can build by name:

* every :class:`~repro.sim.scenario.ScenarioRegistry` scenario, with
  its natural (noisy) trace *and* a noiseless variant (sensed columns
  equal to the true columns, scanner disabled),
* energy series, per-period decisions (group-count series) and switch
  events, at tight tolerances — the thermal chain is computed by
  scalar libm calls in the reference loop, so series agreement is
  ULP-level rather than bitwise, while the discrete outputs must be
  exactly equal,
* a seeded randomized-trace fuzz case,
* and, per the cache layer's contract, physics served from a warm
  on-disk :class:`~repro.sim.cache.PhysicsCache` must reproduce the
  uncached run *bit-identically*.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import ArrayConfiguration
from repro.core.dnor import DNORPlanner, thevenin_from_temps
from repro.core import controller
from repro.core.controller import PeriodicPolicy
from repro.core.inor import (
    _inor_result,
    _inor_scalar,
    _inor_stack_raw,
    converter_aware_group_range,
    inor,
)
from repro.prediction.mlr import MLRPredictor
from repro.teg.network import greedy_balanced_partition, partition_multi
from repro.sim.cache import PhysicsCache
from repro.sim.physics import TracePhysics
from repro.sim.scenario import (
    REGISTRY_NOMINAL_COMPUTE_S,
    Scenario,
    build_named_scenario,
    default_registry,
)
from repro.sim.simulator import HarvestSimulator
from repro.teg.datasheet import TGM_199_1_4_0_8
from repro.vehicle.trace import RadiatorTrace, default_radiator

SCENARIO_NAMES = default_registry().names()

#: Short runs keep the reference loop affordable; 16 is a perfect
#: square so the Baseline grid stays valid for every scenario.
DURATION_S = 20.0
N_MODULES = 16

#: Energy/electrical series compared at tight (ULP-level) tolerances.
SERIES_FIELDS = (
    "delivered_power_w",
    "gross_power_w",
    "array_voltage_v",
    "ideal_power_w",
    "time_s",
)

POLICIES = ("Baseline", "INOR", "DNOR")


def _noiseless_variant(scenario: Scenario) -> Scenario:
    """Sensed columns = true columns, scanner off: a noiseless world."""
    trace = dataclasses.replace(
        scenario.trace,
        coolant_inlet_sensed_c=scenario.trace.coolant_inlet_c.copy(),
        coolant_flow_sensed_kg_s=scenario.trace.coolant_flow_kg_s.copy(),
        name=f"{scenario.trace.name}-noiseless",
    )
    return dataclasses.replace(scenario, trace=trace, scanner_noise_std_k=0.0)


@pytest.fixture(scope="module")
def scenarios():
    """Each registry scenario, noisy and noiseless, built once."""
    built = {}
    for name in SCENARIO_NAMES:
        scenario = build_named_scenario(
            name, duration_s=DURATION_S, n_modules=N_MODULES
        )
        built[(name, "noisy")] = scenario
        built[(name, "noiseless")] = _noiseless_variant(scenario)
    return built


def run_engine(scenario: Scenario, policy: str, engine: str, physics=None):
    simulator = HarvestSimulator(
        trace=scenario.trace,
        boundary=scenario.boundary,
        module=scenario.module,
        n_modules=scenario.n_modules,
        overhead=scenario.overhead,
        scanner=scenario.make_scanner(),
        nominal_compute_s=scenario.nominal_compute_s,
        physics=physics,
        engine=engine,
    )
    return simulator.run(scenario.make_policies()[policy], scenario.make_charger())


def assert_engines_agree(batched, reference):
    """Series at tight tolerance; decisions and switch events exact."""
    for field in SERIES_FIELDS:
        np.testing.assert_allclose(
            getattr(batched, field),
            getattr(reference, field),
            rtol=1e-9,
            atol=1e-9,
            err_msg=field,
        )
    # Decisions: the applied group count at every control period.
    assert np.array_equal(batched.n_groups_series, reference.n_groups_series)
    # Switch events: same instants, same toggle bills.
    assert batched.switch_times_s == reference.switch_times_s
    assert batched.switch_count == reference.switch_count
    assert len(batched.overhead_events) == len(reference.overhead_events)
    for eb, er in zip(batched.overhead_events, reference.overhead_events):
        assert eb.time_s == er.time_s
        assert eb.toggles == er.toggles
        assert eb.energy_j == pytest.approx(er.energy_j, rel=1e-9, abs=1e-12)
    assert batched.switch_overhead_j == pytest.approx(
        reference.switch_overhead_j, rel=1e-9, abs=1e-12
    )


class TestRegistryParity:
    @pytest.mark.parametrize("noise", ["noisy", "noiseless"])
    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_batched_matches_reference(self, scenarios, name, noise, policy):
        scenario = scenarios[(name, noise)]
        batched = run_engine(scenario, policy, "batched")
        reference = run_engine(scenario, policy, "reference")
        assert_engines_agree(batched, reference)

    def test_ehtr_parity_on_paper_platform(self, scenarios):
        """EHTR is slow, so the prior-work scheme is pinned on one case."""
        scenario = scenarios[("porter-ii", "noisy")]
        batched = run_engine(scenario, "EHTR", "batched")
        reference = run_engine(scenario, "EHTR", "reference")
        assert_engines_agree(batched, reference)

    def test_noiseless_skips_sensed_solve(self, scenarios):
        scenario = scenarios[("porter-ii", "noiseless")]
        physics = TracePhysics.compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        assert physics.noiseless
        assert physics.sensed_solution is physics.true_solution


class TestCachedPhysicsBitIdentical:
    """The acceptance pin: cached physics changes *nothing*.

    A warm on-disk artifact round-trips through ``float64`` storage, so
    the comparison here is ``np.array_equal`` — bitwise, not approx.
    """

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_disk_cached_run_is_bitwise_equal(self, scenarios, name, tmp_path):
        scenario = scenarios[(name, "noisy")]
        uncached = run_engine(scenario, "INOR", "batched")

        warm = PhysicsCache(cache_dir=tmp_path / "store")
        warm.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        reader = PhysicsCache(cache_dir=tmp_path / "store")
        physics = reader.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        assert reader.stats.disk_hits == 1  # served from the artifact

        cached = run_engine(scenario, "INOR", "batched", physics=physics)
        for field in SERIES_FIELDS + ("n_groups_series",):
            assert np.array_equal(
                getattr(cached, field), getattr(uncached, field)
            ), field
        assert cached.switch_times_s == uncached.switch_times_s
        assert cached.switch_overhead_j == uncached.switch_overhead_j


def _scenario_emf_vectors(scenario: Scenario, n_rows: int = 4):
    """Realistic per-module (emf, resistance, ambient) triples: sampled
    rows of the scenario's sensed temperature field."""
    physics = scenario.make_simulator().physics
    temps = physics.sensed_temps_c
    picks = np.linspace(0, temps.shape[0] - 1, n_rows).astype(int)
    for i in picks:
        ambient = float(scenario.trace.ambient_c[i])
        emf, res = thevenin_from_temps(scenario.module, temps[i], ambient)
        yield emf, res


class TestDecisionKernelParity:
    """Build + score + rank of the batched INOR kernel, bit-identical to
    the scalar references on every registry scenario and on fuzz
    vectors — the tentpole's acceptance pin."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_partition_multi_cuts_on_registry_scenarios(self, scenarios, name):
        scenario = scenarios[(name, "noisy")]
        charger = scenario.make_charger(with_battery=False)
        for emf, res in _scenario_emf_vectors(scenario):
            currents = emf / (2.0 * res)
            lo, hi = converter_aware_group_range(
                emf, emf.size, charger
            )
            ps = partition_multi(currents, lo, hi)
            for k, n_groups in enumerate(range(lo, hi + 1)):
                ref = greedy_balanced_partition(currents, n_groups)
                assert np.array_equal(ps[k], ref), (name, n_groups)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_inor_decisions_on_registry_scenarios(self, scenarios, name):
        scenario = scenarios[(name, "noisy")]
        charger = scenario.make_charger(with_battery=False)
        for emf, res in _scenario_emf_vectors(scenario):
            batched = inor(emf, res, charger=charger)
            scalar = _inor_scalar(emf, res, charger=charger)
            assert batched.config == scalar.config
            assert batched.mpp == scalar.mpp  # exact, not approx
            assert batched.delivered_power_w == scalar.delivered_power_w
            assert batched.n_range == scalar.n_range
            assert batched.candidates_evaluated == scalar.candidates_evaluated

    def test_partition_multi_cuts_on_fuzz_vectors(self, walk_edge_currents):
        """Seeded fuzz EMF/resistance vectors, full [1, N] windows,
        including dead (zero-EMF) and back-biased modules, plus the
        accumulation walk's edge cases (signed zeros beside negatives,
        NaN, all-negative rows, N = 400, a mid-walk tail clamp and
        sub-ulp ties)."""
        rng = np.random.default_rng(2018)
        vectors = []
        for _ in range(40):
            n = int(rng.integers(1, 48))
            emf = rng.uniform(0.0, 3.0, n)
            if rng.uniform() < 0.3:
                emf[rng.integers(0, n, size=max(1, n // 6))] *= -1.0
            res = rng.uniform(0.4, 3.0, n)
            vectors.append(emf / (2.0 * res))
        vectors.extend(walk_edge_currents.values())
        for currents in vectors:
            n = currents.size
            ps = partition_multi(currents, 1, n)
            for k, n_groups in enumerate(range(1, n + 1)):
                ref = greedy_balanced_partition(currents, n_groups)
                assert np.array_equal(ps[k], ref)

    def test_inor_decisions_on_fuzz_vectors(self):
        rng = np.random.default_rng(2019)
        from repro.power.charger import TEGCharger

        for _ in range(20):
            n = int(rng.integers(2, 64))
            emf = rng.uniform(0.05, 3.0, n)
            res = rng.uniform(0.4, 3.0, n)
            for charger in (None, TEGCharger()):
                batched = inor(emf, res, charger=charger)
                scalar = _inor_scalar(emf, res, charger=charger)
                assert batched == scalar

    def test_full_simulation_kernel_parity(self, scenarios, monkeypatch):
        """An end-to-end INOR run deciding through the scalar oracle
        must be indistinguishable from the production inor().  DNOR's
        proposal is pinned to inor() by test_core_dnor's
        test_first_epoch_adopts_best_instantaneous and the stacked
        parity tests below."""
        scenario = scenarios[("porter-ii", "noisy")]
        batched = run_engine(scenario, "INOR", "batched")
        monkeypatch.setattr(controller, "inor", _inor_scalar)
        scalar = run_engine(scenario, "INOR", "batched")
        for field in SERIES_FIELDS + ("n_groups_series",):
            assert np.array_equal(
                getattr(batched, field), getattr(scalar, field)
            ), field
        assert batched.switch_times_s == scalar.switch_times_s
        assert batched.switch_overhead_j == scalar.switch_overhead_j


class TestDnorPlanBatchPin:
    """The stacked epoch decision must equal the decision rebuilt from
    sequential single-configuration horizon scoring on realistic
    scenario histories (plan() is a one-lane dnor_stack, so the
    sequential reference is reconstructed from the scalar kernels)."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_plan_batch_equals_sequential_scoring(self, scenarios, name):
        scenario = scenarios[(name, "noisy")]
        planner = DNORPlanner(
            module=scenario.module,
            charger=scenario.make_charger(with_battery=False),
            overhead=scenario.overhead,
            predictor=MLRPredictor(lags=4, train_window=120),
            tp_seconds=scenario.tp_seconds,
            sample_dt_s=scenario.trace.dt_s,
            nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
        )
        physics = scenario.make_simulator().physics
        history = physics.sensed_temps_c[-24:]
        ambient = float(scenario.trace.ambient_c[-1])
        for current in (
            ArrayConfiguration.all_parallel(scenario.n_modules),
            ArrayConfiguration.uniform(scenario.n_modules, 4),
        ):
            decision = planner.plan(history, ambient, current=current)
            if decision.candidate == current:
                continue  # keep-path: nothing scored over the horizon
            horizon_rows, _, _ = planner._forecast_horizon(
                history, history[-1]
            )
            energy_old = planner._horizon_energy(
                current, horizon_rows, ambient
            )
            energy_new = planner._horizon_energy(
                decision.candidate, horizon_rows, ambient
            )
            assert decision.energy_old_j == energy_old  # bitwise
            assert decision.energy_new_j == energy_new
            assert decision.switch == (
                energy_old <= energy_new - decision.energy_overhead_j
            )


def _fuzz_trace(seed: int, n: int = 41) -> RadiatorTrace:
    """A seeded random trace spanning warm, cool and noisy regimes."""
    rng = np.random.default_rng(seed)
    time_s = np.arange(n) * 0.5
    inlet = np.clip(
        72.0 + np.cumsum(rng.normal(0.0, 1.2, n)), 35.0, 110.0
    )
    flow = np.clip(0.28 + np.cumsum(rng.normal(0.0, 0.01, n)), 0.05, 0.6)
    air = np.clip(0.9 + np.cumsum(rng.normal(0.0, 0.03, n)), 0.2, 2.0)
    ambient = np.full(n, 25.0)
    return RadiatorTrace(
        time_s=time_s,
        coolant_inlet_c=inlet,
        coolant_flow_kg_s=flow,
        air_flow_kg_s=air,
        ambient_c=ambient,
        speed_mps=np.zeros(n),
        coolant_inlet_sensed_c=inlet + rng.normal(0.0, 0.6, n),
        coolant_flow_sensed_kg_s=np.maximum(
            flow + rng.normal(0.0, 0.01, n), 1.0e-4
        ),
        name=f"fuzz-seed{seed}",
    )


class TestGridStackedExecutor:
    """The fused grid executor is serial, bit for bit.

    ``executor="gridstack"`` collapses a homogeneous case grid's INOR
    decision epochs into stacked kernel passes; its contract is that
    every pinned output (series, decisions, switch events, overhead
    bills) is **bitwise** equal to ``executor="serial"`` — only the
    wall-clock ``runtime_s`` may differ.  Exercised over every registry
    scenario with mixed fusable/unfusable policies and a noise axis, so
    each grid contains one multi-case fused group plus fallback cases.
    """

    BIT_FIELDS = SERIES_FIELDS + ("n_groups_series",)

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_bitwise_equal_to_serial_on_registry_grids(
        self, scenarios, name
    ):
        from repro.sim.engine import ExperimentRunner, grid_cases

        scenario = scenarios[(name, "noisy")]
        cases = grid_cases(
            [scenario],
            ["INOR", "DNOR", "Baseline"],
            scanner_noise_std_k=[0.02, 0.12],
        )
        serial = ExperimentRunner(cases, executor="serial").run()
        stacked = ExperimentRunner(cases, executor="gridstack").run()
        assert len(serial) == len(stacked) == len(cases)
        for (case_s, res_s), (case_g, res_g) in zip(serial, stacked):
            assert case_s.name == case_g.name
            for field in self.BIT_FIELDS:
                assert (
                    getattr(res_s, field).tobytes()
                    == getattr(res_g, field).tobytes()
                ), (case_s.name, field)
            assert res_s.switch_times_s == res_g.switch_times_s
            assert res_s.overhead_events == res_g.overhead_events
            assert res_s.switch_overhead_j == res_g.switch_overhead_j


def _stacked_inor(emf_rows, resistance, charger=None):
    """Per-case results of the one stacked INOR ranking production runs."""
    raw = _inor_stack_raw(emf_rows, resistance, charger)
    return [_inor_result(raw, c) for c in range(emf_rows.shape[0])]


class TestStackedKernelParity:
    """The stacked INOR ranking (``_inor_stack_raw``) and the stacked
    epoch step (``gridstack.decide_epochs``) over a case-stacked EMF
    matrix equal per-case ``inor`` exactly — the grid-stacked
    kernel-level pin."""

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_inor_stack_on_registry_scenarios(self, scenarios, name):
        from repro.sim.gridstack import decide_epochs

        scenario = scenarios[(name, "noisy")]
        charger = scenario.make_charger(with_battery=False)
        inputs = list(_scenario_emf_vectors(scenario, n_rows=6))
        emf_rows = np.stack([emf for emf, _ in inputs])
        resistance = inputs[0][1]
        stacked = _stacked_inor(emf_rows, resistance, charger=charger)
        references = [
            inor(row, resistance, charger=charger) for row in emf_rows
        ]
        assert stacked == references
        policies = [
            PeriodicPolicy(scenario.module, charger=charger) for _ in inputs
        ]
        rows = decide_epochs(policies, [0.0] * len(inputs), inputs)
        for row, reference in zip(rows, references):
            starts = np.flatnonzero(row).tolist()
            assert starts == list(reference.config.starts)

    def test_inor_stack_handles_negative_current_rows(self):
        """Rows with back-biased modules exercise the fused
        accumulation-walk branch of ``partition_multi_stack``."""
        rng = np.random.default_rng(77)
        n = 12
        emf_rows = rng.uniform(-0.6, 2.5, size=(9, n))
        resistance = rng.uniform(0.5, 2.0, n)
        stacked = _stacked_inor(emf_rows, resistance)
        for row, result in zip(emf_rows, stacked):
            assert result == inor(row, resistance)
            assert result == _inor_scalar(row, resistance)


class TestRandomizedTraceFuzz:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_engines_agree_on_random_traces(self, seed):
        scenario = Scenario(
            module=TGM_199_1_4_0_8,
            n_modules=9,
            boundary=default_radiator(),
            trace=_fuzz_trace(seed),
            sensor_seed=seed + 1,
            nominal_compute_s=REGISTRY_NOMINAL_COMPUTE_S,
        )
        for policy in ("INOR", "DNOR"):
            batched = run_engine(scenario, policy, "batched")
            reference = run_engine(scenario, policy, "reference")
            assert_engines_agree(batched, reference)
