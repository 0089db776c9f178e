"""Tests for repro.sim.cache — the TracePhysics memoisation layer."""

import dataclasses

import numpy as np
import pytest

from repro.sim.cache import CacheStats, PhysicsCache, physics_fingerprint
from repro.sim.engine import ExperimentRunner, grid_cases, run_case
from repro.sim.physics import TracePhysics
from repro.sim.scenario import default_scenario
from repro.thermal.radiator import Radiator


@pytest.fixture(scope="module")
def scenario():
    return default_scenario(
        duration_s=15.0, seed=5, n_modules=16, nominal_compute_s=1.0e-3
    )


def compute_physics(scenario):
    return TracePhysics.compute(
        scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
    )


def assert_physics_bit_identical(a: TracePhysics, b: TracePhysics):
    for name in ("sensed_temps_c", "emf_true", "ideal_power_w"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for sol_a, sol_b in (
        (a.true_solution, b.true_solution),
        (a.sensed_solution, b.sensed_solution),
    ):
        for name in ("decay_per_m", "surface_temps_c", "sink_temps_c",
                     "delta_t_k", "ambient_c", "active"):
            assert np.array_equal(
                getattr(sol_a, name), getattr(sol_b, name)
            ), name
        for name in ("duty_w", "effectiveness", "ntu", "ua_w_k",
                     "hot_outlet_c", "cold_outlet_c", "hot_capacity_w_k",
                     "cold_capacity_w_k"):
            assert np.array_equal(
                getattr(sol_a.exchanger, name), getattr(sol_b.exchanger, name)
            ), name
    assert a.module_resistance_ohm == b.module_resistance_ohm
    assert a.noiseless == b.noiseless
    assert a.n_modules == b.n_modules


class TestFingerprint:
    def test_content_equal_scenarios_share_fingerprint(self, scenario):
        rebuilt = default_scenario(
            duration_s=15.0, seed=5, n_modules=16, nominal_compute_s=1.0e-3
        )
        assert scenario.trace is not rebuilt.trace
        assert scenario.physics_fingerprint() == rebuilt.physics_fingerprint()

    def test_scanner_settings_do_not_enter_the_key(self, scenario):
        variant = dataclasses.replace(
            scenario, scanner_noise_std_k=0.7, sensor_seed=123
        )
        assert variant.physics_fingerprint() == scenario.physics_fingerprint()

    def test_trace_change_invalidates(self, scenario):
        other = default_scenario(duration_s=15.0, seed=6, n_modules=16)
        assert other.physics_fingerprint() != scenario.physics_fingerprint()

    def test_n_modules_change_invalidates(self, scenario):
        fp = physics_fingerprint(
            scenario.trace, scenario.boundary, scenario.module, 25
        )
        assert fp != scenario.physics_fingerprint()

    def test_radiator_change_invalidates(self, scenario):
        from repro.vehicle.trace import default_radiator

        other = default_radiator(sink_preheat_fraction=0.0)
        fp = physics_fingerprint(
            scenario.trace, other, scenario.module, scenario.n_modules
        )
        assert fp != scenario.physics_fingerprint()

    def test_module_change_invalidates(self, scenario):
        from repro.teg.datasheet import TGM_287_1_0_1_5

        fp = physics_fingerprint(
            scenario.trace, scenario.boundary, TGM_287_1_0_1_5,
            scenario.n_modules,
        )
        assert fp != scenario.physics_fingerprint()


class TestMemoryTier:
    def test_hit_miss_accounting(self, scenario):
        cache = PhysicsCache()
        assert cache.stats == CacheStats()
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        stats = cache.stats
        assert stats.memory_hits == 1 and stats.misses == 1
        assert stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_hits_rebind_to_live_objects(self, scenario):
        cache = PhysicsCache()
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        rebuilt = default_scenario(
            duration_s=15.0, seed=5, n_modules=16, nominal_compute_s=1.0e-3
        )
        physics = cache.get_or_compute(
            rebuilt.trace, rebuilt.boundary, rebuilt.module, rebuilt.n_modules
        )
        assert cache.stats.memory_hits == 1
        assert physics.trace is rebuilt.trace  # passes simulator validation
        rebuilt.make_simulator(physics=physics)  # must not raise

    def test_lru_eviction(self, scenario):
        cache = PhysicsCache(max_entries=1)
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module, 9
        )
        assert len(cache) == 1
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        assert cache.stats.misses == 3  # first entry was evicted

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PhysicsCache(max_entries=0)


class TestDiskTier:
    def test_round_trip_is_bit_identical(self, scenario, tmp_path):
        writer = PhysicsCache(cache_dir=tmp_path)
        stored = writer.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        assert len(writer.artifacts()) == 1

        reader = PhysicsCache(cache_dir=tmp_path)
        loaded = reader.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        assert reader.stats.disk_hits == 1 and reader.stats.misses == 0
        assert_physics_bit_identical(loaded, stored)
        assert_physics_bit_identical(loaded, compute_physics(scenario))

    def test_noiseless_aliasing_survives_the_round_trip(self, scenario, tmp_path):
        trace = dataclasses.replace(
            scenario.trace,
            coolant_inlet_sensed_c=scenario.trace.coolant_inlet_c.copy(),
            coolant_flow_sensed_kg_s=scenario.trace.coolant_flow_kg_s.copy(),
        )
        writer = PhysicsCache(cache_dir=tmp_path)
        writer.get_or_compute(
            trace, scenario.boundary, scenario.module, scenario.n_modules
        )
        loaded = PhysicsCache(cache_dir=tmp_path).get_or_compute(
            trace, scenario.boundary, scenario.module, scenario.n_modules
        )
        assert loaded.noiseless
        assert loaded.sensed_solution is loaded.true_solution

    def test_corrupt_artifact_is_recomputed_and_rewritten(self, scenario, tmp_path):
        writer = PhysicsCache(cache_dir=tmp_path)
        writer.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        artifact = writer.artifacts()[0]
        artifact.write_bytes(b"not an npz archive")

        recovering = PhysicsCache(cache_dir=tmp_path)
        physics = recovering.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        stats = recovering.stats
        assert stats.corrupt_artifacts == 1 and stats.misses == 1
        assert_physics_bit_identical(physics, compute_physics(scenario))

        healed = PhysicsCache(cache_dir=tmp_path)
        healed.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        assert healed.stats.disk_hits == 1  # the rewrite healed the store

    def test_clear_disk(self, scenario, tmp_path):
        cache = PhysicsCache(cache_dir=tmp_path)
        cache.get_or_compute(
            scenario.trace, scenario.boundary, scenario.module,
            scenario.n_modules,
        )
        cache.clear(disk=True)
        assert len(cache) == 0 and cache.artifacts() == ()


class TestRunnerIntegration:
    def test_grid_cells_sharing_a_trace_solve_once(self, scenario, monkeypatch):
        """The satellite fix: noise-axis variants share one physics
        solve (the old id()-keyed sharing re-solved per variant)."""
        calls = []
        original = Radiator.solve_trace

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Radiator, "solve_trace", counting)
        cases = grid_cases(
            [scenario], ["Baseline"], scanner_noise_std_k=[0.0, 0.1, 0.3]
        )
        runner = ExperimentRunner(cases, executor="serial")
        runner.run()
        # One TracePhysics.compute for the whole grid: one solve over
        # the true and sensed rows stacked (the porter trace carries
        # sensing noise).
        assert len(calls) == 1
        stats = runner.cache.stats
        assert stats.misses == 1 and stats.memory_hits == 2

    def test_noiseless_trace_grid_solves_once_total(self, scenario, monkeypatch):
        calls = []
        original = Radiator.solve_trace

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Radiator, "solve_trace", counting)
        trace = dataclasses.replace(
            scenario.trace,
            coolant_inlet_sensed_c=scenario.trace.coolant_inlet_c.copy(),
            coolant_flow_sensed_kg_s=scenario.trace.coolant_flow_kg_s.copy(),
        )
        noiseless = dataclasses.replace(scenario, trace=trace)
        cases = grid_cases(
            [noiseless], ["Baseline"], scanner_noise_std_k=[0.0, 0.2]
        )
        ExperimentRunner(cases, executor="serial").run()
        assert len(calls) == 1  # sensed pass skipped, variants shared

    def test_rejects_mismatched_cache_and_cache_dir(self, scenario, tmp_path):
        """A memory-only cache cannot warm the workers' directory."""
        from repro.errors import SimulationError

        cases = grid_cases([scenario], ["Baseline"])
        with pytest.raises(SimulationError):
            ExperimentRunner(
                cases, cache=PhysicsCache(), cache_dir=tmp_path / "store"
            )
        with pytest.raises(SimulationError):
            ExperimentRunner(
                cases,
                cache=PhysicsCache(cache_dir=tmp_path / "a"),
                cache_dir=tmp_path / "b",
            )
        # Matching pair is fine.
        ExperimentRunner(
            cases,
            cache=PhysicsCache(cache_dir=tmp_path / "a"),
            cache_dir=tmp_path / "a",
        )

    def test_shared_cache_across_runners(self, scenario):
        cache = PhysicsCache()
        cases = grid_cases([scenario], ["Baseline"])
        ExperimentRunner(cases, executor="serial", cache=cache).run()
        ExperimentRunner(cases, executor="serial", cache=cache).run()
        assert cache.stats.misses == 1 and cache.stats.memory_hits == 1

    def test_process_executor_reuses_warm_disk_cache(self, scenario, tmp_path):
        cases = grid_cases([scenario], ["INOR", "Baseline"])
        plain = ExperimentRunner(cases, executor="serial").run()

        store = tmp_path / "grid-cache"
        first = ExperimentRunner(
            cases, executor="process", max_workers=2, cache_dir=store
        )
        cold = first.run()
        assert first.cache.stats.misses == 1  # parent warmed the store
        assert len(first.cache.artifacts()) == 1

        second = ExperimentRunner(
            cases, executor="process", max_workers=2, cache_dir=store
        )
        warm = second.run()
        stats = second.cache.stats
        assert stats.disk_hits == 1 and stats.misses == 0  # warm reuse

        for collation in (cold, warm):
            for case in cases:
                a = collation[case.name]
                b = plain[case.name]
                assert np.array_equal(a.delivered_power_w, b.delivered_power_w)
                assert np.array_equal(a.n_groups_series, b.n_groups_series)
                assert a.switch_times_s == b.switch_times_s

    def test_run_case_accepts_cache_dir(self, scenario, tmp_path):
        case = grid_cases([scenario], ["Baseline"])[0]
        direct = run_case(case)
        cached = run_case(case, cache_dir=str(tmp_path))
        again = run_case(case, cache_dir=str(tmp_path))
        for result in (cached, again):
            assert np.array_equal(
                result.delivered_power_w, direct.delivered_power_w
            )

    def test_simulator_lazy_physics_uses_cache(self, scenario):
        cache = PhysicsCache()
        sim_a = scenario.make_simulator(cache=cache)
        sim_b = scenario.make_simulator(cache=cache)
        first = sim_a.physics
        assert sim_b.physics is first
        assert cache.stats.misses == 1 and cache.stats.memory_hits == 1
