"""The ThermalBoundary protocol (repro.thermal.boundary).

Pins the contracts every registered boundary must honour:

* the type-tag registry (idempotent registration, shadowing refused);
* loss-free tagged-JSON round trips, including nested wrappers;
* fingerprint tokens that separate types even at identical parameters
  (and the resulting physics-cache miss across types);
* scalar ``operating_point`` == batched ``solve_trace`` row, bitwise,
  for the new boundaries (the protocol's default scalar path);
* chunked-concat == one-shot solve, bitwise, and ``rows`` slicing
  round-trips through ``concat`` for every solution type;
* the exhaust-gas march bitwise equal to the unhoisted reference loop
  (kept below as an oracle);
* physical sanity of the exhaust-gas march and the finite-coupling
  divider, plus the pinned MPP/decision shift vs ideal coupling.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, ModelParameterError
from repro.sim.cache import PhysicsCache, physics_fingerprint
from repro.sim.ideal import ideal_power_series
from repro.sim.scenario import build_named_scenario
from repro.thermal.boundary import (
    BoundaryTraceSolution,
    ThermalBoundary,
    boundary_class,
    boundary_from_json_dict,
    boundary_to_json_dict,
    register_boundary,
    registered_boundary_types,
)
from repro.thermal.coupling import FiniteCouplingBoundary
from repro.thermal.exhaust import ExhaustGasBoundary
from repro.thermal.radiator import Radiator
from repro.vehicle.trace import default_radiator

N_MODULES = 8


def _exhaust_inputs(n=50, seed=11):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(150.0, 450.0, n),  # gas inlet
        rng.uniform(0.02, 0.15, n),  # gas flow
        rng.uniform(15.0, 40.0, n),  # ambient
        rng.uniform(0.2, 1.0, n),  # cold flow
    )


def _radiator_inputs(n=50, seed=13):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(60.0, 110.0, n),
        rng.uniform(0.05, 0.5, n),
        rng.uniform(15.0, 40.0, n),
        rng.uniform(0.2, 1.5, n),
    )


def _new_boundaries():
    return [
        (ExhaustGasBoundary(), _exhaust_inputs()),
        (FiniteCouplingBoundary(inner=default_radiator()), _radiator_inputs()),
    ]


class TestRegistry:
    def test_builtin_tags_are_registered(self):
        registry = registered_boundary_types()
        assert registry["radiator"] is Radiator
        assert registry["exhaust-gas"] is ExhaustGasBoundary
        assert registry["finite-coupling"] is FiniteCouplingBoundary

    def test_reregistering_same_class_is_noop(self):
        assert register_boundary(Radiator) is Radiator

    def test_shadowing_a_taken_tag_is_refused(self):
        class Impostor(ThermalBoundary):
            boundary_type = "radiator"

            def solve_trace(self, *args):
                raise NotImplementedError

            def params_dict(self):
                return {}

            @classmethod
            def from_params_dict(cls, params):
                return cls()

        with pytest.raises(ConfigurationError, match="already registered"):
            register_boundary(Impostor)

    def test_empty_tag_is_refused(self):
        class Unnamed(ThermalBoundary):
            def solve_trace(self, *args):
                raise NotImplementedError

            def params_dict(self):
                return {}

            @classmethod
            def from_params_dict(cls, params):
                return cls()

        with pytest.raises(ConfigurationError, match="non-empty"):
            register_boundary(Unnamed)

    def test_unknown_tag_lookup(self):
        with pytest.raises(ConfigurationError, match="unknown boundary type"):
            boundary_class("no-such-boundary")


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "boundary",
        [
            default_radiator(),
            ExhaustGasBoundary(cp_ref_j_kg_k=1050.0, ua_gas_ref_w_k=6.5),
            FiniteCouplingBoundary(inner=default_radiator()),
            FiniteCouplingBoundary(
                inner=FiniteCouplingBoundary(
                    inner=ExhaustGasBoundary(), hot_contact_w_k=3.0
                ),
                peltier_zt_per_k=0.0,
            ),
        ],
        ids=["radiator", "exhaust", "wrapped-radiator", "double-wrap"],
    )
    def test_envelope_round_trip_is_lossless(self, boundary):
        envelope = boundary_to_json_dict(boundary)
        assert set(envelope) == {"type", "params"}
        assert envelope["type"] == boundary.boundary_type
        # byte-stable through a JSON text round trip
        text = json.dumps(envelope, sort_keys=True)
        rebuilt = boundary_from_json_dict(json.loads(text))
        assert type(rebuilt) is type(boundary)
        assert (
            json.dumps(boundary_to_json_dict(rebuilt), sort_keys=True) == text
        )
        assert rebuilt.fingerprint_tokens() == boundary.fingerprint_tokens()

    def test_envelope_is_required(self):
        with pytest.raises(ConfigurationError, match="envelope"):
            boundary_from_json_dict({"params": {}})

    def test_unregistered_instance_cannot_serialise(self):
        class Rogue(ExhaustGasBoundary):
            pass  # inherits the tag but is not the registered class

        with pytest.raises(ConfigurationError, match="registered class"):
            boundary_to_json_dict(Rogue())


class TestFingerprints:
    def test_identical_params_different_tags_never_collide(self):
        class _TagA(ThermalBoundary):
            boundary_type = "test-tag-a"

            def solve_trace(self, *args):
                raise NotImplementedError

            def params_dict(self):
                return {"gain": 2.0, "nested": {"x": 1}}

            @classmethod
            def from_params_dict(cls, params):
                return cls()

        class _TagB(_TagA):
            boundary_type = "test-tag-b"

        a, b = _TagA(), _TagB()
        assert a.params_dict() == b.params_dict()
        assert a.fingerprint_tokens() != b.fingerprint_tokens()

    def test_cross_type_physics_fingerprint_misses(self):
        """Satellite 2: swapping the boundary type at equal boundary
        conditions must invalidate the physics cache."""
        scenario = build_named_scenario(
            "porter-ii", duration_s=10.0, n_modules=4
        )
        radiator = scenario.boundary
        wrapped = FiniteCouplingBoundary(inner=radiator)
        fp_radiator = physics_fingerprint(
            scenario.trace, radiator, scenario.module, scenario.n_modules
        )
        fp_wrapped = physics_fingerprint(
            scenario.trace, wrapped, scenario.module, scenario.n_modules
        )
        assert fp_radiator != fp_wrapped

        cache = PhysicsCache()
        first = cache.get_or_compute(
            scenario.trace, radiator, scenario.module, scenario.n_modules
        )
        second = cache.get_or_compute(
            scenario.trace, wrapped, scenario.module, scenario.n_modules
        )
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert first is not second
        assert not np.array_equal(
            first.true_solution.delta_t_k, second.true_solution.delta_t_k
        )

    def test_parameter_change_invalidates(self):
        base = ExhaustGasBoundary()
        tweaked = dataclasses.replace(base, ua_gas_ref_w_k=8.5)
        assert base.fingerprint_tokens() != tweaked.fingerprint_tokens()


class TestSolveContracts:
    @pytest.mark.parametrize(
        "boundary,inputs", _new_boundaries(), ids=["exhaust", "coupling"]
    )
    def test_scalar_equals_batched_row_bitwise(self, boundary, inputs):
        inlet, flow, ambient, cold = inputs
        solution = boundary.solve_trace(
            inlet, flow, ambient, cold, N_MODULES
        )
        for i in (0, 17, len(inlet) - 1):
            op = boundary.operating_point(
                float(inlet[i]),
                float(flow[i]),
                float(ambient[i]),
                float(cold[i]),
                N_MODULES,
            )
            assert np.array_equal(
                op.surface_temps_c, solution.surface_temps_c[i]
            )
            assert np.array_equal(op.sink_temps_c, solution.sink_temps_c[i])
            assert np.array_equal(op.delta_t_k, solution.delta_t_k[i])
            assert op.ambient_c == solution.ambient_c[i]

    @pytest.mark.parametrize(
        "boundary,inputs", _new_boundaries(), ids=["exhaust", "coupling"]
    )
    def test_chunked_concat_equals_one_shot(self, boundary, inputs):
        inlet, flow, ambient, cold = inputs
        whole = boundary.solve_trace(inlet, flow, ambient, cold, N_MODULES)
        parts = [
            boundary.solve_trace(
                inlet[lo : lo + 7],
                flow[lo : lo + 7],
                ambient[lo : lo + 7],
                cold[lo : lo + 7],
                N_MODULES,
            )
            for lo in range(0, len(inlet), 7)
        ]
        glued = BoundaryTraceSolution.concat(parts)
        for name, value in whole.to_arrays().items():
            assert np.array_equal(glued.to_arrays()[name], value), name

    @pytest.mark.parametrize(
        "boundary,inputs", _new_boundaries(), ids=["exhaust", "coupling"]
    )
    def test_arrays_round_trip(self, boundary, inputs):
        inlet, flow, ambient, cold = inputs
        solution = boundary.solve_trace(inlet, flow, ambient, cold, N_MODULES)
        rebuilt = boundary.solution_from_arrays(solution.to_arrays())
        assert type(rebuilt) is type(solution)
        for name, value in solution.to_arrays().items():
            assert np.array_equal(rebuilt.to_arrays()[name], value), name

    @pytest.mark.parametrize(
        "boundary,inputs",
        _new_boundaries() + [(default_radiator(), _radiator_inputs())],
        ids=["exhaust", "coupling", "radiator"],
    )
    @pytest.mark.parametrize("split", (0, 1, 17, 50))
    def test_rows_round_trip(self, boundary, inputs, split):
        """``concat([s.rows(0, k), s.rows(k, n)])`` is ``s``, field for
        field — the radiator's exchanger columns included."""
        inlet, flow, ambient, cold = inputs
        solution = boundary.solve_trace(inlet, flow, ambient, cold, N_MODULES)
        n = solution.n_samples
        head, tail = solution.rows(0, split), solution.rows(split, n)
        assert type(head) is type(solution) is type(tail)
        assert (head.n_samples, tail.n_samples) == (split, n - split)
        glued = type(solution).concat([head, tail])
        assert type(glued) is type(solution)
        arrays = solution.to_arrays()
        assert glued.to_arrays().keys() == arrays.keys()
        for name, value in arrays.items():
            assert glued.to_arrays()[name].dtype == value.dtype, name
            assert np.array_equal(glued.to_arrays()[name], value), name
        assert dataclasses.fields(glued) == dataclasses.fields(solution)

    def test_exhaust_rejects_mismatched_shapes(self):
        boundary = ExhaustGasBoundary()
        with pytest.raises(ModelParameterError):
            boundary.solve_trace(
                np.ones(4), np.ones(3), np.ones(4), np.ones(4), 4
            )


class TestExhaustPhysics:
    def test_gas_cools_along_the_duct(self):
        inlet, flow, ambient, cold = _exhaust_inputs()
        solution = ExhaustGasBoundary().solve_trace(
            inlet, flow, ambient, cold, N_MODULES
        )
        # Each module extracts heat, so hot-face temperatures decrease
        # monotonically with position and stay above the sink.
        assert np.all(np.diff(solution.surface_temps_c, axis=1) < 0.0)
        assert np.all(solution.delta_t_k > 0.0)
        assert np.all(solution.sink_temps_c >= ambient[:, None])

    def test_cold_inlet_is_inactive(self):
        ambient = np.full(3, 25.0)
        solution = ExhaustGasBoundary().solve_trace(
            np.array([25.0, 25.04, 400.0]),
            np.full(3, 0.08),
            ambient,
            np.full(3, 0.5),
            4,
        )
        assert solution.active.tolist() == [False, False, True]
        # degenerate fill: surface at inlet, sink at ambient
        assert np.all(solution.surface_temps_c[0] == 25.0)
        assert np.all(solution.sink_temps_c[0] == 25.0)

    def test_temperature_dependent_properties_matter(self):
        """The cp(T)/UA(T) dependence must actually enter the solve."""
        inlet, flow, ambient, cold = _exhaust_inputs()
        hot = ExhaustGasBoundary()
        frozen = dataclasses.replace(
            hot, cp_coeff_per_k=1e-12, ua_temp_coeff_per_k=1e-12
        )
        a = hot.solve_trace(inlet, flow, ambient, cold, N_MODULES)
        b = frozen.solve_trace(inlet, flow, ambient, cold, N_MODULES)
        assert not np.allclose(a.delta_t_k, b.delta_t_k, rtol=1e-6)


def _unhoisted_exhaust_march(boundary, inlet, gas_flow, ambient, cold_flow, n):
    """The exhaust march as written before its invariants were hoisted.

    Test oracle only: recomputes ``t_gas - t_ref`` twice and both
    constant resistances inside the module loop.
    """
    b = boundary
    surface = np.empty((inlet.size, n))
    sink = np.empty((inlet.size, n))
    ua_gas_flow = b.ua_gas_ref_w_k * (
        gas_flow / b.gas_ref_flow_kg_s
    ) ** b.gas_flow_exponent
    ua_cold = b.ua_cold_w_k * (
        cold_flow / b.cold_ref_flow_kg_s
    ) ** b.cold_flow_exponent
    t_gas = inlet.copy()
    for j in range(n):
        cp = b.cp_ref_j_kg_k * (1.0 + b.cp_coeff_per_k * (t_gas - b.t_ref_c))
        c_gas = gas_flow * cp
        ua_gas = ua_gas_flow * (
            1.0 + b.ua_temp_coeff_per_k * (t_gas - b.t_ref_c)
        )
        ua_total = 1.0 / (
            1.0 / ua_gas + 1.0 / b.module_conductance_w_k + 1.0 / ua_cold
        )
        eps = 1.0 - np.exp(-ua_total / c_gas)
        q = eps * c_gas * (t_gas - ambient)
        surface[:, j] = t_gas - q / ua_gas
        sink[:, j] = ambient + q / ua_cold
        t_gas = t_gas - q / c_gas
    active = inlet > ambient + 0.05
    mask = active[:, None]
    surface = np.where(mask, surface, inlet[:, None])
    sink = np.where(mask, sink, ambient[:, None])
    return surface, sink, surface - sink, active


class TestExhaustMarchOracle:
    """The hoisted march is bitwise the unhoisted one, inactive rows
    (gas at or within 0.05 K of the cold loop) included."""

    @staticmethod
    def _inputs(seed, n=61):
        inlet, flow, ambient, cold = _exhaust_inputs(n=n, seed=seed)
        # Inactive rows: below, at, and just inside the 0.05 K margin.
        inlet[::7] = ambient[::7] - 3.0
        inlet[3::11] = ambient[3::11]
        inlet[5::13] = ambient[5::13] + 0.05
        return inlet, flow, ambient, cold

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("n_modules", (1, 8, 64))
    @pytest.mark.parametrize(
        "params",
        (
            {},
            {
                "cp_coeff_per_k": 7.0e-4,
                "t_ref_c": 250.0,
                "ua_temp_coeff_per_k": 1.1e-3,
                "module_conductance_w_k": 1.7,
                "ua_cold_w_k": 33.0,
            },
        ),
        ids=("default", "varied"),
    )
    def test_bitwise_equal_to_unhoisted_loop(self, seed, n_modules, params):
        boundary = ExhaustGasBoundary(**params)
        inputs = self._inputs(seed)
        solution = boundary.solve_trace(*inputs, n_modules)
        surface, sink, delta, active = _unhoisted_exhaust_march(
            boundary, *inputs, n_modules
        )
        assert not active.all() and active.any()
        assert np.array_equal(solution.active, active)
        for actual, expected in (
            (solution.surface_temps_c, surface),
            (solution.sink_temps_c, sink),
            (solution.delta_t_k, delta),
        ):
            assert actual.shape == (inputs[0].size, n_modules)
            assert actual.flags.c_contiguous
            assert np.array_equal(actual, expected)
        assert np.array_equal(solution.ambient_c, inputs[2])


class TestFiniteCoupling:
    def test_divider_shrinks_delta_t(self):
        inlet, flow, ambient, cold = _radiator_inputs()
        radiator = default_radiator()
        ideal = radiator.solve_trace(inlet, flow, ambient, cold, N_MODULES)
        coupled = FiniteCouplingBoundary(inner=radiator).solve_trace(
            inlet, flow, ambient, cold, N_MODULES
        )
        positive = ideal.delta_t_k > 0.0
        assert np.all(
            coupled.delta_t_k[positive] < ideal.delta_t_k[positive]
        )
        assert np.all(coupled.delta_t_k[positive] > 0.0)

    def test_hotter_modules_lose_a_larger_fraction(self):
        """The Peltier term makes the squeeze temperature dependent."""
        radiator = default_radiator()
        boundary = FiniteCouplingBoundary(inner=radiator)
        inlet = np.array([70.0, 105.0])
        flow = np.full(2, 0.3)
        ambient = np.full(2, 25.0)
        cold = np.full(2, 0.7)
        ideal = radiator.solve_trace(inlet, flow, ambient, cold, 4)
        coupled = boundary.solve_trace(inlet, flow, ambient, cold, 4)
        retained = coupled.delta_t_k / ideal.delta_t_k
        assert retained[1].mean() < retained[0].mean()

    def test_pinned_mpp_shift_vs_ideal_radiator(self):
        """Acceptance pin: finite coupling measurably moves the MPP
        power and the INOR reconfiguration decisions vs the ideal
        radiator at identical boundary conditions."""
        from repro.serve.session import offline_decision_log

        ideal = build_named_scenario(
            "porter-ii", duration_s=20.0, n_modules=16
        )
        coupled = dataclasses.replace(
            ideal, boundary=FiniteCouplingBoundary(inner=ideal.boundary)
        )
        p_ideal = ideal_power_series(
            ideal.trace, ideal.boundary, ideal.module, ideal.n_modules
        )
        p_coupled = ideal_power_series(
            ideal.trace, coupled.boundary, ideal.module, ideal.n_modules
        )
        ratio = p_coupled.sum() / p_ideal.sum()
        # Pinned band: the default divider keeps a meaningful but
        # clearly sub-ideal share of the harvest.
        assert 0.05 < ratio < 0.75, ratio

        log_ideal = [
            r.to_json_line()
            for r in offline_decision_log(ideal, policy="INOR")
        ]
        log_coupled = [
            r.to_json_line()
            for r in offline_decision_log(coupled, policy="INOR")
        ]
        assert len(log_ideal) == len(log_coupled)
        assert log_ideal != log_coupled


class TestNewScenarioDiskCache:
    @pytest.mark.parametrize("name", ["exhaust-gas", "finite-coupling"])
    def test_disk_round_trip_is_bit_identical(self, name, tmp_path):
        scenario = build_named_scenario(name, duration_s=12.0, n_modules=9)
        writer = PhysicsCache(cache_dir=tmp_path)
        stored = writer.get_or_compute(
            scenario.trace,
            scenario.boundary,
            scenario.module,
            scenario.n_modules,
        )
        reader = PhysicsCache(cache_dir=tmp_path)
        loaded = reader.get_or_compute(
            scenario.trace,
            scenario.boundary,
            scenario.module,
            scenario.n_modules,
        )
        assert reader.stats.disk_hits == 1 and reader.stats.misses == 0
        for attr in ("sensed_temps_c", "emf_true", "ideal_power_w"):
            assert np.array_equal(
                getattr(loaded, attr), getattr(stored, attr)
            ), attr
        for pair in ("true_solution", "sensed_solution"):
            stored_arrays = getattr(stored, pair).to_arrays()
            loaded_arrays = getattr(loaded, pair).to_arrays()
            assert loaded_arrays.keys() == stored_arrays.keys()
            for key, value in stored_arrays.items():
                assert np.array_equal(loaded_arrays[key], value), key
