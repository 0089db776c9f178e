"""Tests for repro.core.controller — the policy layer."""

import collections

import numpy as np
import pytest

from repro.core.baseline import grid_for_square_array
from repro.core.controller import DNORPolicy, PeriodicPolicy, StaticPolicy
from repro.core.dnor import DNORPlanner, thevenin_from_temps
from repro.core.ehtr import ehtr
from repro.core.inor import inor
from repro.core.overhead import SwitchingOverheadModel
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.prediction.mlr import MLRPredictor
from repro.sim.physics import TracePhysics
from repro.sim.scenario import POLICY_NAMES, build_named_scenario, default_registry
from repro.teg.datasheet import TGM_199_1_4_0_8


def gradient_temps(n_modules=16, level=50.0) -> np.ndarray:
    return 25.0 + 10.0 + level * np.exp(-2.0 * np.linspace(0, 1, n_modules))


class TestStaticPolicy:
    def test_applies_once(self):
        config = grid_for_square_array(16)
        policy = StaticPolicy(config)
        first = policy.decide(0.0, gradient_temps(), 25.0)
        second = policy.decide(0.5, gradient_temps(), 25.0)
        assert first == config
        assert second is None

    def test_reset_reapplies(self):
        policy = StaticPolicy(grid_for_square_array(16))
        policy.decide(0.0, gradient_temps(), 25.0)
        policy.reset()
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None

    def test_name_default(self):
        assert StaticPolicy(grid_for_square_array(16)).name == "Baseline"


class TestPeriodicPolicy:
    def test_runs_at_period(self):
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "inor", period_s=1.0)
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None
        assert policy.decide(0.5, gradient_temps(), 25.0) is None
        assert policy.decide(1.0, gradient_temps(), 25.0) is not None

    def test_inor_name(self):
        assert PeriodicPolicy(TGM_199_1_4_0_8, "inor").name == "INOR"

    def test_ehtr_name(self):
        assert PeriodicPolicy(TGM_199_1_4_0_8, "ehtr").name == "EHTR"

    def test_ehtr_produces_config(self):
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "ehtr")
        config = policy.decide(0.0, gradient_temps(), 25.0)
        assert config is not None
        assert config.n_modules == 16

    def test_inor_uses_charger_window(self):
        charger = TEGCharger()
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "inor", charger=charger)
        config = policy.decide(0.0, gradient_temps(64), 25.0)
        # 64 modules, mean EMF ~2 V: converter window forces well under
        # 64 groups.
        assert config.n_groups < 40

    def test_reset_restarts_clock(self):
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "inor", period_s=10.0)
        policy.decide(0.0, gradient_temps(), 25.0)
        policy.reset()
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            PeriodicPolicy(TGM_199_1_4_0_8, "magic")

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            PeriodicPolicy(TGM_199_1_4_0_8, "inor", period_s=0.0)


class TestDNORPolicy:
    def make_policy(self, tp_seconds=1.0) -> DNORPolicy:
        planner = DNORPlanner(
            module=TGM_199_1_4_0_8,
            charger=TEGCharger(),
            overhead=SwitchingOverheadModel(),
            predictor=MLRPredictor(lags=4, train_window=120),
            tp_seconds=tp_seconds,
            sample_dt_s=0.5,
        )
        return DNORPolicy(planner)

    def test_first_decision_applies_config(self):
        policy = self.make_policy()
        config = policy.decide(0.0, gradient_temps(), 25.0)
        assert config is not None

    def test_epoch_spacing(self):
        """Decisions every t_p + 1 seconds; in between, None."""
        policy = self.make_policy(tp_seconds=1.0)
        policy.decide(0.0, gradient_temps(), 25.0)
        decisions_before_epoch = [
            policy.decide(t, gradient_temps(), 25.0) for t in (0.5, 1.0, 1.5)
        ]
        assert all(d is None for d in decisions_before_epoch)
        assert len(policy.decisions) == 1
        policy.decide(2.0, gradient_temps(), 25.0)
        assert len(policy.decisions) == 2

    def test_steady_temps_no_further_switches(self):
        policy = self.make_policy()
        for k in range(40):
            policy.decide(k * 0.5, gradient_temps(), 25.0)
        assert len(policy.switch_times_s) == 1  # only the initial adoption

    def test_history_buffer_feeds_predictor(self):
        policy = self.make_policy()
        for k in range(30):
            policy.decide(k * 0.5, gradient_temps(), 25.0)
        last = policy.decisions[-1]
        # With 30 rows of history, the epochs after warm-up must not
        # fall back to persistence.
        assert not last.used_fallback_forecast or len(policy.decisions) <= 2

    def test_reset_clears_everything(self):
        policy = self.make_policy()
        policy.decide(0.0, gradient_temps(), 25.0)
        policy.reset()
        assert policy.decisions == ()
        assert policy.switch_times_s == ()
        assert policy.decide(0.0, gradient_temps(), 25.0) is not None

    def test_name(self):
        assert self.make_policy().name == "DNOR"

    def test_rejects_tiny_history_buffer(self):
        planner = self.make_policy().planner
        with pytest.raises(ConfigurationError):
            DNORPolicy(planner, history_rows=1)

    def test_history_rows(self):
        planner = self.make_policy().planner
        assert DNORPolicy(planner, history_rows=7).history_rows == 7
        assert DNORPolicy(planner).history_rows == 360

    @pytest.mark.parametrize("step_s", [0.5, 2.0])
    def test_history_buffer_is_a_bounded_window(self, step_s):
        """Every epoch's history is the last ``min(4, seen)`` rows, as a
        ``deque(maxlen=4)`` keeps them, and every history handed out
        earlier keeps its bits across buffer growth, compaction and
        reset."""
        policy = DNORPolicy(self.make_policy().planner, history_rows=4)
        rng = np.random.default_rng(11)
        reference = collections.deque(maxlen=4)
        handed = []
        for i in range(50):
            row = rng.normal(60.0, 5.0, size=16)
            reference.append(row.copy())
            inputs = policy.observe(i * step_s, row, 25.0)
            if inputs is None:
                continue
            history = inputs[0]
            assert history.tobytes() == np.vstack(reference).tobytes()
            handed.append((history, history.copy()))
        assert len(handed) >= 12
        policy.reset()
        for i in range(20):
            policy.observe(i * step_s, np.full(16, -1.0), 25.0)
        for history, snapshot in handed:
            assert history.tobytes() == snapshot.tobytes()


def _sensed_scenario(name):
    """A short registry scenario and its whole-trace sensed temps."""
    scenario = build_named_scenario(name, duration_s=8.0, n_modules=9)
    physics = TracePhysics.compute(
        scenario.trace, scenario.boundary, scenario.module, scenario.n_modules
    )
    scanner = scenario.make_scanner()
    scanner.reset()
    return scenario, scanner.scan_batch(physics.sensed_temps_c)


def _kernel(policy, inputs):
    """The kernel call each policy's ``decide`` makes on its inputs."""
    if policy.name == "INOR":
        return inor(*inputs, charger=policy.charger)
    if policy.name == "EHTR":
        return ehtr(*inputs)
    history, ambient, new_rows = inputs
    return policy.planner.plan(
        history, ambient, policy.current_config, new_rows=new_rows
    )


class TestObserveCommitSplit:
    """``decide`` is exactly ``observe`` -> kernel -> ``commit``: the
    split the streaming hub drives, sample for sample."""

    @pytest.mark.parametrize("name", default_registry().names())
    def test_decide_equals_observe_kernel_commit(self, name):
        scenario, scanned = _sensed_scenario(name)
        trace = scenario.trace
        for scheme in ("INOR", "EHTR", "DNOR"):
            whole = scenario.make_policy(scheme)
            split = scenario.make_policy(scheme)
            fired = 0
            for i in range(trace.n_samples):
                t = float(trace.time_s[i])
                ambient = float(trace.ambient_c[i])
                want = whole.decide(t, scanned[i], ambient)
                inputs = split.observe(t, scanned[i], ambient)
                if inputs is None:
                    assert want is None, (name, scheme, i)
                    continue
                fired += 1
                got = split.commit(t, _kernel(split, inputs))
                assert got == want, (name, scheme, i)
            assert fired >= 2, (name, scheme)

    def test_periodic_observe_is_the_thevenin_map(self):
        policy = PeriodicPolicy(TGM_199_1_4_0_8, "inor")
        temps = gradient_temps()
        emf, res = policy.observe(0.0, temps, 25.0)
        want_emf, want_res = thevenin_from_temps(TGM_199_1_4_0_8, temps, 25.0)
        assert np.array_equal(emf, want_emf)
        assert np.array_equal(res, want_res)
        assert policy.observe(0.1, temps, 25.0) is None


class TestMakePolicy:
    def test_names_match_make_policies(self):
        scenario = build_named_scenario("porter-ii", duration_s=2.0, n_modules=9)
        policies = scenario.make_policies()
        assert tuple(policies) == POLICY_NAMES
        for name in POLICY_NAMES:
            policy = scenario.make_policy(name)
            assert type(policy) is type(policies[name])
            assert policy.name == name

    def test_dnor_refit_passes_through(self):
        scenario = build_named_scenario("porter-ii", duration_s=2.0, n_modules=9)
        policy = scenario.make_policy("DNOR", refit="incremental")
        assert policy.planner.refit == "incremental"

    def test_unknown_name_raises(self):
        scenario = build_named_scenario("porter-ii", duration_s=2.0, n_modules=9)
        with pytest.raises(ConfigurationError, match="unknown policy 'FOO'"):
            scenario.make_policy("FOO")
