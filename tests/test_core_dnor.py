"""Tests for repro.core.dnor — Algorithm 2."""

import numpy as np
import pytest

from repro.core.config import ArrayConfiguration
from repro.core.dnor import DNORPlanner, dnor_stack, thevenin_from_temps
from repro.core.inor import inor
from repro.core.overhead import SwitchingOverheadModel
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.prediction.mlr import MLRPredictor
from repro.teg.datasheet import TGM_199_1_4_0_8
from repro.teg.network import array_mpp


def make_planner(
    tp_seconds=1.0, overhead=None, nominal_compute_s=None, refit="full"
) -> DNORPlanner:
    return DNORPlanner(
        module=TGM_199_1_4_0_8,
        charger=TEGCharger(),
        overhead=overhead or SwitchingOverheadModel(),
        predictor=MLRPredictor(lags=4, train_window=120),
        tp_seconds=tp_seconds,
        sample_dt_s=0.5,
        nominal_compute_s=nominal_compute_s,
        refit=refit,
    )


def steady_history(n_rows=60, n_modules=20, level=45.0) -> np.ndarray:
    """dT-referenced temperatures: ambient 25 + exp gradient."""
    profile = 25.0 + level * np.exp(-2.0 * np.linspace(0, 1, n_modules)) + 10.0
    return np.tile(profile, (n_rows, 1))


class TestTheveninFromTemps:
    def test_matches_module_model(self):
        temps = np.array([80.0, 60.0, 40.0])
        emf, res = thevenin_from_temps(TGM_199_1_4_0_8, temps, 25.0)
        expected_emf = [
            TGM_199_1_4_0_8.open_circuit_voltage(t - 25.0) for t in temps
        ]
        assert emf == pytest.approx(expected_emf)
        assert np.allclose(res, TGM_199_1_4_0_8.internal_resistance())


class TestFirstEpoch:
    def test_adopts_inor_unconditionally(self):
        planner = make_planner()
        decision = planner.plan(steady_history(), 25.0, current=None)
        assert decision.switch
        assert decision.config == decision.candidate
        assert decision.energy_overhead_j == 0.0


class TestIdenticalCandidate:
    def test_keep_is_free(self):
        planner = make_planner()
        first = planner.plan(steady_history(), 25.0, current=None)
        second = planner.plan(steady_history(), 25.0, current=first.config)
        assert not second.switch
        assert second.config == first.config
        assert second.energy_overhead_j == 0.0
        assert second.predict_seconds == 0.0


class TestSwitchDecision:
    def test_steady_state_keeps_suboptimal_marginal_config(self):
        """A config only marginally worse than INOR's proposal must be
        kept: the predicted gain cannot amortise the switching bill."""
        planner = make_planner()
        history = steady_history()
        proposal = planner.plan(history, 25.0, current=None).config
        # Perturb one boundary by one module: nearly as good.
        starts = list(proposal.starts)
        starts[-1] = min(starts[-1] + 1, history.shape[1] - 1)
        if starts[-1] == starts[-2]:
            starts[-1] += 1
        marginal = ArrayConfiguration(tuple(starts), history.shape[1])
        decision = planner.plan(history, 25.0, current=marginal)
        assert not decision.switch

    def test_grossly_wrong_config_triggers_switch(self):
        """All-parallel on a steep gradient wastes enough power that the
        predicted gain dwarfs the bill."""
        planner = make_planner()
        history = steady_history()
        awful = ArrayConfiguration.all_parallel(history.shape[1])
        decision = planner.plan(history, 25.0, current=awful)
        assert decision.switch
        assert decision.energy_new_j > decision.energy_old_j

    def test_huge_overhead_blocks_switch(self):
        """Same scenario, but with an absurd switching bill Algorithm 2
        must refuse."""
        overhead = SwitchingOverheadModel(per_toggle_energy_j=1e3)
        planner = make_planner(overhead=overhead)
        history = steady_history()
        awful = ArrayConfiguration.all_parallel(history.shape[1])
        decision = planner.plan(history, 25.0, current=awful)
        assert not decision.switch
        assert decision.config == awful

    def test_decision_inequality(self):
        """switch <=> E_old <= E_new - E_overhead, verbatim Alg. 2."""
        planner = make_planner()
        history = steady_history()
        for current in (
            ArrayConfiguration.all_parallel(history.shape[1]),
            ArrayConfiguration.uniform(history.shape[1], 4),
        ):
            decision = planner.plan(history, 25.0, current=current)
            if decision.candidate == current:
                continue
            expected = (
                decision.energy_old_j
                <= decision.energy_new_j - decision.energy_overhead_j
            )
            assert decision.switch == expected

    def test_measured_compute_is_the_billed_inor_time(self):
        """Without nominal_compute_s the bill charges the epoch's own
        measured INOR pass, the time the decision reports."""
        planner = make_planner()
        history = steady_history()
        current = ArrayConfiguration.all_parallel(history.shape[1])
        decision = planner.plan(history, 25.0, current=current)
        assert decision.candidate != current  # horizon path taken
        assert decision.inor_seconds > 0.0
        emf, res = thevenin_from_temps(TGM_199_1_4_0_8, history[-1], 25.0)
        power_now = planner._charger.delivered_at_mpp(
            array_mpp(emf, res, current.starts)
        )
        toggles = current.switch_toggles_to(decision.candidate)
        assert decision.energy_overhead_j == planner._overhead.event_energy_j(
            max(power_now, 0.0),
            compute_time_s=decision.inor_seconds,
            toggles=toggles,
        )
        assert decision.energy_overhead_j > planner._overhead.event_energy_j(
            max(power_now, 0.0), compute_time_s=0.0, toggles=toggles
        )


class TestHorizonEnergy:
    def test_energy_consistent_with_network(self):
        """The vectorised horizon evaluation equals per-row MPP math."""
        planner = make_planner()
        history = steady_history(10, 12)
        config = ArrayConfiguration.uniform(12, 3)
        rows = history[-3:]
        energy = planner._horizon_energy(config, rows, 25.0)
        expected = 0.0
        for row in rows:
            emf, res = thevenin_from_temps(TGM_199_1_4_0_8, row, 25.0)
            mpp = array_mpp(emf, res, config.starts)
            expected += planner._charger.delivered_at_mpp(mpp) * 0.5
        assert energy == pytest.approx(expected, rel=1e-9)


class TestFallbackForecast:
    def test_short_history_uses_persistence(self):
        planner = make_planner()
        history = steady_history(3)  # shorter than lags + 1
        awful = ArrayConfiguration.all_parallel(history.shape[1])
        decision = planner.plan(history, 25.0, current=awful)
        assert decision.used_fallback_forecast


class TestValidation:
    def test_rejects_bad_tp(self):
        with pytest.raises(ConfigurationError):
            make_planner(tp_seconds=0.0)

    def test_rejects_empty_history(self):
        planner = make_planner()
        with pytest.raises(ConfigurationError):
            planner.plan(np.zeros((0, 5)), 25.0, None)

    def test_epoch_length(self):
        assert make_planner(tp_seconds=2.0).epoch_seconds == pytest.approx(3.0)


class TestKeepPathWithArrayTypedStarts:
    """Regression: the identical-proposal test must stay a scalar truth
    value even when the current configuration was built straight from
    the ndarray the greedy partition builder returns."""

    def test_keep_is_free_with_ndarray_built_current(self):
        planner = make_planner()
        history = steady_history()
        proposal = planner.plan(history, 25.0, current=None).config
        # Rebuild the same configuration from a raw int64 ndarray, the
        # exact shape greedy_balanced_partition hands back.
        current = ArrayConfiguration(
            starts=np.asarray(proposal.starts, dtype=np.int64),
            n_modules=proposal.n_modules,
        )
        decision = planner.plan(history, 25.0, current=current)
        assert not decision.switch
        assert decision.config == current
        assert decision.energy_overhead_j == 0.0
        assert decision.predict_seconds == 0.0


class TestPlanBatch:
    """plan()'s epoch, one stacked horizon pass, against the decision
    rebuilt from the single-configuration reference kernels."""

    def test_stacked_decision_pin_equals_sequential_evaluation(self):
        """The batched epoch must reproduce the decision reconstructed
        from *sequential* single-configuration horizon scoring — the
        sequential-plan pin (plan() is a one-lane dnor_stack, so the
        reference here is rebuilt from the scalar kernels; nominal
        compute keeps the overhead bill machine-independent)."""
        planner = make_planner(nominal_compute_s=2.0e-3)
        history = steady_history()
        n = history.shape[1]
        for current in (
            ArrayConfiguration.all_parallel(n),
            ArrayConfiguration.uniform(n, 4),
        ):
            decision = planner.plan(history, 25.0, current=current)
            assert decision.candidate != current  # horizon path taken
            # Sequential reference: refit + forecast (deterministic),
            # then one scalar _horizon_energy call per configuration.
            horizon_rows, _, _ = planner._forecast_horizon(
                history, history[-1]
            )
            energy_old = planner._horizon_energy(current, horizon_rows, 25.0)
            energy_new = planner._horizon_energy(
                decision.candidate, horizon_rows, 25.0
            )
            emf, res = thevenin_from_temps(TGM_199_1_4_0_8, history[-1], 25.0)
            power_now = planner._charger.delivered_at_mpp(
                array_mpp(emf, res, current.starts)
            )
            overhead = planner._overhead.event_energy_j(
                power_w=max(power_now, 0.0),
                compute_time_s=2.0e-3,
                toggles=current.switch_toggles_to(decision.candidate),
            )
            assert decision.energy_old_j == energy_old  # bitwise
            assert decision.energy_new_j == energy_new
            assert decision.energy_overhead_j == overhead
            assert decision.switch == (energy_old <= energy_new - overhead)

    def test_keep_path_is_free(self):
        """A free keep forecasts nothing but still streams the fresh
        rows into an incremental predictor, so its window keeps up."""
        planner = make_planner(refit="incremental")
        history = steady_history()
        proposal = planner.plan(history, 25.0, current=None).config
        streamed = planner.predictor._stream.copy()
        grown = np.vstack([history, history[-5:]])
        decision = planner.plan(grown, 25.0, current=proposal, new_rows=5)
        assert not decision.switch
        assert decision.config == proposal
        assert decision.energy_overhead_j == 0.0
        assert decision.predict_seconds == 0.0
        assert not np.array_equal(planner.predictor._stream, streamed)

    def test_first_epoch_adopts_best_instantaneous(self):
        """With nothing to keep, the epoch adopts INOR's proposal: the
        window's best delivered power right now, free of charge."""
        planner = make_planner()
        history = steady_history()
        n = history.shape[1]
        decision = planner.plan(history, 25.0, current=None)
        emf, res = thevenin_from_temps(TGM_199_1_4_0_8, history[-1], 25.0)
        proposal = inor(emf, res, charger=planner._charger)
        assert decision.switch
        assert decision.config == decision.candidate == proposal.config
        all_parallel = ArrayConfiguration.all_parallel(n)
        assert proposal.delivered_power_w > planner._charger.delivered_at_mpp(
            array_mpp(emf, res, all_parallel.starts)
        )
        assert (decision.energy_old_j, decision.energy_new_j) == (0.0, 0.0)
        assert decision.energy_overhead_j == 0.0
        assert decision.predict_seconds == 0.0


class TestFitModuleStride:
    """The predictor contract behind the strided fit: every predictor
    learns a pooled *column-wise* one-step map, so fitting on a
    module-strided subset and forecasting the full-width history is
    exact — the shared columns forecast identically either way."""

    def test_strided_fit_full_width_forecast_consistent(self):
        history = steady_history(60, 20) + np.random.default_rng(9).normal(
            0.0, 0.3, (60, 20)
        )
        stride = 4
        predictor = MLRPredictor(lags=4, train_window=120)
        predictor.fit(history[:, ::stride])
        full = predictor.forecast(history, 3)
        strided = predictor.forecast(history[:, ::stride], 3)
        assert full.shape == (3, 20)  # forecast width follows the history
        # Column-wise recursion: shared columns forecast identically
        # (up to BLAS reduction order, which varies with matrix shape).
        np.testing.assert_allclose(
            full[:, ::stride], strided, rtol=1e-12, atol=1e-12
        )

    def test_planner_with_stride_covers_every_module(self):
        planner = DNORPlanner(
            module=TGM_199_1_4_0_8,
            charger=TEGCharger(),
            overhead=SwitchingOverheadModel(),
            predictor=MLRPredictor(lags=4, train_window=120),
            tp_seconds=1.0,
            sample_dt_s=0.5,
            fit_module_stride=7,  # deliberately not a divisor of N=20
            nominal_compute_s=2.0e-3,
        )
        history = steady_history(60, 20) + np.random.default_rng(8).normal(
            0.0, 0.4, (60, 20)
        )
        current = ArrayConfiguration.all_parallel(20)
        decision = planner.plan(history, 25.0, current=current)
        assert not decision.used_fallback_forecast  # real strided fit ran
        assert decision.energy_new_j > 0.0
        horizon_rows, _, _ = planner._forecast_horizon(history, history[-1])
        assert horizon_rows.shape[1] == 20  # full width despite strided fit

    def test_stride_changes_fit_cost_not_contract(self):
        """Identical forecasts when the strided columns carry the same
        pooled dynamics (exactly shared one-step map)."""
        profile = 25.0 + 45.0 * np.exp(-2.0 * np.linspace(0, 1, 16)) + 10.0
        t = np.arange(80)[:, None]
        history = profile[None, :] + 2.0 * np.sin(0.1 * t)  # shared dynamics
        dense = MLRPredictor(lags=4, train_window=60).fit(history)
        strided = MLRPredictor(lags=4, train_window=60).fit(history[:, ::4])
        np.testing.assert_allclose(
            dense.forecast(history, 2),
            strided.forecast(history, 2),
            rtol=1e-9,
            atol=1e-9,
        )


class TestDnorStack:
    """dnor_stack is planner.plan(), lane for lane, bit for bit —
    the contract that lets gridstack and the streaming hub fuse whole
    DNOR grids into two stacked kernel passes per epoch."""

    N_LANES = 4
    N_MODULES = 20

    def _planners(self):
        return [
            make_planner(nominal_compute_s=2.0e-3)
            for _ in range(self.N_LANES)
        ]

    def _lane_histories(self):
        rng = np.random.default_rng(2018)
        return [
            steady_history(70, self.N_MODULES, level=40.0 + 4.0 * k)
            + rng.normal(0.0, 0.6, (70, self.N_MODULES))
            for k in range(self.N_LANES)
        ]

    def test_stack_matches_per_lane_plan_over_epochs(self):
        serial = self._planners()
        stacked = self._planners()
        histories = self._lane_histories()
        ambients = np.array([24.0, 25.0, 26.0, 25.5])
        serial_currents = [None] * self.N_LANES
        stacked_currents = [None] * self.N_LANES
        for epoch in range(3):
            rows = 40 + 10 * epoch
            hists = [h[:rows] for h in histories]
            decisions = dnor_stack(stacked, hists, ambients, stacked_currents)
            for k in range(self.N_LANES):
                want = serial[k].plan(
                    hists[k], float(ambients[k]), serial_currents[k]
                )
                got = decisions[k]
                label = f"epoch {epoch} lane {k}"
                assert got.switch == want.switch, label
                assert got.config == want.config, label
                assert got.candidate == want.candidate, label
                # Exact float equality: the fused passes must produce
                # the identical doubles, not merely close ones.
                assert got.energy_old_j == want.energy_old_j, label
                assert got.energy_new_j == want.energy_new_j, label
                assert got.energy_overhead_j == want.energy_overhead_j, label
                assert (
                    got.used_fallback_forecast == want.used_fallback_forecast
                ), label
                serial_currents[k] = want.config
                stacked_currents[k] = got.config

    def test_requires_nominal_compute(self):
        """Measured compute bills a lane's share of the fused INOR pass,
        which only a one-lane epoch (plan) makes per-lane wall-clock."""
        planners = [make_planner(nominal_compute_s=1.0e-3), make_planner()]
        with pytest.raises(ConfigurationError, match="nominal_compute_s"):
            dnor_stack(
                planners,
                [steady_history(), steady_history()],
                25.0,
                [None, None],
            )

    def test_rejects_heterogeneous_lanes(self):
        planners = [
            make_planner(nominal_compute_s=1.0e-3),
            make_planner(tp_seconds=2.0, nominal_compute_s=1.0e-3),
        ]
        with pytest.raises(ConfigurationError, match="share"):
            dnor_stack(
                planners,
                [steady_history(), steady_history()],
                25.0,
                [None, None],
            )

    def test_keep_is_free_with_ndarray_built_currents(self):
        """Every lane's keep test is a scalar truth value even when its
        current configuration was built from a raw int64 ndarray."""
        planners = self._planners()[:2]
        histories = self._lane_histories()[:2]
        first = dnor_stack(planners, histories, 25.0, [None, None])
        currents = [
            ArrayConfiguration(
                starts=np.asarray(d.config.starts, dtype=np.int64),
                n_modules=d.config.n_modules,
            )
            for d in first
        ]
        for decision, current in zip(
            dnor_stack(planners, histories, 25.0, currents), currents
        ):
            assert not decision.switch
            assert decision.config == current
            assert decision.energy_overhead_j == 0.0
            assert decision.predict_seconds == 0.0


class TestDnorStackRefusesBeforeMutating:
    """A malformed stacked call is refused with ConfigurationError
    before any lane's predictor stream absorbs a row."""

    def _streamed_lanes(self):
        planners = [
            make_planner(nominal_compute_s=1.0e-3, refit="incremental")
            for _ in range(2)
        ]
        histories = [steady_history(40), steady_history(40, level=50.0)]
        dnor_stack(planners, histories, 25.0, [None, None], new_rows=[40, 40])
        snapshots = [p.predictor._stream.copy() for p in planners]
        grown = [np.vstack([h, h[-4:]]) for h in histories]
        return planners, grown, snapshots

    def _assert_refused(self, match, planners, snapshots, *args, new_rows):
        with pytest.raises(ConfigurationError, match=match):
            dnor_stack(planners, *args, new_rows=new_rows)
        for planner, snapshot in zip(planners, snapshots):
            assert np.array_equal(planner.predictor._stream, snapshot)

    def test_short_new_rows(self):
        planners, grown, snaps = self._streamed_lanes()
        self._assert_refused(
            "new_rows",
            planners,
            snaps,
            grown,
            25.0,
            [None, None],
            new_rows=[4],
        )

    def test_long_new_rows(self):
        planners, grown, snaps = self._streamed_lanes()
        self._assert_refused(
            "new_rows",
            planners,
            snaps,
            grown,
            25.0,
            [None, None],
            new_rows=[4, 4, 4],
        )

    def test_ambient_vector_of_wrong_length(self):
        planners, grown, snaps = self._streamed_lanes()
        self._assert_refused(
            "ambient_c",
            planners,
            snaps,
            grown,
            np.array([25.0, 25.0, 25.0]),
            [None, None],
            new_rows=[4, 4],
        )

    def test_histories_of_unequal_width(self):
        planners, grown, snaps = self._streamed_lanes()
        grown[1] = np.hstack([grown[1], grown[1][:, -1:]])
        self._assert_refused(
            "lane 1",
            planners,
            snaps,
            grown,
            25.0,
            [None, None],
            new_rows=[4, 4],
        )

    def test_accepted_call_streams_after_a_refusal(self):
        """The refused call left the lanes exactly as a call that never
        happened: the next valid epoch matches an untouched twin."""
        planners, grown, snaps = self._streamed_lanes()
        twins, _, _ = self._streamed_lanes()
        self._assert_refused(
            "new_rows",
            planners,
            snaps,
            grown,
            25.0,
            [None, None],
            new_rows=[4],
        )
        args = (grown, 25.0, [None, None])
        got = dnor_stack(planners, *args, new_rows=[4, 4])
        want = dnor_stack(twins, *args, new_rows=[4, 4])
        assert [d.config for d in got] == [d.config for d in want]
        for planner, twin in zip(planners, twins):
            assert np.array_equal(
                planner.predictor._stream, twin.predictor._stream
            )
