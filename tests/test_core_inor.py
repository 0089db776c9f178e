"""Tests for repro.core.inor — Algorithm 1."""

import numpy as np
import pytest

from repro.core.exhaustive import best_partition_brute_force
from repro.core.inor import (
    converter_aware_group_range,
    greedy_balanced_partition,
    inor,
)
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.power.converter import BuckBoostConverter
from repro.teg.network import PartitionSet, partition_multi


class TestGreedyPartition:
    def test_single_group(self):
        starts = greedy_balanced_partition(np.ones(5), 1)
        assert starts.tolist() == [0]

    def test_all_groups(self):
        starts = greedy_balanced_partition(np.ones(5), 5)
        assert starts.tolist() == [0, 1, 2, 3, 4]

    def test_uniform_currents_equal_split(self):
        starts = greedy_balanced_partition(np.ones(12), 4)
        assert starts.tolist() == [0, 3, 6, 9]

    def test_balances_decaying_currents(self):
        """Hot end gets small groups, cold end large ones."""
        currents = np.exp(-np.linspace(0.0, 2.5, 30))
        starts = greedy_balanced_partition(currents, 5)
        sizes = np.diff(np.append(starts, 30))
        assert sizes[0] < sizes[-1]
        # Group sums within a factor ~2 of the ideal.
        ideal = currents.sum() / 5
        sums = np.add.reduceat(currents, starts)
        assert np.all(sums > 0.3 * ideal)
        assert np.all(sums < 2.5 * ideal)

    def test_every_group_nonempty(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            currents = rng.uniform(0.1, 2.0, 17)
            n_groups = int(rng.integers(1, 17))
            starts = greedy_balanced_partition(currents, n_groups)
            sizes = np.diff(np.append(starts, 17))
            assert starts.size == n_groups
            assert np.all(sizes >= 1)

    def test_rejects_too_many_groups(self):
        with pytest.raises(ConfigurationError):
            greedy_balanced_partition(np.ones(3), 4)


class TestPartitionMulti:
    """The vectorised window build must reproduce the scalar walk's cut
    indices bit-for-bit — the tentpole's correctness contract."""

    def _assert_matches_walk(self, currents, n_min, n_max):
        ps = partition_multi(currents, n_min, n_max)
        assert isinstance(ps, PartitionSet)
        assert len(ps) == n_max - n_min + 1
        for k, n_groups in enumerate(range(n_min, n_max + 1)):
            ref = greedy_balanced_partition(currents, n_groups)
            assert np.array_equal(ps[k], ref), (
                f"cut mismatch at n={n_groups}: {ps[k]} vs {ref}"
            )

    def test_full_window_random_currents(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            currents = rng.uniform(0.0, 2.5, n)
            self._assert_matches_walk(currents, 1, n)

    def test_partial_windows(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            currents = rng.uniform(0.05, 2.0, n)
            n_min = int(rng.integers(1, n + 1))
            n_max = int(rng.integers(n_min, n + 1))
            self._assert_matches_walk(currents, n_min, n_max)

    def test_uniform_currents_exact_ties(self):
        """Integer-exact group sums hit the walk's tie rule head on."""
        self._assert_matches_walk(np.ones(12), 1, 12)
        self._assert_matches_walk(np.full(9, 2.0), 1, 9)

    def test_uniform_non_dyadic_currents(self):
        """Uniform currents with inexact prefix sums — an isothermal
        array.  Mathematical ties everywhere, resolved by floating
        point: the regression case where a locally-accumulated error
        walk and the prefix kernel used to round ties differently."""
        self._assert_matches_walk(np.full(20, 0.46103092364913556), 1, 20)
        self._assert_matches_walk(np.full(17, 1.0 / 3.0), 1, 17)
        rng = np.random.default_rng(35)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            level = float(rng.uniform(0.01, 3.0))
            self._assert_matches_walk(np.full(n, level), 1, n)

    def test_repeated_value_blocks(self):
        """Repeated current values (identical modules at shared
        temperatures) create partial-sum ties away from uniformity."""
        rng = np.random.default_rng(36)
        for _ in range(30):
            n = int(rng.integers(4, 40))
            values = rng.uniform(0.1, 2.0, max(1, n // 4))
            currents = values[rng.integers(0, values.size, n)]
            self._assert_matches_walk(currents, 1, n)

    def test_zero_current_flat_runs(self):
        """Dead modules create flat cumulative runs the walk extends
        through; the vectorised tie handling must follow."""
        rng = np.random.default_rng(33)
        for _ in range(25):
            n = int(rng.integers(3, 40))
            currents = rng.uniform(0.1, 2.0, n)
            currents[rng.uniform(size=n) < 0.4] = 0.0
            self._assert_matches_walk(currents, 1, n)

    def test_negative_currents_fall_back_to_walk(self):
        """Back-biased modules break cumulative monotonicity; the kernel
        must still return exactly the walk's cuts (via its fallback)."""
        rng = np.random.default_rng(34)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            currents = rng.uniform(-1.0, 2.0, n)
            self._assert_matches_walk(currents, 1, n)

    def test_iteration_and_sizes(self):
        currents = np.linspace(2.0, 0.2, 10)
        ps = partition_multi(currents, 2, 5)
        assert ps.sizes.tolist() == [2, 3, 4, 5]
        assert [v.size for v in ps] == [2, 3, 4, 5]

    def test_rejects_bad_window(self):
        with pytest.raises(ConfigurationError):
            partition_multi(np.ones(5), 0, 3)
        with pytest.raises(ConfigurationError):
            partition_multi(np.ones(5), 3, 2)
        with pytest.raises(ConfigurationError):
            partition_multi(np.ones(5), 1, 6)
        with pytest.raises(ConfigurationError):
            partition_multi(np.empty(0), 1, 1)


class TestConverterAwareRange:
    def test_no_charger_full_range(self):
        lo, hi = converter_aware_group_range(np.full(50, 2.0), 50, None)
        assert (lo, hi) == (1, 50)

    def test_window_scales_inversely_with_emf(self):
        charger = TEGCharger()
        lo_hot, hi_hot = converter_aware_group_range(np.full(100, 3.0), 100, charger)
        lo_cold, hi_cold = converter_aware_group_range(np.full(100, 1.5), 100, charger)
        assert lo_cold > lo_hot
        assert hi_cold > hi_hot

    def test_window_brackets_bus_voltage(self):
        """n * mean(E)/2 across the window must straddle ~13.8 V."""
        charger = TEGCharger()
        emf = np.full(100, 2.6)
        lo, hi = converter_aware_group_range(emf, 100, charger)
        assert lo * 2.6 / 2 < 14.5 < hi * 2.6 / 2

    def test_degenerate_emf_handled(self):
        charger = TEGCharger()
        lo, hi = converter_aware_group_range(np.zeros(10), 10, charger)
        assert 1 <= lo <= hi <= 10

    def test_range_within_bounds(self):
        charger = TEGCharger()
        lo, hi = converter_aware_group_range(np.full(4, 0.1), 4, charger)
        assert 1 <= lo <= hi <= 4

    def test_window_always_well_formed_property(self):
        """Regression property: for randomised (emf, n_modules, charger)
        the window must satisfy 1 <= n_min <= n_max <= n_modules —
        including 1- and 2-module chains, very hot arrays whose raw
        lower bound exceeds N, and negative-mean EMF."""
        rng = np.random.default_rng(41)
        chargers = (None, TEGCharger())
        for _ in range(200):
            n_modules = int(rng.integers(1, 40))
            scale = 10.0 ** rng.uniform(-4.0, 3.0)  # freezing to white hot
            emf = scale * rng.uniform(-1.0, 2.0, n_modules)
            if rng.uniform() < 0.2:
                emf = -np.abs(emf)  # negative-mean (dead/back-biased) array
            charger = chargers[int(rng.integers(0, 2))]
            lo, hi = converter_aware_group_range(emf, n_modules, charger)
            assert 1 <= lo <= hi <= n_modules, (
                f"window [{lo}, {hi}] invalid for N={n_modules}, "
                f"mean_emf={float(np.mean(emf)):.3g}"
            )

    def test_tiny_chains_hot_and_cold(self):
        """n_modules in {1, 2} at both temperature extremes."""
        charger = TEGCharger()
        for n_modules in (1, 2):
            for emf_level in (1.0e-6, 0.5, 3.0, 500.0):
                lo, hi = converter_aware_group_range(
                    np.full(n_modules, emf_level), n_modules, charger
                )
                assert 1 <= lo <= hi <= n_modules

    def test_unbounded_preferred_window(self):
        """A zero-curvature converter side yields an infinite preferred
        voltage bound; the clamp must degrade it to N, not overflow
        (int(math.ceil(inf)) used to raise OverflowError here)."""
        flat_high = TEGCharger(converter=BuckBoostConverter(high_side_coeff=0.0))
        lo, hi = converter_aware_group_range(np.full(10, 2.0), 10, flat_high)
        assert 1 <= lo <= hi <= 10
        assert hi == 10
        flat_both = TEGCharger(
            converter=BuckBoostConverter(
                low_side_coeff=0.0, high_side_coeff=0.0
            )
        )
        lo, hi = converter_aware_group_range(np.full(10, 2.0), 10, flat_both)
        assert (lo, hi) == (1, 10)

    def test_non_finite_mean_degrades_to_full_range(self):
        charger = TEGCharger()
        emf = np.array([1.0, np.nan, 2.0])
        assert converter_aware_group_range(emf, 3, charger) == (1, 3)

    def test_inor_accepts_every_hardened_window(self):
        """The windows the clamp produces must all be valid inor inputs
        (the downstream 1 <= lo <= hi <= N check must never fire)."""
        charger = TEGCharger()
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_modules = int(rng.integers(1, 25))
            scale = 10.0 ** rng.uniform(-3.0, 2.0)
            emf = scale * rng.uniform(0.05, 2.0, n_modules)
            res = np.full(n_modules, 0.8)
            result = inor(emf, res, charger=charger)
            lo, hi = result.n_range
            assert 1 <= lo <= hi <= n_modules


class TestInor:
    def test_returns_valid_configuration(self, module_params):
        emf, res = module_params
        result = inor(emf, res)
        assert result.config.n_modules == emf.size
        assert sum(result.config.group_sizes) == emf.size

    def test_beats_static_grid(self, small_array, module_params):
        """INOR's raison d'etre: outperform the fixed uniform grid."""
        emf, res = module_params
        result = inor(emf, res)
        grid = small_array.configured_mpp(
            list(range(0, 20, 4))
        )
        assert result.mpp.power_w > grid.power_w

    def test_near_optimal_on_small_chain(self):
        """Within a few percent of brute force (the 'near' in INOR)."""
        rng = np.random.default_rng(17)
        for trial in range(5):
            delta_t = 15.0 + 50.0 * np.exp(-2.0 * np.linspace(0, 1, 12))
            delta_t += rng.normal(0.0, 2.0, 12)
            emf = 0.075 * delta_t
            res = np.full(12, 2.9)
            exact = best_partition_brute_force(emf, res)
            approx = inor(emf, res)
            assert approx.mpp.power_w >= 0.95 * exact.mpp.power_w

    def test_respects_explicit_range(self, module_params):
        emf, res = module_params
        result = inor(emf, res, n_min=3, n_max=5)
        assert 3 <= result.config.n_groups <= 5
        assert result.n_range == (3, 5)
        assert result.candidates_evaluated == 3

    def test_charger_ranking_prefers_bus_voltage(self, module_params):
        """With the charger, the chosen MPP voltage lands in the
        converter's preferred window."""
        emf, res = module_params
        charger = TEGCharger()
        result = inor(emf, res, charger=charger)
        lo, hi = charger.preferred_voltage_window(0.05)
        assert lo * 0.8 <= result.mpp.voltage_v <= hi * 1.2

    def test_delivered_power_consistent(self, module_params):
        emf, res = module_params
        charger = TEGCharger()
        result = inor(emf, res, charger=charger)
        assert result.delivered_power_w == pytest.approx(
            charger.delivered_at_mpp(result.mpp)
        )

    def test_no_charger_delivered_equals_raw(self, module_params):
        emf, res = module_params
        result = inor(emf, res)
        assert result.delivered_power_w == pytest.approx(result.mpp.power_w)

    def test_rejects_inconsistent_range(self, module_params):
        emf, res = module_params
        with pytest.raises(ConfigurationError):
            inor(emf, res, n_min=5, n_max=3)
        with pytest.raises(ConfigurationError):
            inor(emf, res, n_min=0, n_max=3)

    def test_rejects_mismatched_arrays(self):
        with pytest.raises(ConfigurationError):
            inor(np.ones(5), np.ones(4))

    def test_linear_complexity_scaling(self):
        """Doubling N roughly doubles runtime (with fixed n-range) —
        loose sanity check of the O(N) claim."""
        import time

        def measure(n, repeats=5):
            emf = 2.0 + np.exp(-np.linspace(0, 2, n))
            res = np.full(n, 2.9)
            t0 = time.perf_counter()
            for _ in range(repeats):
                inor(emf, res, n_min=8, n_max=16)
            return (time.perf_counter() - t0) / repeats

        t_small = measure(200)
        t_large = measure(800)
        assert t_large < t_small * 16  # far below quadratic blow-up


class TestInorNegativeDeltaT:
    def test_handles_back_biased_tail(self):
        """A few negative-dT modules (preheated sinks) must not crash."""
        delta_t = np.concatenate([np.linspace(60, 5, 18), [-1.0, -2.0]])
        emf = 0.075 * delta_t
        res = np.full(20, 2.9)
        result = inor(emf, res, n_min=2, n_max=8)
        assert result.mpp.power_w > 0.0


class TestBatchedKernel:
    """kernel="batched" must be indistinguishable from the scalar loop."""

    def _profiles(self):
        rng = np.random.default_rng(23)
        for trial in range(8):
            n = int(rng.integers(4, 80))
            emf = rng.uniform(0.1, 3.0, n)
            if trial % 3 == 0:
                emf[rng.integers(0, n, size=max(1, n // 8))] *= -1.0
            yield emf, np.full(n, 0.8)

    def test_bit_identical_to_scalar_kernel(self):
        for emf, res in self._profiles():
            for charger in (None, TEGCharger()):
                batched = inor(emf, res, charger=charger, kernel="batched")
                scalar = inor(emf, res, charger=charger, kernel="scalar")
                assert batched.config == scalar.config
                assert batched.mpp == scalar.mpp  # exact, not approx
                assert batched.delivered_power_w == scalar.delivered_power_w
                assert batched.n_range == scalar.n_range
                assert (
                    batched.candidates_evaluated
                    == scalar.candidates_evaluated
                )

    def test_full_window_parity(self):
        """Window [1, N]: every group count evaluated, kernels agree."""
        emf = 2.0 * np.exp(-np.linspace(0.0, 2.2, 30))
        res = np.full(30, 0.8)
        batched = inor(emf, res, n_min=1, n_max=30, kernel="batched")
        scalar = inor(emf, res, n_min=1, n_max=30, kernel="scalar")
        assert batched.candidates_evaluated == 30
        assert batched.config == scalar.config
        assert batched.mpp == scalar.mpp

    def test_degenerate_window(self):
        """n_min == n_max: a single candidate still round-trips."""
        emf = np.linspace(2.5, 0.5, 12)
        res = np.full(12, 1.1)
        for kernel in ("batched", "scalar"):
            result = inor(emf, res, n_min=4, n_max=4, kernel=kernel)
            assert result.candidates_evaluated == 1
            assert result.config.n_groups == 4
        assert inor(emf, res, n_min=4, n_max=4, kernel="batched") == inor(
            emf, res, n_min=4, n_max=4, kernel="scalar"
        )

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError):
            inor(np.ones(5), np.ones(5), kernel="quantum")

    def test_default_kernel_is_batched(self):
        """The hot path default; the docstring-promised speed choice."""
        emf = np.linspace(2.0, 0.5, 16)
        res = np.full(16, 0.9)
        assert inor(emf, res) == inor(emf, res, kernel="batched")


def _build_with_kernel(target, kernel):
    """Hand ``kernel`` to one of the layers that accept a kernel name."""
    from repro.cli import build_parser
    from repro.core.controller import PeriodicPolicy
    from repro.core.dnor import DNORPlanner
    from repro.core.overhead import SwitchingOverheadModel
    from repro.prediction.mlr import MLRPredictor
    from repro.sim.scenario import Scenario, default_scenario
    from repro.teg.datasheet import TGM_199_1_4_0_8

    if target == "inor":
        inor(np.ones(4), np.ones(4), kernel=kernel)
    elif target == "PeriodicPolicy":
        PeriodicPolicy(TGM_199_1_4_0_8, kernel=kernel)
    elif target == "DNORPlanner":
        DNORPlanner(
            TGM_199_1_4_0_8,
            TEGCharger(),
            SwitchingOverheadModel(),
            MLRPredictor(lags=4, train_window=120),
            inor_kernel=kernel,
        )
    elif target == "Scenario.from_json_dict":
        data = default_scenario(duration_s=5.0, n_modules=9).to_json_dict()
        Scenario.from_json_dict({**data, "inor_kernel": kernel})
    else:
        build_parser().parse_args(["simulate", "--kernel", kernel])


@pytest.mark.parametrize(
    "target",
    [
        "inor",
        "PeriodicPolicy",
        "DNORPlanner",
        "Scenario.from_json_dict",
        "repro simulate --kernel",
    ],
)
@pytest.mark.parametrize("kernel", ["batched:numpy", "batched:numba", "fast"])
def test_unknown_kernel_names_rejected(target, kernel, capsys):
    """Only the names in INOR_KERNELS are accepted, and the error lists
    them — including the removed backend-suffixed spellings."""
    error = SystemExit if target.startswith("repro ") else ConfigurationError
    with pytest.raises(error) as exc:
        _build_with_kernel(target, kernel)
    message = capsys.readouterr().err if error is SystemExit else str(exc.value)
    assert kernel in message
    assert "'batched'" in message and "'scalar'" in message
