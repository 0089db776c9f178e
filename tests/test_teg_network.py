"""Tests for repro.teg.network — the exact Thevenin algebra."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.teg import network


def assert_mpp_bitwise(mpp, power, voltage, current):
    """A batched ``(P*, V*, I*)`` entry equals the scalar MPP, bit for
    bit (signed zeros included)."""
    for got, want in (
        (power, mpp.power_w),
        (voltage, mpp.voltage_v),
        (current, mpp.current_a),
    ):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.fixture
def uniform_modules():
    """Five identical modules: E = 2 V, R = 1 Ohm."""
    return np.full(5, 2.0), np.full(5, 1.0)


class TestValidateStarts:
    def test_accepts_valid(self):
        out = network.validate_starts([0, 3, 7], 10)
        assert list(out) == [0, 3, 7]

    def test_rejects_not_starting_at_zero(self):
        with pytest.raises(ConfigurationError):
            network.validate_starts([1, 3], 10)

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigurationError):
            network.validate_starts([0, 5, 3], 10)

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            network.validate_starts([0, 3, 3], 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            network.validate_starts([0, 10], 10)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            network.validate_starts([], 10)

    def test_rejects_nonpositive_module_count(self):
        with pytest.raises(ConfigurationError):
            network.validate_starts([0], 0)


class TestParallelReduce:
    def test_identical_modules(self, uniform_modules):
        emf, res = uniform_modules
        e_g, r_g = network.parallel_reduce(emf, res)
        assert e_g == pytest.approx(2.0)
        assert r_g == pytest.approx(1.0 / 5.0)

    def test_single_module_identity(self):
        e_g, r_g = network.parallel_reduce(np.array([3.0]), np.array([2.0]))
        assert (e_g, r_g) == (pytest.approx(3.0), pytest.approx(2.0))

    def test_conductance_weighted_emf(self):
        # Stronger (lower-R) module dominates the group EMF.
        emf = np.array([1.0, 3.0])
        res = np.array([1.0, 0.5])
        e_g, r_g = network.parallel_reduce(emf, res)
        assert e_g == pytest.approx((1.0 / 1.0 + 3.0 / 0.5) / (1.0 / 1.0 + 1.0 / 0.5))
        assert r_g == pytest.approx(1.0 / 3.0)

    def test_circuit_consistency(self):
        """The reduced source reproduces the group's terminal behaviour."""
        emf = np.array([2.0, 2.6, 1.4])
        res = np.array([1.0, 1.5, 0.8])
        e_g, r_g = network.parallel_reduce(emf, res)
        for v_terminal in (0.0, 0.7, 1.3):
            branch_sum = float(((emf - v_terminal) / res).sum())
            thevenin_current = (e_g - v_terminal) / r_g
            assert branch_sum == pytest.approx(thevenin_current)


class TestReduceConfiguration:
    def test_groups_in_chain_order(self, uniform_modules):
        emf, res = uniform_modules
        e_groups, r_groups = network.reduce_configuration(emf, res, [0, 2])
        # Groups of 2 and 3 identical modules.
        assert e_groups == pytest.approx([2.0, 2.0])
        assert r_groups == pytest.approx([0.5, 1.0 / 3.0])

    def test_all_series(self, uniform_modules):
        emf, res = uniform_modules
        e_groups, r_groups = network.reduce_configuration(emf, res, range(5))
        assert np.allclose(e_groups, emf)
        assert np.allclose(r_groups, res)


class TestArrayThevenin:
    def test_series_sums(self, uniform_modules):
        emf, res = uniform_modules
        e_tot, r_tot = network.array_thevenin(emf, res, range(5))
        assert e_tot == pytest.approx(10.0)
        assert r_tot == pytest.approx(5.0)

    def test_all_parallel(self, uniform_modules):
        emf, res = uniform_modules
        e_tot, r_tot = network.array_thevenin(emf, res, [0])
        assert e_tot == pytest.approx(2.0)
        assert r_tot == pytest.approx(0.2)


class TestArrayMPP:
    def test_uniform_modules_same_power_any_equal_split(self, uniform_modules):
        """For identical modules every equal-size partition has equal MPP.

        This is the analytic invariant that makes *unequal* group sizes
        the source of reconfiguration gains (DESIGN.md section 5).
        """
        emf, res = uniform_modules
        p_series = network.array_mpp(emf, res, range(5)).power_w
        p_parallel = network.array_mpp(emf, res, [0]).power_w
        assert p_series == pytest.approx(p_parallel)

    def test_mpp_power_equals_e2_over_4r(self, uniform_modules):
        emf, res = uniform_modules
        mpp = network.array_mpp(emf, res, [0, 2])
        e_tot, r_tot = network.array_thevenin(emf, res, [0, 2])
        assert mpp.power_w == pytest.approx(e_tot**2 / (4 * r_tot))
        assert mpp.voltage_v == pytest.approx(e_tot / 2)
        assert mpp.current_a == pytest.approx(e_tot / (2 * r_tot))

    def test_mpp_dominates_power_at_current(self, uniform_modules):
        emf, res = uniform_modules
        starts = [0, 1, 3]
        mpp = network.array_mpp(emf, res, starts)
        for frac in (0.25, 0.5, 0.9, 1.1, 1.5):
            p = network.power_at_current(emf, res, starts, mpp.current_a * frac)
            assert p <= mpp.power_w + 1e-12

    def test_power_at_mpp_current_matches(self, uniform_modules):
        emf, res = uniform_modules
        starts = [0, 2, 4]
        mpp = network.array_mpp(emf, res, starts)
        assert network.power_at_current(
            emf, res, starts, mpp.current_a
        ) == pytest.approx(mpp.power_w)


class TestModuleOperatingPoints:
    def test_energy_conservation(self):
        """Sum of module powers equals array power at any current."""
        rng = np.random.default_rng(3)
        emf = rng.uniform(1.0, 4.0, 12)
        res = rng.uniform(0.5, 2.0, 12)
        starts = [0, 3, 7, 10]
        for current in (0.2, 0.8, 1.4):
            _, _, p_modules = network.module_operating_points(
                emf, res, starts, current
            )
            p_array = network.power_at_current(emf, res, starts, current)
            # Module power includes internal dissipation of back-driven
            # branches; array power = sum(V_g * I) = sum over modules of
            # V_g * I_i only when branch currents sum to I per group.
            assert p_modules.sum() == pytest.approx(p_array, rel=1e-9)

    def test_group_voltage_shared(self):
        emf = np.array([2.0, 2.5, 1.5, 3.0])
        res = np.ones(4)
        v, _, _ = network.module_operating_points(emf, res, [0, 2], 0.5)
        assert v[0] == v[1]
        assert v[2] == v[3]

    def test_branch_currents_sum_to_array_current(self):
        emf = np.array([2.0, 2.5, 1.5, 3.0])
        res = np.array([1.0, 0.7, 1.2, 0.9])
        current = 0.9
        _, branch, _ = network.module_operating_points(emf, res, [0, 2], current)
        assert branch[:2].sum() == pytest.approx(current)
        assert branch[2:].sum() == pytest.approx(current)

    def test_weak_module_back_driven(self):
        """A much colder module in a hot parallel group sinks current."""
        emf = np.array([4.0, 0.1])
        res = np.ones(2)
        _, branch, power = network.module_operating_points(emf, res, [0], 1.0)
        assert branch[1] < 0.0
        assert power[1] < 0.0


class TestSegmentThevenin:
    def test_matches_parallel_reduce(self):
        rng = np.random.default_rng(9)
        emf = rng.uniform(0.5, 3.0, 15)
        res = rng.uniform(0.5, 2.0, 15)
        tables = network.SegmentThevenin.from_modules(emf, res)
        for lo, hi in [(0, 15), (3, 9), (14, 15), (0, 1)]:
            expected = network.parallel_reduce(emf[lo:hi], res[lo:hi])
            assert tables.segment(lo, hi) == (
                pytest.approx(expected[0]),
                pytest.approx(expected[1]),
            )

    def test_segment_mpp_current_sum(self):
        emf = np.array([2.0, 4.0, 6.0])
        res = np.array([1.0, 2.0, 3.0])
        tables = network.SegmentThevenin.from_modules(emf, res)
        assert tables.segment_mpp_current_sum(0, 3) == pytest.approx(
            (emf / (2 * res)).sum()
        )

    def test_rejects_empty_segment(self):
        tables = network.SegmentThevenin.from_modules(np.ones(3), np.ones(3))
        with pytest.raises(ConfigurationError):
            tables.segment(2, 2)

    def test_rejects_out_of_range(self):
        tables = network.SegmentThevenin.from_modules(np.ones(3), np.ones(3))
        with pytest.raises(ConfigurationError):
            tables.segment(0, 4)

    def test_n_modules(self):
        tables = network.SegmentThevenin.from_modules(np.ones(7), np.ones(7))
        assert tables.n_modules == 7


class TestArrayMppMulti:
    """Configuration-batched MPPs: one pass, bit-identical per candidate."""

    def _window(self, emf, res):
        from repro.core.inor import greedy_balanced_partition

        currents = emf / (2.0 * res)
        return [
            greedy_balanced_partition(currents, g)
            for g in range(1, emf.size + 1)
        ]

    def test_bitwise_matches_scalar_over_full_window(self):
        rng = np.random.default_rng(3)
        emf = rng.uniform(0.2, 3.0, 40)
        res = np.full(40, 0.8)
        candidates = self._window(emf, res)
        power, voltage, current = network.array_mpp_multi(emf, res, candidates)
        assert power.shape == (40,)
        for k, starts in enumerate(candidates):
            mpp = network.array_mpp(emf, res, starts)
            assert power[k] == mpp.power_w  # exact, not approx
            assert voltage[k] == mpp.voltage_v
            assert current[k] == mpp.current_a

    def test_single_candidate(self, uniform_modules):
        emf, res = uniform_modules
        power, voltage, current = network.array_mpp_multi(emf, res, [[0, 2]])
        mpp = network.array_mpp(emf, res, [0, 2])
        assert (power[0], voltage[0], current[0]) == (
            mpp.power_w,
            mpp.voltage_v,
            mpp.current_a,
        )

    def test_empty_candidate_list(self, uniform_modules):
        emf, res = uniform_modules
        power, voltage, current = network.array_mpp_multi(emf, res, [])
        assert power.size == voltage.size == current.size == 0

    def test_fault_masked_configurations(self):
        """Candidates repaired against a stuck-switch mask stay exact."""
        from repro.teg.faults import FaultMask

        rng = np.random.default_rng(9)
        emf = rng.uniform(0.5, 2.5, 16)
        res = np.full(16, 1.2)
        mask = FaultMask(
            n_modules=16, stuck_series={4}, stuck_parallel={9}
        )
        candidates = [
            mask.repair(starts) for starts in self._window(emf, res)
        ]
        power, voltage, current = network.array_mpp_multi(emf, res, candidates)
        for k, starts in enumerate(candidates):
            mpp = network.array_mpp(emf, res, starts)
            assert power[k] == mpp.power_w
            assert voltage[k] == mpp.voltage_v
            assert current[k] == mpp.current_a

    @pytest.mark.parametrize(
        "bad",
        [
            [[1, 2]],          # not starting at zero
            [[0, 5, 3]],       # unsorted
            [[0, 3, 3]],       # duplicate boundary
            [[0, 99]],         # out of range
            [[]],              # empty candidate
            [[0], [0, 200]],   # one valid, one invalid
        ],
    )
    def test_rejects_invalid_candidates(self, bad):
        with pytest.raises(ConfigurationError):
            network.array_mpp_multi(np.ones(10), np.ones(10), bad)

    def test_partition_set_input_matches_list_input(self):
        """The flat PartitionSet fast path is the same computation."""
        rng = np.random.default_rng(11)
        emf = rng.uniform(0.2, 3.0, 30)
        res = np.full(30, 0.8)
        ps = network.partition_multi(emf / (2.0 * res), 1, 30)
        from_set = network.array_mpp_multi(emf, res, ps)
        from_list = network.array_mpp_multi(emf, res, list(ps))
        for a, b in zip(from_set, from_list):
            assert np.array_equal(a, b)

    def test_partition_set_validation_sweep(self):
        """validate=True walks the vectorised sweep on the flat layout;
        a corrupted set is rejected."""
        ps = network.partition_multi(np.ones(8), 1, 4)
        ok = network.array_mpp_multi(np.ones(8), np.ones(8), ps, validate=True)
        assert ok[0].size == 4
        corrupt = network.PartitionSet(
            cat=np.array([0, 0, 9], dtype=np.int64),
            offsets=np.array([0, 1, 3], dtype=np.int64),
            n_modules=8,
        )
        with pytest.raises(ConfigurationError):
            network.array_mpp_multi(np.ones(8), np.ones(8), corrupt)

    def test_partition_set_wrong_chain_rejected(self):
        ps = network.partition_multi(np.ones(8), 1, 3)
        with pytest.raises(ConfigurationError):
            network.array_mpp_multi(np.ones(9), np.ones(9), ps)


def _rows_multi(emf_rows, resistance, configs):
    """Many configurations over one case's EMF rows: the one-case call
    of ``array_mpp_rows_multi_stack``."""
    return network.array_mpp_rows_multi_stack(
        np.asarray(emf_rows)[None],
        resistance,
        configs,
        np.zeros(len(configs), np.int64),
    )


class TestArrayMppRowsMulti:
    """Configuration x time-sample batching for DNOR's epoch planner."""

    def test_bitwise_matches_per_config_rows(self):
        rng = np.random.default_rng(13)
        emf_rows = rng.uniform(0.1, 3.0, (6, 20))
        res = np.full(20, 1.1)
        configs = [[0], [0, 5, 10, 15], list(range(20)), [0, 7]]
        power, voltage = _rows_multi(emf_rows, res, configs)
        assert power.shape == (4, 6)
        for k, starts in enumerate(configs):
            p_ref, v_ref = network.array_mpp_rows(emf_rows, res, starts)
            assert np.array_equal(power[k], p_ref)  # exact, not approx
            assert np.array_equal(voltage[k], v_ref)

    def test_empty_config_list(self):
        power, voltage = _rows_multi(np.ones((3, 5)), np.ones(5), [])
        assert power.shape == (0, 3)
        assert voltage.shape == (0, 3)

    def test_rejects_invalid_config(self):
        with pytest.raises(ConfigurationError):
            _rows_multi(np.ones((3, 5)), np.ones(5), [[0], [1, 2]])


class TestPartitionSetIndexing:
    def test_negative_index_normalised(self):
        ps = network.partition_multi(np.arange(1.0, 9.0), 1, 4)
        assert np.array_equal(ps[-1], ps[len(ps) - 1])
        assert np.array_equal(ps[-len(ps)], ps[0])

    def test_out_of_range_negative_index_rejected(self):
        ps = network.partition_multi(np.arange(1.0, 9.0), 1, 4)
        with pytest.raises(IndexError):
            ps[-(len(ps) + 1)]


class TestStackedKernels:
    """Grid-stacked partition build + MPP scoring: one call over a
    ``(C, N)`` current/EMF matrix, bit-identical to the per-case loop."""

    def _rows(self, seed, n_cases=5, n=24):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.05, 3.0, size=(n_cases, n))
        if seed % 2:
            # Back-biased modules exercise the accumulation-walk branch.
            flips = rng.uniform(size=rows.shape) < 0.15
            rows[flips] *= -1.0
        return rows

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_partition_multi_stack_equals_per_case(self, seed):
        """Every candidate of every case equals the scalar greedy walk
        (``partition_multi`` is the one-case stack, so it cannot be
        the oracle)."""
        rows = self._rows(seed)
        n = rows.shape[1]
        stack = network.partition_multi_stack(rows, 1, n)
        assert stack.n_cases == rows.shape[0]
        for c, row in enumerate(rows):
            case_set = stack.case(c)
            assert len(case_set) == n
            for k, n_groups in enumerate(range(1, n + 1)):
                want = network.greedy_balanced_partition(row, n_groups)
                assert np.array_equal(case_set[k], want), (c, n_groups)

    def test_mixed_stacks_pinned_to_scalar_walk(self, walk_edge_currents):
        """Monotone rows on random windows beside every 34-module walk
        edge case on its full window, zero-current edge rows (all-zero,
        leading and trailing zero runs) on their full windows, and the
        400-module chain beside its mirror and its monotone twin: every
        candidate pinned to the scalar oracle."""
        edge = [v for v in walk_edge_currents.values() if v.size == 34]
        rng = np.random.default_rng(34)
        monotone = rng.uniform(0.0, 1.0, (len(edge), 34))
        monotone[0, 4:9] = 0.0  # a zero-current flat run
        rows = np.stack([r for pair in zip(monotone, edge) for r in pair])
        n_min = rng.integers(1, 35, rows.shape[0])
        n_max = np.array([rng.integers(lo, 35) for lo in n_min])
        n_min[1::2], n_max[1::2] = 1, 34
        flat = np.random.default_rng(35).uniform(0.0, 1.0, (3, 34))
        flat[0] = 0.0  # every prefix value tied
        flat[1, :6] = 0.0  # a leading zero run
        flat[2, -7:] = 0.0  # a trailing zero run
        rows = np.concatenate((rows, flat))
        n_min = np.concatenate((n_min, [1] * 3))
        n_max = np.concatenate((n_max, [34] * 3))
        long = walk_edge_currents["long"]
        stacks = [
            (rows, n_min, n_max),
            (np.stack((np.abs(long), long, long[::-1])), [180] * 3, [220] * 3),
        ]
        for rows, n_min, n_max in stacks:
            stack = network.partition_multi_stack(rows, n_min, n_max)
            for c, row in enumerate(rows):
                case_set = stack.case(c)
                for k, n_groups in enumerate(range(n_min[c], n_max[c] + 1)):
                    want = network.greedy_balanced_partition(row, n_groups)
                    assert np.array_equal(case_set[k], want), (c, n_groups)

    def test_one_monotone_case_behind_back_biased_cases(
        self, walk_edge_currents
    ):
        """A stack whose only monotone case (with and without a
        zero-current flat run) comes after walk cases: its candidates
        search that case's own prefix row, pinned to the scalar walk."""
        edge = (walk_edge_currents["signed_zeros"], walk_edge_currents["nan"])
        n = edge[0].size
        monotone = np.random.default_rng(36).uniform(0.05, 1.0, n)
        flat = monotone.copy()
        flat[3:9] = 0.0
        for row in (monotone, flat):
            rows = np.stack((*edge, row))
            stack = network.partition_multi_stack(rows, 1, n)
            for c, currents in enumerate(rows):
                for k, n_groups in enumerate(range(1, n + 1)):
                    want = network.greedy_balanced_partition(currents, n_groups)
                    assert np.array_equal(stack.case(c)[k], want), (c, n_groups)

    def test_case_accepts_negative_index(self):
        rows = self._rows(4)
        stack = network.partition_multi_stack(rows, 1, rows.shape[1])
        last = stack.case(-1)
        assert np.array_equal(last.cat, stack.case(stack.n_cases - 1).cat)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_array_mpp_multi_stack_equals_per_case(self, seed):
        rng = np.random.default_rng(seed + 100)
        rows = self._rows(seed)
        n = rows.shape[1]
        res = rng.uniform(0.4, 2.0, n)
        emf_rows = rows * (2.0 * res)
        stack = network.partition_multi_stack(rows, 1, n)
        power, voltage, current = network.array_mpp_multi_stack(
            emf_rows, res, stack
        )
        # The scalar oracle per candidate (array_mpp_multi runs the
        # same scoring core, so it cannot be the oracle).
        for c in range(rows.shape[0]):
            lo = stack.case_offsets[c]
            for k, starts in enumerate(stack.case(c)):
                assert_mpp_bitwise(
                    network.array_mpp(emf_rows[c], res, starts),
                    power[lo + k], voltage[lo + k], current[lo + k],
                )

    def test_window_broadcast_and_validation(self):
        rows = np.abs(self._rows(8)) + 0.01
        n = rows.shape[1]
        stack = network.partition_multi_stack(rows, 2, 5)
        assert np.all(np.diff(stack.case_offsets) == 4)
        with pytest.raises(ConfigurationError):
            network.partition_multi_stack(rows, 0, n)
        with pytest.raises(ConfigurationError):
            network.partition_multi_stack(rows, 3, 2)


class TestSingleCandidateNoTile:
    """A one-candidate set is one lane of the scoring core: it scores
    bitwise like the same candidate inside a larger set and like the
    scalar oracle."""

    def test_array_mpp_multi_single_candidate(self):
        rng = np.random.default_rng(21)
        emf = rng.uniform(0.1, 3.0, 16)
        res = rng.uniform(0.5, 2.0, 16)
        single = network.array_mpp_multi(emf, res, [[0, 4, 8, 12]])
        many = network.array_mpp_multi(
            emf, res, [[0, 4, 8, 12], [0, 8]]
        )
        for a, b in zip(single, many):
            assert a[0].tobytes() == b[0].tobytes()

    def test_array_mpp_rows_multi_single_config(self):
        rng = np.random.default_rng(22)
        emf_rows = rng.uniform(0.1, 3.0, (7, 12))
        res = rng.uniform(0.5, 2.0, 12)
        power, voltage = _rows_multi(emf_rows, res, [[0, 3, 6, 9]])
        p_ref, v_ref = network.array_mpp_rows(emf_rows, res, [0, 3, 6, 9])
        assert power[0].tobytes() == p_ref.tobytes()
        assert voltage[0].tobytes() == v_ref.tobytes()


class TestScoringCore:
    """Every batched MPP kernel runs one scoring core; pin it against
    the scalar ``array_mpp`` / ``array_mpp_rows`` oracles where it is
    easiest to get wrong: candidates of 180-220 groups (series sums
    past the pairwise tree's 128-element leaf), signed-zero and
    all-zero EMF segments, several horizon rows and several cases."""

    N = 400

    @pytest.fixture(scope="class")
    def chain(self):
        rng = np.random.default_rng(400)
        res = rng.uniform(0.5, 2.0, self.N)
        # Three cases; row 0 of each keeps a -0.0 run and a zero run,
        # and case 2's last row is dead (every EMF -0.0).
        emf = rng.uniform(0.1, 3.0, (3, 4, self.N))
        emf[:, 0, 40:48] = -0.0
        emf[:, 0, 100:140] = 0.0
        emf[2, 3] = -0.0
        candidates = [
            network.partition_multi(case[1] / (2.0 * res), 180, 220)
            for case in emf
        ]
        return emf, res, candidates

    def test_inor_candidates(self, chain):
        emf, res, candidates = chain
        for case, cands in zip(emf, candidates):
            for row in (case[0], case[3]):
                power, voltage, current = network.array_mpp_multi(
                    row, res, cands
                )
                for k, starts in enumerate(cands):
                    assert_mpp_bitwise(
                        network.array_mpp(row, res, starts),
                        power[k], voltage[k], current[k],
                    )

    @pytest.mark.parametrize("n_cases", [1, 3])
    def test_stacked_inor_candidates(self, chain, n_cases):
        emf, res, _ = chain
        rows = emf[:n_cases, 0]
        stack = network.partition_multi_stack(
            emf[:n_cases, 1] / (2.0 * res), 180, 220
        )
        power, voltage, current = network.array_mpp_multi_stack(
            rows, res, stack
        )
        for c in range(n_cases):
            lo = stack.case_offsets[c]
            for k, starts in enumerate(stack.case(c)):
                assert_mpp_bitwise(
                    network.array_mpp(rows[c], res, starts),
                    power[lo + k], voltage[lo + k], current[lo + k],
                )

    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_horizon_rows(self, chain, n_rows):
        emf, res, candidates = chain
        configs = list(candidates[0])[::8] + [[0], list(range(self.N))]
        rows = emf[2, 4 - n_rows:]
        power, voltage = _rows_multi(rows, res, configs)
        assert power.shape == voltage.shape == (len(configs), n_rows)
        for k, starts in enumerate(configs):
            p_ref, v_ref = network.array_mpp_rows(rows, res, starts)
            assert power[k].tobytes() == p_ref.tobytes()
            assert voltage[k].tobytes() == v_ref.tobytes()

    @pytest.mark.parametrize("n_rows", [1, 4])
    @pytest.mark.parametrize("n_cases", [1, 3])
    def test_stacked_horizon_lanes_mix_cases(self, chain, n_cases, n_rows):
        emf, res, candidates = chain
        stack = emf[:n_cases, 4 - n_rows:]
        # Lanes out of case order, a case scored by several lanes.
        case_of_config = [(7 * p) % n_cases for p in range(9)]
        configs = [
            candidates[c][(5 * p) % len(candidates[c])]
            for p, c in enumerate(case_of_config)
        ]
        power, voltage = network.array_mpp_rows_multi_stack(
            stack, res, configs, case_of_config
        )
        assert power.shape == voltage.shape == (len(configs), n_rows)
        for p, (c, starts) in enumerate(zip(case_of_config, configs)):
            p_ref, v_ref = network.array_mpp_rows(stack[c], res, starts)
            assert power[p].tobytes() == p_ref.tobytes()
            assert voltage[p].tobytes() == v_ref.tobytes()
