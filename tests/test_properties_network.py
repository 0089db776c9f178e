"""Property-based tests for the Thevenin network algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.teg import network


@st.composite
def module_chain(draw, min_size=2, max_size=24):
    """A random module chain: EMFs in (0.1, 8) V, resistances (0.2, 5)."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    emf = draw(
        st.lists(
            st.floats(0.1, 8.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    res = draw(
        st.lists(
            st.floats(0.2, 5.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.asarray(emf), np.asarray(res)


@st.composite
def chain_with_partition(draw):
    emf, res = draw(module_chain())
    n = emf.size
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=n - 1), unique=True, max_size=n - 1)
    )
    starts = tuple([0] + sorted(cuts))
    return emf, res, starts


class TestTheveninProperties:
    @given(module_chain())
    @settings(max_examples=60, deadline=None)
    def test_parallel_resistance_below_min(self, chain):
        emf, res = chain
        _, r_g = network.parallel_reduce(emf, res)
        assert r_g <= res.min() + 1e-12

    @given(module_chain())
    @settings(max_examples=60, deadline=None)
    def test_parallel_emf_within_hull(self, chain):
        """Group EMF is a convex combination of member EMFs."""
        emf, res = chain
        e_g, _ = network.parallel_reduce(emf, res)
        assert emf.min() - 1e-9 <= e_g <= emf.max() + 1e-9

    @given(chain_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_mpp_dominates_sampled_currents(self, case):
        emf, res, starts = case
        mpp = network.array_mpp(emf, res, starts)
        for frac in (0.0, 0.3, 0.7, 1.3, 2.0):
            p = network.power_at_current(emf, res, starts, mpp.current_a * frac)
            assert p <= mpp.power_w + 1e-9

    @given(chain_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_configured_power_never_exceeds_ideal(self, case):
        """No wiring beats every-module-at-its-own-MPP."""
        emf, res, starts = case
        ideal = float((emf * emf / (4.0 * res)).sum())
        mpp = network.array_mpp(emf, res, starts)
        assert mpp.power_w <= ideal + 1e-9

    @given(chain_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_module_power_sums_to_array_power(self, case):
        emf, res, starts = case
        mpp = network.array_mpp(emf, res, starts)
        _, _, p_modules = network.module_operating_points(
            emf, res, starts, mpp.current_a
        )
        assert np.isclose(p_modules.sum(), mpp.power_w, rtol=1e-9, atol=1e-9)

    @given(chain_with_partition())
    @settings(max_examples=60, deadline=None)
    def test_branch_currents_sum_per_group(self, case):
        emf, res, starts = case
        current = 0.7
        _, branch, _ = network.module_operating_points(emf, res, starts, current)
        bounds = list(starts) + [emf.size]
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.isclose(branch[lo:hi].sum(), current, rtol=1e-9, atol=1e-9)

    @given(module_chain())
    @settings(max_examples=40, deadline=None)
    def test_segment_tables_agree_with_direct_reduction(self, chain):
        emf, res = chain
        tables = network.SegmentThevenin.from_modules(emf, res)
        n = emf.size
        for lo, hi in [(0, n), (0, 1), (n - 1, n), (n // 3, 2 * n // 3 + 1)]:
            if lo >= hi:
                continue
            e_direct, r_direct = network.parallel_reduce(emf[lo:hi], res[lo:hi])
            e_seg, r_seg = tables.segment(lo, hi)
            assert np.isclose(e_seg, e_direct, rtol=1e-9)
            assert np.isclose(r_seg, r_direct, rtol=1e-9)

    @given(st.integers(min_value=2, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_equal_modules_power_invariant_across_equal_splits(self, n):
        """Identical modules: every *equal-size* partition has equal MPP.

        (Unequal splits genuinely differ — that asymmetry is the entire
        source of reconfiguration gains, see DESIGN.md section 5.)
        """
        uniform_emf = np.full(n, 3.0)
        uniform_res = np.full(n, 1.5)
        p_ref = network.array_mpp(uniform_emf, uniform_res, [0]).power_w
        for n_groups in range(1, n + 1):
            if n % n_groups != 0:
                continue
            size = n // n_groups
            starts = list(range(0, n, size))
            p = network.array_mpp(uniform_emf, uniform_res, starts).power_w
            assert np.isclose(p, p_ref, rtol=1e-9)


@st.composite
def near_zero_stack(draw):
    """A stack of current rows near zero current, one window each.

    Each module draws from signed zeros, sub-milliamp currents of both
    signs and a few larger ones, so some rows are non-negative (the
    prefix-map branch, flat zero runs included) and others hold a
    back-biased module (the walk branch).  Every window starts at one
    group, so each row also has a one-group lane.
    """
    n = draw(st.integers(min_value=2, max_value=28))
    k = draw(st.integers(min_value=1, max_value=6))
    values = st.sampled_from([0.0, -0.0, 1e-4, -1e-4, 3e-4, -2e-5, 0.02])
    rows = np.asarray(
        draw(
            st.lists(
                st.lists(values, min_size=n, max_size=n), min_size=k, max_size=k
            )
        )
    )
    n_max = np.asarray(
        draw(st.lists(st.integers(1, n), min_size=k, max_size=k)), dtype=np.int64
    )
    return rows, n_max


class TestPartitionBranchesNearZeroCurrent:
    @given(near_zero_stack())
    @settings(max_examples=200, deadline=None)
    def test_mixed_stack_pinned_to_scalar(self, case):
        """Rows flip between the prefix map and the walk at zero
        current; every lane of the mixed stack is the scalar oracle's
        partition, bit for bit."""
        rows, n_max = case
        stack = network.partition_multi_stack(rows, 1, n_max)
        for c, row in enumerate(rows):
            case_set = stack.case(c)
            assert len(case_set) == n_max[c]
            for k, n_groups in enumerate(range(1, n_max[c] + 1)):
                want = network.greedy_balanced_partition(row, n_groups)
                assert np.array_equal(case_set[k], want), (c, n_groups)
