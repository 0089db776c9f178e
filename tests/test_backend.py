"""Segmented pairwise tree reduction and partition-search pins.

The decision kernels' segmented reductions hold to one contract:
``segmented_pairwise_sum`` is **bit-identical** to contiguous-slice
``ndarray.sum``.  This suite pins it over adversarial segment layouts
(empty, length-1, lane-boundary, power-of-two, deep-recursion,
``-0.0``-laced), and pins the next-cut map's row-wise search against a
per-row ``np.searchsorted`` oracle.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.teg._pairwise import PAIRWISE_BLOCKSIZE, segmented_pairwise_sum
from repro.teg._partition import prefix_table, searchsorted_rows_right


def _reference(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment contiguous-slice ``ndarray.sum`` — the golden model."""
    return np.stack(
        [
            values[..., lo:hi].sum(axis=-1)
            for lo, hi in zip(offsets, offsets[1:])
        ],
        axis=-1,
    )


def _random_layout(rng, n_segments):
    """Segment lengths biased toward the tree's structural boundaries."""
    special = np.array(
        [0, 0, 1, 1, 2, 7, 8, 9, 16, 64, 127, 128, 129, 256, 512]
    )
    lengths = np.where(
        rng.uniform(size=n_segments) < 0.6,
        rng.choice(special, size=n_segments),
        rng.integers(0, 700, size=n_segments),
    )
    return np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)


class TestPairwiseTreeBitwise:
    """The tree reduction is ``ndarray.sum``, bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_layouts_match_ndarray_sum(self, seed):
        rng = np.random.default_rng(seed)
        offsets = _random_layout(rng, int(rng.integers(1, 40)))
        total = int(offsets[-1])
        values = rng.normal(size=total) * np.exp(
            rng.uniform(-8.0, 8.0, total)
        )
        values[rng.uniform(size=total) < 0.05] = -0.0
        got = segmented_pairwise_sum(values, offsets)
        want = _reference(values, offsets)
        assert got.tobytes() == want.tobytes()

    def test_empty_segments(self):
        """Empty segments sum to +0.0 exactly, like ``ndarray.sum``."""
        values = np.array([1.0, -2.0, 3.0])
        offsets = np.array([0, 0, 2, 2, 3, 3])
        got = segmented_pairwise_sum(values, offsets)
        want = _reference(values, offsets)
        assert got.tobytes() == want.tobytes()
        assert np.copysign(1.0, got[0]) == 1.0  # +0.0, not -0.0

    def test_length_one_segments_match_ndarray_sum(self):
        """Length-1 segments follow ``ndarray.sum``'s zero-init
        accumulator: ``sum([-0.0])`` is ``+0.0``, not a pass-through."""
        values = np.array([-0.0, 5.0, -0.0, 1.0e-300])
        offsets = np.arange(5)
        got = segmented_pairwise_sum(values, offsets)
        want = _reference(values, offsets)
        assert got.tobytes() == want.tobytes()
        assert np.copysign(1.0, got[0]) == 1.0

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64, 128, 256, 1024])
    def test_power_of_two_segments(self, n):
        rng = np.random.default_rng(n)
        values = rng.normal(size=3 * n) * np.exp(
            rng.uniform(-6.0, 6.0, 3 * n)
        )
        offsets = np.array([0, n, 2 * n, 3 * n])
        got = segmented_pairwise_sum(values, offsets)
        want = _reference(values, offsets)
        assert got.tobytes() == want.tobytes()

    def test_blocksize_straddling_segments(self):
        """Lengths bracketing the recursion leaf must hit both paths."""
        lengths = [
            PAIRWISE_BLOCKSIZE - 1,
            PAIRWISE_BLOCKSIZE,
            PAIRWISE_BLOCKSIZE + 1,
            2 * PAIRWISE_BLOCKSIZE + 5,
        ]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        rng = np.random.default_rng(7)
        values = rng.normal(size=int(offsets[-1]))
        got = segmented_pairwise_sum(values, offsets)
        want = _reference(values, offsets)
        assert got.tobytes() == want.tobytes()

    def test_stacked_rows_reduce_along_last_axis(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(4, 100))
        offsets = np.array([0, 0, 1, 9, 50, 100])
        got = segmented_pairwise_sum(values, offsets)
        want = _reference(values, offsets)
        assert got.shape == (4, 5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "offsets",
        [
            np.array([], dtype=np.int64),
            np.array([[0, 1]]),
            np.array([0, 5, 3]),
            np.array([-1, 2]),
            np.array([0, 99]),
            # Non-integral or non-integer offsets are refused, never
            # truncated into a different layout.
            np.array([0, 1.5, 4]),
            np.array([0.0, 2.0, 4.0]),
            np.array([False, True]),
            [0, 1.5, 4],
        ],
    )
    def test_rejects_malformed_offsets(self, offsets):
        with pytest.raises(ConfigurationError):
            segmented_pairwise_sum(np.ones(4), offsets)


def _offsets(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)


class TestPairwiseLeafFuzz:
    """The padded leaf gather against ``_reference`` on the shapes the
    kernels feed it, and on the values padding could get wrong."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_rows", [0, 1, 8])
    def test_kernel_shaped_layouts(self, seed, n_rows):
        """``(S + 1, G)`` blocks, segment lengths uniform over 1–130."""
        rng = np.random.default_rng(100 * seed + n_rows)
        offsets = _offsets(rng.integers(1, 131, size=int(rng.integers(1, 60))))
        values = rng.normal(size=(n_rows + 1, int(offsets[-1])))
        values *= np.exp(rng.uniform(-6.0, 6.0, values.shape))
        values[rng.uniform(size=values.shape) < 0.05] = -0.0
        got = segmented_pairwise_sum(values, offsets)
        assert got.shape == (n_rows + 1, offsets.size - 1)
        assert got.tobytes() == _reference(values, offsets).tobytes()

    @pytest.mark.parametrize(
        "lengths", [range(1, 18), range(120, 137)], ids=["1-17", "120-136"]
    )
    def test_all_negative_zero_segments(self, lengths):
        """Every all-``-0.0`` sum is the ``+0.0`` of ``ndarray.sum``,
        whether other leaves pad it with tail slots or not (one segment
        alone)."""
        layouts = [_offsets(list(lengths))] + [_offsets([n]) for n in lengths]
        for offsets in layouts:
            values = np.full((2, int(offsets[-1])), -0.0)
            got = segmented_pairwise_sum(values, offsets)
            want = _reference(values, offsets)
            assert got.tobytes() == want.tobytes()
            assert np.all(np.copysign(1.0, got) == 1.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_signed_infinities(self, seed):
        """Segments holding one sign of ``inf`` sum to it, bit for bit."""
        rng = np.random.default_rng(seed)
        offsets = _offsets(rng.integers(1, 200, size=30))
        values = rng.normal(size=(3, int(offsets[-1])))
        for lo, hi in zip(offsets, offsets[1:]):
            hits = rng.integers(lo, hi, size=int(rng.integers(0, 3)))
            values[:, hits] = rng.choice([np.inf, -np.inf])
        got = segmented_pairwise_sum(values, offsets)
        want = _reference(values, offsets)
        assert np.isinf(want).any()
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_nan_positions(self, seed):
        """NaN and mixed ``±inf`` segments are NaN exactly where
        ``ndarray.sum``'s are; every other sum is bitwise equal."""
        rng = np.random.default_rng(seed)
        offsets = _offsets(rng.integers(1, 200, size=30))
        values = rng.normal(size=(3, int(offsets[-1])))
        values[rng.uniform(size=values.shape) < 0.004] = np.nan
        values[rng.uniform(size=values.shape) < 0.004] = np.inf
        values[rng.uniform(size=values.shape) < 0.004] = -np.inf
        with np.errstate(invalid="ignore"):  # inf - inf
            got = segmented_pairwise_sum(values, offsets)
            want = _reference(values, offsets)
        nan = np.isnan(want)
        assert nan.any() and not nan.all()
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_split_leaves_straddle_blocks(self):
        """Segments over the leaf size, starting off the 8-grid, whose
        split halves end in partial 8-blocks and tails."""
        lengths = [3, 129, 135, 5, 257, 300, 7, 519, 1031, 130, 0, 2 * 128 + 9]
        offsets = _offsets(lengths)
        rng = np.random.default_rng(11)
        values = rng.normal(size=(2, 2, int(offsets[-1])))
        values *= np.exp(rng.uniform(-8.0, 8.0, values.shape))
        values[rng.uniform(size=values.shape) < 0.05] = -0.0
        got = segmented_pairwise_sum(values, offsets)
        assert got.tobytes() == _reference(values, offsets).tobytes()


class TestSearchsortedRowsRight:
    """The next-cut map's row-wise search against a per-row
    ``np.searchsorted(side="right")`` oracle."""

    @staticmethod
    def _table(rng):
        # Zero currents make flat runs in the prefix rows; the next-cut
        # map searches them padded with +inf.
        rows = rng.uniform(0.0, 1.0, (6, 30))
        rows[rows < 0.3] = 0.0
        return np.concatenate(
            (prefix_table(rows), np.full((6, 1), np.inf)), axis=1
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("layout", ["sorted", "shuffled"])
    def test_matches_per_row_oracle(self, seed, layout):
        rng = np.random.default_rng(seed)
        table = self._table(rng)
        row_of = rng.integers(0, table.shape[0], size=40)
        if layout == "sorted":
            row_of.sort()
        # Targets equal to table entries of the searched row (flat-run
        # values and +inf included), values between them, below the
        # first entry and past the last finite one.
        picks = table[row_of[:, None], rng.integers(0, 32, (40, 25))]
        step = rng.choice([0.0, 0.0, -1e-3, 0.3, -2.0, 50.0], (40, 25))
        targets = picks + step
        want = np.stack(
            [np.searchsorted(table[r], t, side="right")
             for r, t in zip(row_of, targets)]
        )
        got = searchsorted_rows_right(table, row_of, targets)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_no_target_rows(self):
        table = self._table(np.random.default_rng(3))
        got = searchsorted_rows_right(
            table, np.zeros(0, dtype=np.int64), np.empty((0, 31))
        )
        assert got.shape == (0, 31)
