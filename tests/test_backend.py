"""Backend registry + segmented pairwise tree reduction pins.

The backend layer's whole contract is a single sentence: every backend's
``segmented_pairwise_sum`` is **bit-identical** to contiguous-slice
``ndarray.sum``, and a backend that cannot honour that is *unavailable*,
never silently substituted.  This suite pins both halves — the NumPy
tree against ``ndarray.sum`` over adversarial segment layouts (empty,
length-1, lane-boundary, power-of-two, deep-recursion, ``-0.0``-laced),
and the registry's selection/failure behaviour (env default, unknown
names, unavailable optional wheels).  The partition-build entry points
(``prefix_table`` / ``next_cut_map`` / ``lift_cuts``) carry the same
contract and are pinned NumPy == optional backend on the same bytes.
"""

import numpy as np
import pytest

from repro.backend import (
    BACKEND_ENV_VAR,
    BACKEND_NAMES,
    BackendUnavailableError,
    PAIRWISE_BLOCKSIZE,
    available_backends,
    backend_unavailable_reason,
    default_backend_name,
    get_backend,
    lift_cuts,
    next_cut_map,
    prefix_table,
    segmented_pairwise_sum,
)
from repro.backend._partition import searchsorted_rows_right
from repro.errors import ConfigurationError


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
        ],
    )
    def test_rejects_malformed_offsets(self, offsets):
        with pytest.raises(ConfigurationError):
            segmented_pairwise_sum(np.ones(4), offsets)


class TestBackendRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()
        assert backend_unavailable_reason("numpy") is None
        assert get_backend("numpy").name == "numpy"

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("fortran")
        with pytest.raises(ConfigurationError, match="unknown backend"):
            backend_unavailable_reason("fortran")

    def test_default_backend_tracks_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert default_backend_name() == "numpy"
        monkeypatch.setenv(BACKEND_ENV_VAR, "numba")
        assert default_backend_name() == "numba"
        monkeypatch.setenv(BACKEND_ENV_VAR, "  ")
        assert default_backend_name() == "numpy"

    def test_unavailable_backend_raises_not_degrades(self):
        """A named-but-absent backend must raise, never fall back."""
        for name in ("numba", "cupy"):
            reason = backend_unavailable_reason(name)
            if reason is None:
                continue  # wheel present on this host: covered below
            with pytest.raises(BackendUnavailableError, match=name):
                get_backend(name)

    def test_backend_names_cover_factories(self):
        assert set(BACKEND_NAMES) == {"numpy", "numba", "cupy"}


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


@pytest.mark.parametrize("name", ["numba", "cupy"])
class TestOptionalBackendParity:
    """When an optional wheel is present, hold it to the same bit."""

    def test_optional_backend_matches_numpy(self, name):
        if backend_unavailable_reason(name) is not None:
            pytest.skip(f"backend {name!r} not available on this host")
        rng = np.random.default_rng(2018)
        offsets = _random_layout(rng, 25)
        values = rng.normal(size=int(offsets[-1]))
        got = segmented_pairwise_sum(values, offsets, backend=name)
        want = segmented_pairwise_sum(values, offsets, backend="numpy")
        assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_partition_build_matches_numpy(self, name, seed):
        """The three partition-build stages yield identical bytes on
        every backend, including zero-current flat runs and lane counts
        spanning [1, N]."""
        if backend_unavailable_reason(name) is not None:
            pytest.skip(f"backend {name!r} not available on this host")
        rng = np.random.default_rng(seed)
        n_cases, n_modules, n_lanes = 5, 24, 12
        rows = np.abs(rng.normal(size=(n_cases, n_modules))) * np.exp(
            rng.uniform(-4.0, 4.0, (n_cases, n_modules))
        )
        rows[0, 5:13] = 0.0  # a zero-current flat run mid-row
        rows[3, :4] = 0.0  # and one at the start
        flat_rows = (rows == 0.0).any(axis=1)
        row_of = rng.integers(0, n_cases, size=n_lanes)
        counts = rng.integers(1, n_modules + 1, size=n_lanes)

        prefix_want = prefix_table(rows, backend="numpy")
        prefix_got = np.asarray(prefix_table(rows, backend=name))
        assert prefix_got.tobytes() == prefix_want.tobytes()

        ideals = prefix_want[row_of, -1] / counts
        next_want = next_cut_map(
            prefix_want, row_of, ideals, flat_rows, backend="numpy"
        )
        next_got = np.asarray(
            next_cut_map(prefix_want, row_of, ideals, flat_rows, backend=name)
        )
        assert next_got.tobytes() == next_want.tobytes()

        n_lift = int(counts.max())
        cuts_want = lift_cuts(next_want, counts, n_lift, backend="numpy")
        cuts_got = np.asarray(
            lift_cuts(next_want, counts, n_lift, backend=name)
        )
        assert cuts_got.tobytes() == cuts_want.tobytes()
