"""The array passes of the greedy balanced-partition build.

The build of :func:`repro.teg.network.partition_multi_stack` decomposes
into three array passes — the cumulative-current **prefix table**, the
row-wise searchsorted **next-cut map** (with the walk's tie rule and
flat-run extension), and the **binary-lifting** iteration of that map.
The expression trees here are the ones the scalar walk's cuts are pinned
against: only the prefix table and the tie-rule comparison touch
floating point; the next-cut binary search and the lifting gathers are
integer-exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np


@lru_cache(maxsize=128)
def _index_arange(n: int) -> np.ndarray:
    """A shared, read-only ``arange(n)`` (hot-path index scaffolding)."""
    indices = np.arange(n, dtype=np.int64)
    indices.setflags(write=False)
    return indices


@lru_cache(maxsize=128)
def _lift_plan(n_max: int) -> Tuple[Tuple[int, np.ndarray], ...]:
    """Binary-lifting schedule: per bit, the read-only column indices
    (iterate numbers ``j < n_max`` with that bit set)."""
    j_index = _index_arange(n_max)
    plan = []
    bit = 1
    while bit < n_max:
        columns = j_index[(j_index & bit) != 0]
        columns.setflags(write=False)
        plan.append((bit, columns))
        bit <<= 1
    return tuple(plan)


def searchsorted_rows_right(
    table_rows: np.ndarray, row_of: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Row-wise ``searchsorted(side="right")`` across many tables.

    ``table_rows`` is ``(C, M)``, every row sorted ascending;
    ``targets`` is ``(K, T)`` and ``row_of[k]`` names the table row the
    ``k``-th target row searches.  Each run of consecutive target rows
    that search the same table row is one ``np.searchsorted`` call on a
    slice, so a sorted ``row_of`` (every caller's case order) costs one
    call per distinct table row; the results equal
    ``np.searchsorted(table_rows[row_of[k]], targets[k], "right")`` per
    row for any ``row_of``.
    """
    bound = np.empty(targets.shape, dtype=np.int64)
    edges = (np.flatnonzero(row_of[1:] != row_of[:-1]) + 1).tolist()
    runs = [0, *edges, row_of.size] if row_of.size else []
    for lo, hi in zip(runs, runs[1:]):
        bound[lo:hi] = table_rows[row_of[lo]].searchsorted(
            targets[lo:hi], side="right"
        )
    return bound


def prefix_table(rows: np.ndarray) -> np.ndarray:
    """Per-row cumulative-current prefix table, zero-led.

    ``prefix[c, j] = sum(rows[c, :j])`` via ``np.cumsum`` — the
    sequential accumulation the scalar walk's group sums bracket
    against (``sum(rows[c, pos:cut]) = prefix[c, cut] - prefix[c, pos]``).
    """
    n_cases = rows.shape[0]
    return np.concatenate(
        (np.zeros((n_cases, 1)), np.cumsum(rows, axis=1)), axis=1
    )


def next_cut_map(
    prefix_rows: np.ndarray,
    row_of: np.ndarray,
    ideals: np.ndarray,
    flat_rows: np.ndarray,
) -> np.ndarray:
    """The pure next-cut map, all lanes x all positions.

    ``prefix_rows`` is the ``(C, N + 1)`` prefix table, ``row_of[k]``
    the case row lane ``k`` searches, ``ideals[k]`` its per-group ideal
    current sum and ``flat_rows`` a ``(C,)`` boolean marking rows with
    zero-current flat runs.  Returns the ``(K, N + 1)`` map
    ``nxt[k, pos]`` = greedy cut after a group starting at ``pos``:
    the bracketing searchsorted bound, the walk's lower-cut-wins tie
    rule, the one-module-per-group floor and the saturation clamp at
    ``N``, plus the flat-run extension through equal prefix values.
    """
    n_cases = prefix_rows.shape[0]
    n_modules = prefix_rows.shape[1] - 1
    # targets[k, c] = P[c] + I_ideal_k; bound = first prefix entry
    # strictly above it, so (bound-1, bound) bracket the target.
    targets = prefix_rows[row_of] + ideals[:, None]
    bound = searchsorted_rows_right(prefix_rows, row_of, targets)
    # Walk tie rule via the bracket midpoint: the lower cut wins only
    # on strictly smaller error, i.e. P[bound] + P[bound-1] > 2*target
    # (prefix is padded with +inf so bound = N+1 resolves below).
    padded = np.concatenate(
        (prefix_rows, np.full((n_cases, 1), np.inf)), axis=1
    )
    padded_flat = padded.reshape(-1)
    prefix_flat = prefix_rows.reshape(-1)
    pad_base = (row_of * (n_modules + 2))[:, None]
    pre_base = (row_of * (n_modules + 1))[:, None]
    nxt = bound - (
        padded_flat[pad_base + bound]
        + prefix_flat[pre_base + bound - 1]
        > 2.0 * targets
    )
    np.maximum(nxt, _index_arange(n_modules + 2)[None, 1:], out=nxt)
    np.minimum(nxt, n_modules, out=nxt)
    flat_sel = np.flatnonzero(flat_rows[row_of])
    if flat_sel.size:
        # Zero-current flat runs: equal prefix value means equal error,
        # and the walk extends through ties — jump to the run's end.
        sub_rows = row_of[flat_sel]
        sub_base = (sub_rows * (n_modules + 1))[:, None]
        nxt[flat_sel] = (
            searchsorted_rows_right(
                prefix_rows, sub_rows, prefix_flat[sub_base + nxt[flat_sel]]
            )
            - 1
        )
    return nxt


def lift_cuts(
    next_map: np.ndarray, counts: np.ndarray, n_lift: int
) -> np.ndarray:
    """All walk iterates of the next-cut map, by binary lifting.

    ``cuts[k, j] = nxt_k^j(0)``; column ``j`` is assembled from the
    powers ``nxt^(2^b)`` selected by ``j``'s bits (composition of
    powers commutes).  Gathers run on the flattened map with per-lane
    row offsets — a direct C-level take.  The trailing clamp
    ``min(cut_j, N - n + j)`` keeps every remaining group non-empty;
    the map's monotonicity makes it equivalent to clamping per step.
    """
    n_lanes = next_map.shape[0]
    n_modules = next_map.shape[1] - 1
    cuts = np.zeros((n_lanes, n_lift), dtype=np.int64)
    row_base = (_index_arange(n_lanes) * (n_modules + 1))[:, None]
    doubling = next_map
    flat = doubling.reshape(-1)
    lift_plan = _lift_plan(n_lift)
    for step, (bit, columns) in enumerate(lift_plan):
        cuts[:, columns] = flat[cuts[:, columns] + row_base]
        if step + 1 < len(lift_plan):
            doubling = flat[doubling + row_base]
            flat = doubling.reshape(-1)
    np.minimum(
        cuts,
        (n_modules - counts)[:, None] + _index_arange(n_lift)[None, :],
        out=cuts,
    )
    return cuts
