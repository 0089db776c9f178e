"""The array passes of the greedy balanced-partition build.

The build of :func:`repro.teg.network.partition_multi_stack` decomposes
into three array passes — the cumulative-current **prefix table**, the
row-wise searchsorted **next-cut map** (with the walk's tie rule and
flat-run extension), and the **binary-lifting** iteration of that map —
over one cached **candidate layout** of the group-count windows; the
lifted cuts and the back-biased walk's share one **tail clamp**.
The expression trees here are the ones the scalar walk's cuts are pinned
against: only the prefix table and the tie-rule comparison touch
floating point; the next-cut binary search and the lifting gathers are
integer-exact.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple

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


class StackLayout(NamedTuple):
    """Read-only candidate layout of a stack of group-count windows.

    Per candidate, case after case: its group count, its boundaries
    into the flat cuts, its owning case; per case, its candidate
    boundaries; and the ``(candidates, widest count)`` mask of each
    candidate's cuts.
    """

    counts: np.ndarray
    offsets: np.ndarray
    case_of_candidate: np.ndarray
    case_offsets: np.ndarray
    ragged_mask: np.ndarray


@lru_cache(maxsize=64)
def stack_layout(
    n_cases: int, n_mins: bytes, n_maxs: bytes
) -> Optional[StackLayout]:
    """The :class:`StackLayout` of ``n_cases`` windows.

    ``n_mins`` / ``n_maxs`` are the bytes of ``int64`` window vectors,
    or of scalars every case shares.  ``None`` when a window is empty
    or starts below one group.
    """
    lows, highs = (
        np.broadcast_to(np.frombuffer(window, dtype=np.int64), (n_cases,))
        for window in (n_mins, n_maxs)
    )
    widths = highs - lows + 1
    if lows.min() < 1 or widths.min() < 1:
        return None
    case_offsets = np.concatenate(([0], np.cumsum(widths)))
    n_candidates = int(case_offsets[-1])
    case_of_candidate = np.repeat(_index_arange(widths.size), widths)
    counts = lows.repeat(widths) + (
        _index_arange(n_candidates) - case_offsets[:-1].repeat(widths)
    )
    offsets = np.concatenate(([0], np.cumsum(counts)))
    ragged_mask = _index_arange(int(counts.max()))[None, :] < counts[:, None]
    for array in (counts, offsets, case_of_candidate, case_offsets, ragged_mask):
        array.setflags(write=False)
    return StackLayout(
        counts=counts,
        offsets=offsets,
        case_of_candidate=case_of_candidate,
        case_offsets=case_offsets,
        ragged_mask=ragged_mask,
    )


def _row_runs(row_of: np.ndarray) -> List[int]:
    """Boundaries of the runs of equal consecutive ``row_of`` entries."""
    if not row_of.size:
        return []
    edges = (np.flatnonzero(row_of[1:] != row_of[:-1]) + 1).tolist()
    return [0, *edges, row_of.size]


def searchsorted_rows_right(
    table_rows: np.ndarray,
    row_of: np.ndarray,
    targets: np.ndarray,
    runs: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Row-wise ``searchsorted(side="right")`` across many tables.

    ``table_rows`` is ``(C, M)``, every row sorted ascending;
    ``targets`` is ``(K, T)`` and ``row_of[k]`` names the table row the
    ``k``-th target row searches.  Each run of consecutive target rows
    that search the same table row is one ``np.searchsorted`` call on a
    slice, so a sorted ``row_of`` (every caller's case order) costs one
    call per distinct table row; the results equal
    ``np.searchsorted(table_rows[row_of[k]], targets[k], "right")`` per
    row for any ``row_of``.  ``runs`` may pass those run boundaries
    (``0``, each change of ``row_of``, its length) when already known.
    """
    if runs is None:
        runs = _row_runs(row_of)
    if len(runs) == 2:  # one table row serves every target row
        return table_rows[row_of[0]].searchsorted(targets, side="right")
    bound = np.empty(targets.shape, dtype=np.int64)
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
    prefix = np.empty((rows.shape[0], rows.shape[1] + 1))
    prefix[:, 0] = 0.0
    np.cumsum(rows, axis=1, out=prefix[:, 1:])
    return prefix


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
    n_modules = prefix_rows.shape[1] - 1
    # targets[k, c] = P[c] + I_ideal_k; bound = first prefix entry
    # strictly above it, so (bound-1, bound) bracket the target.
    targets = prefix_rows[row_of]
    targets += ideals[:, None]
    runs = _row_runs(row_of)
    bound = searchsorted_rows_right(prefix_rows, row_of, targets, runs)
    # Walk tie rule via the bracket midpoint: the lower cut wins only
    # on strictly smaller error, i.e. P[bound] + P[bound-1] > 2*target.
    # bound = N+1 (no entry above the target) saturates at N below
    # whichever way the rule goes, so the bracket reads a clipped bound.
    upper = np.minimum(bound, n_modules)
    if len(runs) == 2:  # one table row serves every lane
        table = prefix_rows[row_of[0]]
    else:
        table = prefix_rows.reshape(-1)
        upper += (row_of * (n_modules + 1))[:, None]
    nxt = bound - (table[upper] + table[upper - 1] > 2.0 * targets)
    np.maximum(nxt, _index_arange(n_modules + 2)[None, 1:], out=nxt)
    np.minimum(nxt, n_modules, out=nxt)
    if flat_rows.any():
        # Zero-current flat runs: equal prefix value means equal error,
        # and the walk extends through ties — jump to the run's end.
        flat_sel = np.flatnonzero(flat_rows[row_of])
        sub_rows = row_of[flat_sel]
        nxt[flat_sel] = (
            searchsorted_rows_right(
                prefix_rows,
                sub_rows,
                prefix_rows[sub_rows[:, None], nxt[flat_sel]],
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
    row offsets — a direct C-level take.  The iterates then take the
    trailing clamp of :func:`clamp_tail`.
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
    return clamp_tail(cuts, counts, n_modules)


def clamp_tail(cuts: np.ndarray, counts: np.ndarray, n_modules: int) -> np.ndarray:
    """The trailing clamp ``min(cut_j, N - n + j)``, in place.

    ``cuts`` holds unclamped greedy cuts, lane ``k`` building a
    ``counts[k]``-group partition (a cut never made reads ``N``).  The
    walk clamps each cut so every later group keeps a module; clamping
    the finished cuts is exact because each step advances at least one
    module (saturating at ``N``): before the clamp binds the walks
    coincide, and once it binds at ``j`` every later cut is forced to
    ``N - n + j'``, which no unclamped cut undercuts.
    """
    np.minimum(
        cuts,
        (n_modules - counts)[:, None] + _index_arange(cuts.shape[1])[None, :],
        out=cuts,
    )
    return cuts
