"""Exact Thevenin algebra for the reconfigurable TEG array.

Topology
--------
The switch fabric of the paper's Fig. 4 can connect the physical chain
of ``N`` modules into any *ordered partition into contiguous groups*:
modules inside a group are wired in parallel, and the groups are wired
in series.  A configuration is therefore fully described by the sorted
0-based indices of each group's first module (``starts``), the 0-based
counterpart of the paper's ``C(g_1, ..., g_n)`` encoding.

Because each module is a linear Thevenin source (:mod:`repro.teg.module`),
every reduction here is exact:

* parallel group:  ``R_g = 1 / sum(1/R_i)``, ``E_g = R_g * sum(E_i/R_i)``
* series chain:    ``E = sum(E_g)``, ``R = sum(R_g)``
* array MPP:       ``I* = E / 2R``, ``P* = E^2 / 4R``

All functions are vectorised over numpy arrays; :class:`SegmentThevenin`
adds O(1) Thevenin lookups for arbitrary contiguous segments via prefix
sums, which the DP-style algorithms (EHTR, exact optimum) rely on.

Every batched decision kernel, one case or a stacked grid, runs one
partition build (:func:`partition_multi_stack`, over the array passes
of :mod:`repro.teg._partition`) and one MPP scoring core
(:func:`_series_thevenin`); the one-case entry points
(:func:`partition_multi`, :func:`array_mpp_multi`) are one-case calls
of the stacked ones.
The scalar :func:`greedy_balanced_partition`, :func:`array_mpp` and
:func:`array_mpp_rows` are the references they are pinned
bit-identical against.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.teg._pairwise import segmented_pairwise_sum
from repro.teg._partition import (
    _index_arange,
    clamp_tail,
    lift_cuts,
    next_cut_map,
    prefix_table,
    stack_layout,
)
from repro.teg.module import MPPPoint


__all__ = [
    "PartitionSet",
    "PartitionStack",
    "SegmentThevenin",
    "array_mpp",
    "array_mpp_multi",
    "array_mpp_multi_stack",
    "array_mpp_rows",
    "array_mpp_rows_multi_stack",
    "array_thevenin",
    "array_thevenin_rows",
    "greedy_balanced_partition",
    "module_operating_points",
    "parallel_reduce",
    "partition_multi",
    "partition_multi_stack",
    "power_at_current",
    "reduce_configuration",
    "validate_starts",
]


def validate_starts(starts: Sequence[int], n_modules: int) -> np.ndarray:
    """Validate and normalise a group-start index vector.

    Parameters
    ----------
    starts:
        0-based indices of each group's first module.  Must begin with
        0, be strictly increasing, and stay below ``n_modules``.
    n_modules:
        Number of modules in the chain.

    Returns
    -------
    numpy.ndarray
        The starts as an ``int64`` array.

    Raises
    ------
    ConfigurationError
        If the vector does not describe a partition of ``0..n_modules-1``
        into contiguous groups.
    """
    arr = np.asarray(starts, dtype=np.int64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError(f"starts must be a non-empty 1-D sequence, got {starts!r}")
    if n_modules <= 0:
        raise ConfigurationError(f"n_modules must be positive, got {n_modules}")
    if arr[0] != 0:
        raise ConfigurationError(f"first group must start at module 0, got {arr[0]}")
    if np.any(np.diff(arr) <= 0):
        raise ConfigurationError(f"starts must be strictly increasing, got {arr.tolist()}")
    if arr[-1] >= n_modules:
        raise ConfigurationError(
            f"last group start {arr[-1]} out of range for {n_modules} modules"
        )
    return arr


def greedy_balanced_partition(mpp_currents: np.ndarray, n_groups: int) -> np.ndarray:
    """The inner loop of Algorithm 1: one greedy balanced partition.

    Cuts each group where its MPP-current sum is closest to
    ``I_ideal``, ties extending the group, while always leaving at
    least one module for every remaining group.  This is the scalar
    reference the vectorised :func:`partition_multi` kernel is pinned
    bit-identical against (re-exported as
    :func:`repro.core.inor.greedy_balanced_partition`).

    Two float realisations of the same real-arithmetic rule exist, and
    which one runs is part of the bit-parity contract:

    * **Non-negative currents** (the physical radiator case) use the
      canonical *prefix-bracket* form — each cut is located by a
      binary search of the cumulative-current prefix table and the
      bracketing pair compared through their midpoint, the exact
      expression tree :func:`partition_multi` vectorises.  A
      locally-accumulated error walk agrees with it in real
      arithmetic but rounds mathematical ties differently (uniform
      module currents being the practical case), which is why the
      prefix form is canonical on this branch.
    * **Windows containing back-biased modules** (negative or NaN
      currents) take the classic accumulation walk, whose
      stop-at-first-error-increase behaviour is the reference there;
      :func:`partition_multi` and :func:`partition_multi_stack` run it
      for every candidate at once as lockstep lanes, with the same
      per-lane operation sequence, and clamp the finished cuts once
      (:func:`~repro.teg._partition.clamp_tail`).

    Returns
    -------
    numpy.ndarray
        Group start indices (0-based), length ``n_groups``.
    """
    currents = np.asarray(mpp_currents, dtype=float)
    n_modules = currents.size
    if not 1 <= n_groups <= n_modules:
        raise ConfigurationError(
            f"n_groups must lie in [1, {n_modules}], got {n_groups}"
        )
    starts = np.zeros(n_groups, dtype=np.int64)
    if n_groups == 1:
        return starts
    if float(currents.min()) >= 0.0:
        _greedy_prefix_walk(currents, n_groups, starts)
    else:
        _greedy_accumulation_walk(currents, n_groups, starts)
    return starts


def _greedy_prefix_walk(
    currents: np.ndarray, n_groups: int, starts: np.ndarray
) -> None:
    """Canonical prefix-bracket cuts for non-negative currents.

    Scalar twin of :func:`partition_multi`'s vectorised map: identical
    expression tree (same prefix table, same bracket-midpoint tie
    rule, same flat-run extension and clamps), so the two produce the
    same cut indices bit-for-bit.  Runs on plain Python floats and
    :func:`bisect.bisect_right` — IEEE-double arithmetic identical to
    the NumPy elementwise ops, without per-cut array dispatch.
    """
    n_modules = currents.size
    # tolist() yields the same doubles as the float64 prefix table.
    prefix = np.concatenate(([0.0], np.cumsum(currents))).tolist()
    has_flats = float(currents.min()) == 0.0
    ideal = float(currents.sum()) / n_groups
    end = n_modules + 1
    pos = 0
    for j in range(1, n_groups):
        # First prefix entry strictly above the ideal boundary; the
        # bracketing pair decides the cut, ties to the later one (a
        # bound past the table resolves below, like the kernel's +inf
        # padding).
        target = prefix[pos] + ideal
        bound = bisect_right(prefix, target)
        if bound >= end:
            cut = n_modules
        else:
            cut = bound - (prefix[bound] + prefix[bound - 1] > 2.0 * target)
        if cut <= pos:
            cut = pos + 1
        if has_flats:
            # Zero-current flat runs: equal prefix value means equal
            # error, and ties extend — jump to the run's end.
            cut = bisect_right(prefix, prefix[cut]) - 1
        # The cut may go no further than n_modules - (n_groups - j) so
        # later groups stay non-empty.
        max_cut = n_modules - (n_groups - j)
        if cut > max_cut:
            cut = max_cut
        starts[j] = cut
        pos = cut


def _greedy_accumulation_walk(
    currents: np.ndarray, n_groups: int, starts: np.ndarray
) -> None:
    """The classic left-to-right error walk (reference for negatives).

    Accumulates the group sum module by module and stops at the first
    error increase — the only correct reading of the greedy rule when
    negative currents make the cumulative sum non-monotone.
    """
    n_modules = currents.size
    ideal = float(currents.sum()) / n_groups
    pos = 0
    for j in range(1, n_groups):
        max_cut = n_modules - (n_groups - j)
        group_sum = currents[pos]
        cut = pos + 1
        best_err = abs(group_sum - ideal)
        while cut < max_cut:
            extended = group_sum + currents[cut]
            err = abs(extended - ideal)
            if err <= best_err:
                group_sum = extended
                cut += 1
                best_err = err
            else:
                break
        starts[j] = cut
        pos = cut


def _accumulation_walk_rows(
    currents_rows: np.ndarray, row_of: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Lockstep accumulation walks across many current vectors at once.

    Every lane is one ``(current vector, group count)`` candidate:
    lane ``k`` walks row ``row_of[k]`` of ``currents_rows`` building a
    ``counts[k]``-group partition.  Extending the open group and
    closing it to re-seed the next both advance a walk by exactly one
    module, so at step ``i`` every lane examines module ``i`` and the
    walks run as one branch-free pass over the module axis of an
    ``(N, lanes)`` column matrix.  Per step, every lane at once either
    extends (``group_sum + c``, kept while the error does not rise) or
    closes its group at ``i`` and re-seeds it with ``c``, performing
    the IEEE operations of :func:`_greedy_accumulation_walk` in the
    same order; a NaN error compares false and closes the group, as
    there.  The walks run unclamped and take the trailing clamp of
    :func:`~repro.teg._partition.clamp_tail` once at the end, so every
    cut is bit-identical to the scalar walk's.

    Returns the ``(lanes, max(counts))`` cut matrix: lane ``k``'s
    ``counts[k]`` group starts (leading zero included), then padding.
    """
    n_modules = currents_rows.shape[1]
    # columns[i, k]: module i's current on lane k's row.
    columns = currents_rows.T.take(row_of, axis=1)
    # Contiguous-row pairwise sums match each lane's float(row.sum()).
    ideals = currents_rows.sum(axis=1)[row_of] / counts
    # A group seeded at module i starts with error |c_i - ideal|.
    seed_err = np.abs(columns - ideals)
    # grows[i, k]: lane k extends its group over module i.
    grows = np.empty(columns.shape, dtype=bool)
    grows[0] = False
    group_sum = columns[0]
    best_err = seed_err[0]
    for i in range(1, n_modules):
        current = columns[i]
        extended = group_sum + current
        err = np.abs(extended - ideals)
        grow = np.less_equal(err, best_err, out=grows[i])
        group_sum = np.where(grow, extended, current)
        best_err = np.where(grow, err, seed_err[i])
    # Lane k's cuts are its first counts[k] closes; a walk that ran out
    # of modules first leaves N.
    closes = ~grows
    closes &= np.cumsum(closes, axis=0) <= counts
    width = int(counts.max())
    cuts = np.full((counts.size, width), n_modules, dtype=np.int64)
    made = _index_arange(width)[None, :] < closes.sum(axis=0)[:, None]
    cuts[made] = np.nonzero(closes.T)[1]
    return clamp_tail(cuts, counts, n_modules)


@dataclass(frozen=True)
class PartitionSet:
    """A ragged set of candidate partitions in flat (concatenated) form.

    The native output layout of :func:`partition_multi` and the native
    input layout of :func:`array_mpp_multi`: every candidate's start
    indices live back-to-back in ``cat`` with ``offsets`` delimiting
    them, so the batched kernels consume the set without any
    per-candidate Python.  Behaves as a read-only sequence of start
    vectors (``len``, indexing and iteration return int64 views).

    Attributes
    ----------
    cat:
        Concatenated start indices of all candidates (``int64``).
    offsets:
        Candidate boundaries into ``cat``, length ``n_candidates + 1``.
    n_modules:
        Chain length every candidate partitions.
    """

    cat: np.ndarray
    offsets: np.ndarray
    n_modules: int

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, index: int) -> np.ndarray:
        # Normalise negative indices explicitly: feeding a raw -1 into
        # the offsets pair would silently yield an empty slice.
        k = int(index)
        n_candidates = self.offsets.size - 1
        if k < 0:
            k += n_candidates
        if not 0 <= k < n_candidates:
            raise IndexError(
                f"candidate index {index} out of range for "
                f"{n_candidates} candidates"
            )
        lo, hi = self.offsets[k], self.offsets[k + 1]
        return self.cat[lo:hi]

    def __iter__(self):
        for k in range(len(self)):
            yield self[k]

    @property
    def sizes(self) -> np.ndarray:
        """Group count of each candidate."""
        return np.diff(self.offsets)


def partition_multi(
    mpp_currents: np.ndarray, n_min: int, n_max: int
) -> PartitionSet:
    """Greedy balanced partitions for *every* group count in a window.

    The candidate-batched sibling of :func:`greedy_balanced_partition`:
    the Algorithm-1 partition of every ``n`` in ``[n_min, n_max]``, as
    the one-case stack of :func:`partition_multi_stack`.  Cut indices
    are bit-identical to running the scalar walk per candidate.

    Returns
    -------
    PartitionSet
        Candidates in ascending group-count order (``n_min`` first).
    """
    currents = np.asarray(mpp_currents, dtype=float)
    n_modules = currents.size
    if currents.ndim != 1 or n_modules == 0:
        raise ConfigurationError(
            f"mpp_currents must be a non-empty 1-D array, got shape "
            f"{currents.shape}"
        )
    n_min = int(n_min)
    n_max = int(n_max)
    if not 1 <= n_min <= n_max <= n_modules:
        raise ConfigurationError(
            f"invalid group-count window [{n_min}, {n_max}] for "
            f"{n_modules} modules"
        )
    stack = partition_multi_stack(currents[None], n_min, n_max)
    # The one case is the whole stack.
    return PartitionSet(cat=stack.cat, offsets=stack.offsets, n_modules=n_modules)


@dataclass(frozen=True)
class PartitionStack:
    """Candidate partitions of *many grid cases*, flat-concatenated.

    The grid-stacked sibling of :class:`PartitionSet`: every candidate
    of every case lives back-to-back in one flat layout, so the
    stacked kernels (:func:`partition_multi_stack` /
    :func:`array_mpp_multi_stack`) build and score a whole homogeneous
    case grid with no per-case Python.

    Attributes
    ----------
    cat:
        Concatenated start indices of all candidates of all cases.
    offsets:
        Candidate boundaries into ``cat``, length ``n_candidates + 1``.
    case_of_candidate:
        Owning case index of each candidate (non-decreasing).
    case_offsets:
        Candidate-index boundaries per case, length ``n_cases + 1``.
    n_modules:
        Chain length shared by every case.
    """

    cat: np.ndarray
    offsets: np.ndarray
    case_of_candidate: np.ndarray
    case_offsets: np.ndarray
    n_modules: int

    @property
    def n_cases(self) -> int:
        """Number of stacked cases."""
        return self.case_offsets.size - 1

    def __len__(self) -> int:
        return self.offsets.size - 1

    def case(self, index: int) -> PartitionSet:
        """One case's candidates as a standalone :class:`PartitionSet`."""
        k = int(index)
        if k < 0:
            k += self.n_cases
        if not 0 <= k < self.n_cases:
            raise IndexError(
                f"case index {index} out of range for {self.n_cases} cases"
            )
        lo, hi = self.case_offsets[k], self.case_offsets[k + 1]
        flat_lo, flat_hi = self.offsets[lo], self.offsets[hi]
        return PartitionSet(
            cat=self.cat[flat_lo:flat_hi],
            offsets=self.offsets[lo : hi + 1] - flat_lo,
            n_modules=self.n_modules,
        )


def partition_multi_stack(
    mpp_current_rows: np.ndarray,
    n_min,
    n_max,
) -> PartitionStack:
    """Greedy balanced partitions for every case of a stacked grid.

    ``mpp_current_rows`` is a ``(C, N)`` matrix of per-case MPP
    currents and ``n_min`` / ``n_max`` per-case group-count windows
    (scalars broadcast).  Every candidate of every case is one lane of
    one ``(lanes, widest count)`` cut matrix, filled per branch: lanes
    of cases with non-negative currents by the array passes of
    :mod:`repro.teg._partition` (prefix table, next-cut map, binary
    lifting), lanes of cases with back-biased modules (negative or NaN
    currents) by the lockstep walk :func:`_accumulation_walk_rows`,
    both ending in the same tail clamp.  One-group lanes need neither:
    their only cut is 0.  One ragged gather flattens the matrix.  Cut
    indices are **bit-identical** per case to
    :func:`greedy_balanced_partition` for every group count in the
    case's window (pinned in the parity suite).
    """
    rows = np.asarray(mpp_current_rows, dtype=float)
    if rows.ndim != 2 or rows.size == 0:
        raise ConfigurationError(
            f"mpp_current_rows must be a non-empty (C, N) matrix, got "
            f"shape {rows.shape}"
        )
    n_cases, n_modules = rows.shape
    n_mins = np.asarray(n_min, dtype=np.int64)
    n_maxs = np.asarray(n_max, dtype=np.int64)
    layout = stack_layout(n_cases, n_mins.tobytes(), n_maxs.tobytes())
    if layout is None or layout.ragged_mask.shape[1] > n_modules:
        raise ConfigurationError(
            f"invalid group-count windows for {n_modules} modules: "
            f"n_min={np.atleast_1d(n_mins).tolist()[:8]}, "
            f"n_max={np.atleast_1d(n_maxs).tolist()[:8]}"
        )
    case_of_cand, counts, mask = (
        layout.case_of_candidate, layout.counts, layout.ragged_mask
    )

    cuts = np.zeros(mask.shape, dtype=np.int64)
    lowest_rows = rows.min(axis=1)
    multi = counts > 1
    monotone = (lowest_rows >= 0.0)[case_of_cand]  # False: negatives or NaN
    prefix_sel = np.flatnonzero(multi & monotone)
    walk_sel = np.flatnonzero(multi & ~monotone)
    if prefix_sel.size:
        # ndarray.sum feeds the ideals — the prefix tail would not
        # match the scalar walk (cumsum accumulates sequentially, sum
        # pairwise).
        row_of = case_of_cand[prefix_sel]
        nxt = next_cut_map(
            prefix_table(rows),
            row_of,
            rows.sum(axis=1)[row_of] / counts[prefix_sel],
            lowest_rows == 0.0,
        )
        cuts[prefix_sel] = lift_cuts(nxt, counts[prefix_sel], mask.shape[1])
    if walk_sel.size:
        walked = _accumulation_walk_rows(
            rows, case_of_cand[walk_sel], counts[walk_sel]
        )
        cuts[walk_sel, : walked.shape[1]] = walked

    return PartitionStack(
        cat=cuts[mask],
        offsets=layout.offsets,
        case_of_candidate=case_of_cand,
        case_offsets=layout.case_offsets,
        n_modules=n_modules,
    )


def _series_thevenin(
    weighted: np.ndarray,
    conductance: np.ndarray,
    cat: np.ndarray,
    offsets: np.ndarray,
    case_of_lane: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Series ``(E_total (S, P), R_total (P,))`` of every (row, lane).

    The one scoring core of every batched MPP kernel: ``weighted`` is a
    ``(K, S, N)`` stack of conductance-weighted EMF rows, ``cat`` /
    ``offsets`` the flat group starts of ``P`` lanes, and lane ``p``
    scores every row of case ``case_of_lane[p]``.  One
    ``np.add.reduceat`` over an ``(S + 1, P * N)`` block (row 0 the
    tiled conductance, rows ``1..S`` each lane's case rows in its own
    ``N``-column block) reduces every parallel group in the order of the
    one-configuration reduceat; ``R_g = 1 / G_g`` replaces row 0, scales
    the ``E_g`` rows in place, and one segmented pairwise tree sums
    every lane in series — bitwise the ``ndarray.sum`` of
    :func:`array_mpp` and :func:`array_mpp_rows`.
    """
    n_rows, n_modules = weighted.shape[1:]
    n_lanes = offsets.size - 1
    block = np.empty((n_rows + 1, n_lanes * n_modules))
    block[0].reshape(n_lanes, n_modules)[...] = conductance
    block[1:].reshape(n_rows, n_lanes, n_modules)[...] = weighted.transpose(
        1, 0, 2
    ).take(case_of_lane, axis=1)
    idx = cat + np.repeat(_index_arange(n_lanes) * n_modules, np.diff(offsets))
    groups = np.add.reduceat(block, idx, axis=1)
    np.divide(1.0, groups[0], out=groups[0])
    groups[1:] *= groups[0]
    totals = segmented_pairwise_sum(groups, offsets)
    return totals[1:], totals[0]


def _concat_starts(
    candidates: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(cat, offsets)`` layout of validated start vectors."""
    offsets = np.concatenate(([0], np.cumsum([c.size for c in candidates])))
    return np.concatenate(candidates), offsets


def array_mpp_multi_stack(
    emf_rows: np.ndarray,
    resistance: np.ndarray,
    stack: PartitionStack,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact MPPs of every candidate of a stacked case grid.

    The grid-stacked sibling of :func:`array_mpp_multi`: ``emf_rows``
    holds one EMF vector per case and ``resistance`` the chain's shared
    resistance vector (the homogeneous-grid precondition: all cases
    share one module model).  Every candidate is one lane of the
    scoring core, gathering its case's EMF row — **bit-identical** per
    candidate to :func:`array_mpp` (same doubles, same summation order;
    pinned in the parity suite).  Candidate sets are trusted by
    construction, like ``validate=False``.

    Returns ``(power_w, voltage_v, current_a)`` with one entry per
    stacked candidate, in ``stack.offsets`` order.
    """
    emf_rows = np.asarray(emf_rows, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    if emf_rows.ndim != 2 or emf_rows.shape[0] != stack.n_cases:
        raise ConfigurationError(
            f"emf_rows must be ({stack.n_cases}, {stack.n_modules}), "
            f"got shape {emf_rows.shape}"
        )
    n_modules = emf_rows.shape[1]
    if n_modules != stack.n_modules or resistance.shape != (n_modules,):
        raise ConfigurationError(
            f"partition stack covers {stack.n_modules} modules, "
            f"parameters {n_modules} / {resistance.shape}"
        )
    if len(stack) == 0:
        empty = np.empty(0)
        return empty, empty.copy(), empty.copy()
    conductance = 1.0 / resistance
    e_total, r_total = _series_thevenin(
        (emf_rows * conductance)[:, None],
        conductance,
        stack.cat,
        stack.offsets,
        stack.case_of_candidate,
    )
    e_total = e_total[0]
    power = e_total * e_total / (4.0 * r_total)
    voltage = e_total / 2.0
    current = e_total / (2.0 * r_total)
    return power, voltage, current


def parallel_reduce(
    emf: np.ndarray, resistance: np.ndarray
) -> Tuple[float, float]:
    """Thevenin equivalent of one parallel group of modules.

    Returns ``(E_g, R_g)`` where ``R_g = 1/sum(1/R_i)`` and
    ``E_g = R_g * sum(E_i / R_i)`` (conductance-weighted mean EMF).
    """
    emf = np.asarray(emf, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    conductance = 1.0 / resistance
    total_conductance = float(conductance.sum())
    r_group = 1.0 / total_conductance
    e_group = r_group * float((emf * conductance).sum())
    return e_group, r_group


def reduce_configuration(
    emf: np.ndarray, resistance: np.ndarray, starts: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-group Thevenin parameters for a configuration.

    Returns
    -------
    (e_groups, r_groups):
        Arrays of length ``len(starts)`` with each group's equivalent
        EMF and resistance, in chain order.
    """
    emf = np.asarray(emf, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    idx = validate_starts(starts, emf.size)
    conductance = 1.0 / resistance
    group_conductance = np.add.reduceat(conductance, idx)
    group_weighted_emf = np.add.reduceat(emf * conductance, idx)
    r_groups = 1.0 / group_conductance
    e_groups = group_weighted_emf * r_groups
    return e_groups, r_groups


def array_thevenin(
    emf: np.ndarray, resistance: np.ndarray, starts: Sequence[int]
) -> Tuple[float, float]:
    """Whole-array Thevenin equivalent ``(E_total, R_total)``."""
    e_groups, r_groups = reduce_configuration(emf, resistance, starts)
    return float(e_groups.sum()), float(r_groups.sum())


def array_mpp(
    emf: np.ndarray, resistance: np.ndarray, starts: Sequence[int]
) -> MPPPoint:
    """Maximum power point of the configured array.

    The array is itself a linear Thevenin source, so the MPP is exact:
    ``I* = E/2R``, ``V* = E/2``, ``P* = E^2/4R``.
    """
    e_total, r_total = array_thevenin(emf, resistance, starts)
    return MPPPoint(
        voltage_v=e_total / 2.0,
        current_a=e_total / (2.0 * r_total),
        power_w=e_total * e_total / (4.0 * r_total),
    )


def array_thevenin_rows(
    emf_rows: np.ndarray, resistance: np.ndarray, starts: Sequence[int]
) -> Tuple[np.ndarray, float]:
    """Whole-array Thevenin of many EMF rows under one configuration.

    The row-batched sibling of :func:`array_thevenin` for the
    constant-resistance module model: ``emf_rows`` is an ``(S, N)``
    matrix of per-module EMFs (one row per time sample / forecast
    step), ``resistance`` the shared ``(N,)`` resistance vector.
    Returns ``(E_total per row, R_total)`` — the configuration fixes
    ``R_total`` across rows.  Elementwise the operations mirror the
    scalar path, so batched sweeps reproduce per-sample results.
    """
    emf_rows = np.asarray(emf_rows, dtype=float)
    conductance = 1.0 / np.asarray(resistance, dtype=float)
    idx = validate_starts(starts, conductance.size)
    group_conductance = np.add.reduceat(conductance, idx)
    r_groups = 1.0 / group_conductance
    r_total = float(r_groups.sum())
    weighted = emf_rows * conductance
    group_weighted = np.add.reduceat(weighted, idx, axis=1)
    e_rows = (group_weighted * r_groups).sum(axis=1)
    return e_rows, r_total


def array_mpp_rows(
    emf_rows: np.ndarray, resistance: np.ndarray, starts: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact MPP ``(power, voltage)`` rows for a batched configuration.

    Row-batched :func:`array_mpp`: ``P* = E^2/4R`` and ``V* = E/2``
    for every row of ``emf_rows`` at once — the hot path of the batch
    simulation engine and DNOR's horizon scoring.
    """
    e_rows, r_total = array_thevenin_rows(emf_rows, resistance, starts)
    power = e_rows * e_rows / (4.0 * r_total)
    voltage = e_rows / 2.0
    return power, voltage


def array_mpp_rows_multi_stack(
    emf_stack: np.ndarray,
    resistance: np.ndarray,
    starts_list: Sequence[Sequence[int]],
    case_of_config: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact MPP rows of many ``(case, configuration)`` pairs at once.

    The configuration- and case-batched sibling of :func:`array_mpp_rows`
    for fused decision passes over a whole case grid: ``emf_stack`` is a
    ``(K, S, N)`` stack of per-case EMF matrices (all cases sharing the
    same ``(N,)`` ``resistance`` and horizon length ``S``),
    ``starts_list`` holds one configuration per evaluation lane and
    ``case_of_config[p]`` names the case whose EMF rows lane ``p``
    scores.  This is the engine of DNOR's grid-stacked epoch kernel,
    which scores every case's (current, candidate) pair over its own
    forecast horizon in one pass.

    Returns ``(power_w, voltage_v)`` of shape ``(P, S)``,
    **bit-identical** per lane to
    ``array_mpp_rows(emf_stack[case_of_config[p]], resistance,
    starts_list[p])``: lane ``p`` reads its case's rows in its own
    block of the scoring core, so its groups and series sums see the
    same doubles in the same order.
    """
    emf_stack = np.asarray(emf_stack, dtype=float)
    conductance = 1.0 / np.asarray(resistance, dtype=float)
    n_modules = conductance.size
    if emf_stack.ndim != 3 or emf_stack.shape[2] != n_modules:
        raise ConfigurationError(
            f"emf_stack must be a (K, S, {n_modules}) stack, got shape "
            f"{emf_stack.shape}"
        )
    case_of_config = np.asarray(case_of_config, dtype=np.int64)
    candidates = [
        validate_starts(starts, n_modules) for starts in starts_list
    ]
    n_configs = len(candidates)
    if case_of_config.shape != (n_configs,):
        raise ConfigurationError(
            f"case_of_config must map every configuration to a case, got "
            f"{case_of_config.shape} for {n_configs} configurations"
        )
    if n_configs == 0:
        empty = np.empty((0, emf_stack.shape[1]))
        return empty, empty.copy()
    if case_of_config.min() < 0 or case_of_config.max() >= emf_stack.shape[0]:
        raise ConfigurationError(
            f"case_of_config must index the {emf_stack.shape[0]}-case "
            f"stack, got range [{case_of_config.min()}, "
            f"{case_of_config.max()}]"
        )
    cat, offsets = _concat_starts(candidates)
    e_rows, r_totals = _series_thevenin(
        emf_stack * conductance, conductance, cat, offsets, case_of_config
    )
    power = np.ascontiguousarray((e_rows * e_rows / (4.0 * r_totals)).T)
    voltage = np.ascontiguousarray((e_rows / 2.0).T)
    return power, voltage


def array_mpp_multi(
    emf: np.ndarray,
    resistance: np.ndarray,
    starts_list: Sequence[Sequence[int]],
    validate: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact MPPs of *many configurations* at one temperature state.

    The configuration-batched sibling of :func:`array_mpp` (and the
    transpose of :func:`array_mpp_rows`, which batches time samples
    under one configuration): evaluates every candidate partition in
    ``starts_list`` against the same per-module ``(emf, resistance)``
    vectors in one NumPy pass — the hot path of INOR's
    ``[n_min, n_max]`` candidate sweep.

    Returns ``(power_w, voltage_v, current_a)`` arrays with one entry
    per candidate, **bit-identical** to calling :func:`array_mpp` per
    candidate: the set is scored as the one-case stack of
    :func:`array_mpp_multi_stack`.  Algorithms may therefore swap the
    scalar loop for this kernel without perturbing a single decision.

    ``validate=False`` skips the candidate-set validation sweep for
    callers that construct partitions correct by construction (INOR's
    greedy walk); invalid starts then produce undefined results
    instead of :class:`~repro.errors.ConfigurationError`.

    ``starts_list`` may also be a :class:`PartitionSet` (the native
    output of :func:`partition_multi`), whose flat layout is consumed
    directly — the build + score pipeline then runs with no
    per-candidate Python at all.
    """
    emf = np.asarray(emf, dtype=float)
    n_modules = emf.size
    if not isinstance(starts_list, PartitionSet):
        candidates = [
            np.asarray(starts, dtype=np.int64) for starts in starts_list
        ]
        if not candidates:
            empty = np.empty(0)
            return empty, empty.copy(), empty.copy()
        if any(starts.ndim != 1 or starts.size == 0 for starts in candidates):
            for starts in candidates:  # delegate for the precise error
                validate_starts(starts, n_modules)
        cat, offsets = _concat_starts(candidates)
        starts_list = PartitionSet(cat=cat, offsets=offsets, n_modules=n_modules)
    elif starts_list.n_modules != n_modules:
        raise ConfigurationError(
            f"partition set covers {starts_list.n_modules} modules, "
            f"parameters {n_modules}"
        )
    cat, offsets = starts_list.cat, starts_list.offsets
    n_candidates = len(starts_list)

    # Validate the whole candidate set in one vectorised sweep; only on
    # failure fall back to the per-candidate path for its precise error.
    # Masking the candidate boundaries out of the diff plus the
    # first-start-is-zero check implies every start is in-range and
    # non-negative within its candidate.
    if validate:
        diffs = np.diff(cat)
        boundary = offsets[1:-1] - 1
        if boundary.size:
            diffs[boundary] = 1
        valid = (
            not cat[offsets[:-1]].any()
            and not np.any(cat >= n_modules)
            and not np.any(diffs <= 0)
        )
        if not valid:
            for starts in starts_list:
                validate_starts(starts, n_modules)
            raise ConfigurationError(
                "inconsistent candidate configuration set"
            )

    one_case = PartitionStack(
        cat=cat,
        offsets=offsets,
        case_of_candidate=np.zeros(n_candidates, dtype=np.int64),
        case_offsets=np.array([0, n_candidates]),
        n_modules=n_modules,
    )
    return array_mpp_multi_stack(emf[None], resistance, one_case)


def power_at_current(
    emf: np.ndarray,
    resistance: np.ndarray,
    starts: Sequence[int],
    current_a: float,
) -> float:
    """Array output power when the charger draws ``current_a``.

    Group voltages are ``V_g = E_g - I * R_g``; the array voltage is
    their sum and may include negative terms when a group is driven
    past its short-circuit current (no bypass diodes are modelled,
    matching the paper's fabric).
    """
    e_groups, r_groups = reduce_configuration(emf, resistance, starts)
    voltage = float((e_groups - current_a * r_groups).sum())
    return voltage * current_a


def module_operating_points(
    emf: np.ndarray,
    resistance: np.ndarray,
    starts: Sequence[int],
    current_a: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-module operating points at a given array current.

    Returns
    -------
    (module_voltage, module_current, module_power):
        Arrays of length ``N``.  Every module in a group shares the
        group voltage; its branch current is ``(E_i - V_g)/R_i`` and may
        be negative for a weak module back-driven by its neighbours —
        the mismatch loss the reconfiguration algorithms fight.
    """
    emf = np.asarray(emf, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    idx = validate_starts(starts, emf.size)
    e_groups, r_groups = reduce_configuration(emf, resistance, idx)
    group_voltage = e_groups - current_a * r_groups
    # Broadcast each group's voltage back onto its member modules.
    group_of_module = np.zeros(emf.size, dtype=np.int64)
    group_of_module[idx[1:]] = 1
    group_of_module = np.cumsum(group_of_module)
    module_voltage = group_voltage[group_of_module]
    module_current = (emf - module_voltage) / resistance
    module_power = module_voltage * module_current
    return module_voltage, module_current, module_power


@dataclass(frozen=True)
class SegmentThevenin:
    """O(1) Thevenin lookups for contiguous module segments.

    Precomputes prefix sums of conductance and conductance-weighted EMF
    so that any segment ``[lo, hi)`` reduces in constant time.  This is
    the workhorse of the DP-based algorithms (EHTR reconstruction and
    the exact optimum), which evaluate O(N^2) candidate segments.
    """

    prefix_conductance: np.ndarray
    prefix_weighted_emf: np.ndarray

    @classmethod
    def from_modules(
        cls, emf: np.ndarray, resistance: np.ndarray
    ) -> "SegmentThevenin":
        """Build the prefix tables for a module chain."""
        emf = np.asarray(emf, dtype=float)
        resistance = np.asarray(resistance, dtype=float)
        conductance = 1.0 / resistance
        prefix_g = np.concatenate(([0.0], np.cumsum(conductance)))
        prefix_eg = np.concatenate(([0.0], np.cumsum(emf * conductance)))
        return cls(prefix_conductance=prefix_g, prefix_weighted_emf=prefix_eg)

    @property
    def n_modules(self) -> int:
        """Number of modules covered by the tables."""
        return self.prefix_conductance.size - 1

    def segment(self, lo: int, hi: int) -> Tuple[float, float]:
        """Thevenin ``(E, R)`` of the parallel group ``[lo, hi)``.

        Raises
        ------
        ConfigurationError
            If the segment is empty or out of range.
        """
        if not 0 <= lo < hi <= self.n_modules:
            raise ConfigurationError(
                f"segment [{lo}, {hi}) invalid for {self.n_modules} modules"
            )
        conductance = self.prefix_conductance[hi] - self.prefix_conductance[lo]
        weighted = self.prefix_weighted_emf[hi] - self.prefix_weighted_emf[lo]
        r_group = 1.0 / conductance
        return weighted * r_group, r_group

    def segment_mpp_current_sum(self, lo: int, hi: int) -> float:
        """Sum of member MPP currents over ``[lo, hi)``.

        For the linear module model ``sum(I_MPP_i) = sum(E_i / 2 R_i)``,
        i.e. half the conductance-weighted EMF prefix difference.
        """
        if not 0 <= lo < hi <= self.n_modules:
            raise ConfigurationError(
                f"segment [{lo}, {hi}) invalid for {self.n_modules} modules"
            )
        return 0.5 * (self.prefix_weighted_emf[hi] - self.prefix_weighted_emf[lo])
