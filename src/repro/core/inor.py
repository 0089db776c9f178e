"""Algorithm 1 — Instantaneous Near-Optimal Reconfiguration (INOR).

Pseudo-code from the paper::

    Function C(g1..gn) = INOR(Ti)
      compute I_MPP_i for every module
      Pmax = 0
      for n from n_min to n_max:
          g1 = 1; I_ideal = (1/n) * sum(I_MPP_i)
          for j from 2 to n:
              pick g_j minimising | sum_{i=g_{j-1}}^{g_j - 1} I_MPP_i - I_ideal |
          evaluate P_MPP of C_n
          keep the best
      return the best configuration

The inner boundary search is a single left-to-right walk (the group
sum grows monotonically for positive MPP currents, so the error is
V-shaped in the cut position), which makes one ``n`` cost O(N) and the
whole call O((n_max - n_min + 1) * N) — the paper's O(N) for the fixed
converter-friendly range of ``n``.

``[n_min, n_max]`` realises the paper's Section III-B requirement: the
range is derived from the charger's preferred input-voltage window so
every candidate keeps the converter near peak efficiency
(:func:`converter_aware_group_range`).  When a charger is supplied,
candidates are ranked by *delivered* power (array MPP power times
converter efficiency at the MPP voltage); without one, by raw
electrical MPP power.

The whole decision is vectorised: the default ``kernel="batched"``
builds the greedy partition of every group count in one
:func:`repro.teg.network.partition_multi` prefix-sum pass, evaluates
every candidate's exact MPP through one
:func:`repro.teg.network.array_mpp_multi` reduction and ranks the
window with the charger's row-vector API — build + score + rank with
no per-candidate Python, bit-identical to the retained
``kernel="scalar"`` reference loop (one greedy walk plus one
``array_mpp`` call per candidate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.config import ArrayConfiguration
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.teg.module import MPPPoint
from repro.teg.network import (
    array_mpp,
    array_mpp_multi,
    array_mpp_multi_stack,
    greedy_balanced_partition,
    partition_multi,
    partition_multi_stack,
)

__all__ = [
    "INOR_KERNELS",
    "InorResult",
    "check_inor_kernel",
    "converter_aware_group_range",
    "converter_aware_group_range_rows",
    "greedy_balanced_partition",
    "inor",
    "inor_stack",
]

#: Valid values of the :func:`inor` ``kernel`` argument.  ``"batched"``
#: builds the whole candidate window through one
#: :func:`repro.teg.network.partition_multi` prefix-sum pass and scores
#: it through one :func:`repro.teg.network.array_mpp_multi` pass;
#: ``"scalar"`` is the pre-vectorisation per-candidate loop, retained as
#: the reference implementation the batched kernel is pinned
#: bit-identical against.
INOR_KERNELS = ("batched", "scalar")


def check_inor_kernel(kernel: str) -> str:
    """Return ``kernel`` if it is one of :data:`INOR_KERNELS`, else raise."""
    if kernel not in INOR_KERNELS:
        raise ConfigurationError(
            f"kernel must be one of {INOR_KERNELS}, got {kernel!r}"
        )
    return kernel


@dataclass(frozen=True)
class InorResult:
    """Outcome of one INOR invocation.

    Attributes
    ----------
    config:
        The selected near-optimal configuration.
    mpp:
        Exact electrical MPP of the selected configuration.
    delivered_power_w:
        Converter-degraded power used for ranking (equals ``mpp.power_w``
        when no charger was supplied).
    n_range:
        The ``(n_min, n_max)`` window that was scanned.
    candidates_evaluated:
        Number of group counts evaluated.
    """

    config: ArrayConfiguration
    mpp: MPPPoint
    delivered_power_w: float
    n_range: Tuple[int, int]
    candidates_evaluated: int


def converter_aware_group_range(
    emf: np.ndarray,
    n_modules: int,
    charger: Optional[TEGCharger] = None,
    efficiency_drop: float = 0.03,
) -> Tuple[int, int]:
    """Group-count window keeping the array MPP voltage converter-friendly.

    A balanced configuration of ``n`` groups has an MPP voltage of
    roughly ``n * mean(E) / 2`` (each group's Thevenin EMF is close to
    the chain's mean module EMF).  The window maps the charger's
    preferred input-voltage band through that estimate.  Without a
    charger the full ``[1, N]`` range is returned.

    The returned window always satisfies
    ``1 <= n_min <= n_max <= n_modules``: both ends are clamped into
    ``[1, N]`` symmetrically (an asymmetric clamp used to invert the
    window for very hot/cold arrays), and non-finite estimates — a
    non-finite mean EMF, or an unbounded preferred-voltage window from
    a zero-curvature converter side — degrade to the full range / the
    chain length instead of overflowing.
    """
    if charger is None:
        return 1, int(n_modules)
    emf = np.asarray(emf, dtype=float)
    mean_emf = float(emf.mean())
    if not math.isfinite(mean_emf) or mean_emf <= 0.0:
        # Array is effectively dead; any n works equally badly.
        return 1, int(n_modules)
    v_lo, v_hi = charger.preferred_voltage_window(efficiency_drop)
    # np.floor/np.ceil propagate inf through the clip instead of
    # overflowing int() the way math.floor/math.ceil would.
    n_min = int(np.clip(np.floor(2.0 * v_lo / mean_emf), 1, int(n_modules)))
    n_max = int(np.clip(np.ceil(2.0 * v_hi / mean_emf), 1, int(n_modules)))
    if n_max < n_min:  # unreachable after the symmetric clamp; kept as a guard
        n_min = n_max
    return n_min, n_max


def _score_candidates_scalar(
    emf: np.ndarray,
    resistance: np.ndarray,
    candidates: list,
    charger: Optional[TEGCharger],
) -> Tuple[int, MPPPoint, float]:
    """Reference per-candidate loop: one ``array_mpp`` call per ``n``.

    Kept as the ground truth the batched kernel is validated against
    (and for profiling comparisons); returns the winning candidate
    index, its MPP and its score.  Ties keep the earliest (smallest
    ``n``) candidate, like the paper's ascending scan.
    """
    best_index = -1
    best_score = -math.inf
    best_mpp: Optional[MPPPoint] = None
    for index, starts in enumerate(candidates):
        mpp = array_mpp(emf, resistance, starts)
        score = (
            charger.delivered_at_mpp(mpp) if charger is not None else mpp.power_w
        )
        if score > best_score:
            best_score = score
            best_index = index
            best_mpp = mpp
    assert best_mpp is not None
    return best_index, best_mpp, float(best_score)


def _score_candidates_batched(
    emf: np.ndarray,
    resistance: np.ndarray,
    candidates: list,
    charger: Optional[TEGCharger],
) -> Tuple[int, MPPPoint, float]:
    """Score the whole candidate window in one vectorised pass.

    One :func:`array_mpp_multi` reduction evaluates every candidate's
    exact MPP, and the charger ranking reuses the converter's
    row-vector API — both elementwise bit-identical to the scalar
    loop, so ``np.argmax`` (first maximum) reproduces the reference
    tie-breaking exactly.  ``candidates`` is typically the
    :class:`~repro.teg.network.PartitionSet` built by
    :func:`~repro.teg.network.partition_multi`, whose flat layout the
    kernel consumes without per-candidate Python.  Validation is
    skipped: the greedy walk produces partitions correct by
    construction.
    """
    power, voltage, current = array_mpp_multi(
        emf, resistance, candidates, validate=False
    )
    if charger is not None:
        scores = charger.delivered_batch(power, voltage)
    else:
        scores = power
    best_index = int(np.argmax(scores))
    best_mpp = MPPPoint(
        voltage_v=float(voltage[best_index]),
        current_a=float(current[best_index]),
        power_w=float(power[best_index]),
    )
    return best_index, best_mpp, float(scores[best_index])


def inor(
    emf: np.ndarray,
    resistance: np.ndarray,
    charger: Optional[TEGCharger] = None,
    n_min: Optional[int] = None,
    n_max: Optional[int] = None,
    efficiency_drop: float = 0.03,
    kernel: str = "batched",
) -> InorResult:
    """Run Algorithm 1 on per-module Thevenin parameters.

    Parameters
    ----------
    emf, resistance:
        Module EMFs and internal resistances at the current
        temperature distribution.
    charger:
        When given, bounds the group-count range via the converter's
        voltage preference and ranks candidates by delivered power.
    n_min, n_max:
        Explicit range overrides (either may be None to use the
        converter-derived value).
    efficiency_drop:
        Converter-efficiency tolerance used to derive the range.
    kernel:
        ``"batched"`` (default) builds every candidate partition in
        one :func:`repro.teg.network.partition_multi` prefix-sum pass
        and scores the window in one
        :func:`repro.teg.network.array_mpp_multi` pass; ``"scalar"``
        runs the original per-candidate loop (one greedy walk + one
        ``array_mpp`` per group count).  The two are bit-identical —
        same cut indices, same MPPs, same ranking (pinned in the test
        suite) — so the kernel is a speed choice, never a results
        choice.

    Raises
    ------
    ConfigurationError
        If the explicit range or the kernel name is inconsistent.
    """
    check_inor_kernel(kernel)
    emf = np.asarray(emf, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    if emf.shape != resistance.shape or emf.ndim != 1 or emf.size == 0:
        raise ConfigurationError(
            f"emf/resistance must be matching 1-D arrays, got "
            f"{emf.shape} and {resistance.shape}"
        )
    n_modules = emf.size

    if n_min is None or n_max is None:
        auto_min, auto_max = converter_aware_group_range(
            emf, n_modules, charger, efficiency_drop
        )
    else:
        auto_min = auto_max = 0  # unused: window fully explicit
    lo = auto_min if n_min is None else int(n_min)
    hi = auto_max if n_max is None else int(n_max)
    if not 1 <= lo <= hi <= n_modules:
        raise ConfigurationError(
            f"invalid group-count range [{lo}, {hi}] for {n_modules} modules"
        )

    mpp_currents = emf / (2.0 * resistance)
    if kernel == "batched":
        candidates = partition_multi(mpp_currents, lo, hi)
        best_index, best_mpp, best_score = _score_candidates_batched(
            emf, resistance, candidates, charger
        )
    else:
        candidates = [
            greedy_balanced_partition(mpp_currents, n_groups)
            for n_groups in range(lo, hi + 1)
        ]
        best_index, best_mpp, best_score = _score_candidates_scalar(
            emf, resistance, candidates, charger
        )

    return InorResult(
        config=ArrayConfiguration(
            starts=tuple(int(s) for s in candidates[best_index]),
            n_modules=n_modules,
        ),
        mpp=best_mpp,
        delivered_power_w=best_score,
        n_range=(lo, hi),
        candidates_evaluated=len(candidates),
    )


def converter_aware_group_range_rows(
    emf_rows: np.ndarray,
    n_modules: int,
    charger: Optional[TEGCharger] = None,
    efficiency_drop: float = 0.03,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-case group-count windows for a stacked case grid.

    The row-stacked sibling of :func:`converter_aware_group_range`:
    ``emf_rows`` holds one EMF vector per case and the returned
    ``(n_mins, n_maxs)`` int64 vectors match the scalar function
    case-by-case exactly — same mean, same clamps, same degenerate
    fallbacks — because every step is the same elementwise expression
    batched over the case axis (the per-row ``mean`` of a contiguous
    row is bitwise the 1-D ``mean``).
    """
    emf_rows = np.asarray(emf_rows, dtype=float)
    n_cases = emf_rows.shape[0]
    n = int(n_modules)
    if charger is None:
        return (
            np.ones(n_cases, dtype=np.int64),
            np.full(n_cases, n, dtype=np.int64),
        )
    mean_emf = emf_rows.mean(axis=1)
    usable = np.isfinite(mean_emf) & (mean_emf > 0.0)
    safe_mean = np.where(usable, mean_emf, 1.0)
    v_lo, v_hi = charger.preferred_voltage_window(efficiency_drop)
    n_mins = np.clip(np.floor(2.0 * v_lo / safe_mean), 1, n).astype(np.int64)
    n_maxs = np.clip(np.ceil(2.0 * v_hi / safe_mean), 1, n).astype(np.int64)
    n_mins = np.where(usable, n_mins, 1)
    n_maxs = np.where(usable, n_maxs, n)
    n_mins = np.where(n_maxs < n_mins, n_maxs, n_mins)
    return n_mins, n_maxs


def _inor_stack_raw(
    emf_rows: np.ndarray,
    resistance: np.ndarray,
    charger: Optional[TEGCharger],
    efficiency_drop: float,
):
    """The fused INOR grid pass, returning flat kernel-layer arrays.

    Shared engine of :func:`inor_stack` and the grid-stacked simulation
    fabric (:mod:`repro.sim.gridstack`), which consumes the winner
    indices and :class:`~repro.teg.network.PartitionStack` directly —
    skipping per-case result-object packaging in its hot loop.
    Returns ``(stack, power, voltage, current, scores, winners,
    n_mins, n_maxs)`` with ``winners[c]`` the stacked index of case
    ``c``'s first-maximum candidate.
    """
    n_cases, n_modules = emf_rows.shape
    n_mins, n_maxs = converter_aware_group_range_rows(
        emf_rows, n_modules, charger, efficiency_drop
    )

    mpp_current_rows = emf_rows / (2.0 * resistance)
    stack = partition_multi_stack(mpp_current_rows, n_mins, n_maxs)
    power, voltage, current = array_mpp_multi_stack(
        emf_rows, resistance, stack
    )
    if charger is not None:
        scores = charger.delivered_batch(power, voltage)
    else:
        scores = power

    # Per-case first-maximum winners without a case loop: scatter each
    # case's scores into a -inf-padded row, argmax along the row.
    widths = np.diff(stack.case_offsets)
    w_max = int(widths.max())
    padded = np.full((n_cases, w_max), -np.inf)
    ragged = np.arange(w_max, dtype=np.int64)[None, :] < widths[:, None]
    padded[ragged] = scores
    winners = stack.case_offsets[:-1] + np.argmax(padded, axis=1)
    return stack, power, voltage, current, scores, winners, n_mins, n_maxs


def inor_stack(
    emf_rows: np.ndarray,
    resistance: np.ndarray,
    charger: Optional[TEGCharger] = None,
    efficiency_drop: float = 0.03,
) -> Tuple[InorResult, ...]:
    """Run Algorithm 1 for a whole homogeneous case grid at once.

    The grid-stacked fused decision pass: ``emf_rows`` holds one
    module-EMF vector per case (all cases sharing ``resistance`` and
    ``charger`` — the homogeneous-grid precondition), and the window
    derivation, greedy partition build, MPP evaluation and converter
    ranking each run as *one* stacked kernel call
    (:func:`converter_aware_group_range_rows`,
    :func:`repro.teg.network.partition_multi_stack`,
    :func:`repro.teg.network.array_mpp_multi_stack`) instead of one
    :func:`inor` call per case.  Results are **bit-identical** per case
    to ``inor(emf_rows[c], resistance, charger=charger)`` — pinned in
    the parity suite — including the first-maximum tie rule, which the
    per-case winner extraction preserves by ``argmax`` over a
    ``-inf``-padded per-case score matrix.
    """
    emf_rows = np.asarray(emf_rows, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    if (
        emf_rows.ndim != 2
        or emf_rows.size == 0
        or resistance.shape != (emf_rows.shape[1],)
    ):
        raise ConfigurationError(
            f"emf_rows must be a non-empty (C, N) matrix with matching "
            f"(N,) resistance, got {emf_rows.shape} and {resistance.shape}"
        )
    stack, power, voltage, current, scores, winners, n_mins, n_maxs = (
        _inor_stack_raw(emf_rows, resistance, charger, efficiency_drop)
    )
    n_cases, n_modules = emf_rows.shape
    widths = np.diff(stack.case_offsets)

    results = []
    for c in range(n_cases):  # result packaging only — no kernel work
        best = int(winners[c])
        lo, hi = stack.offsets[best], stack.offsets[best + 1]
        results.append(
            InorResult(
                config=ArrayConfiguration(
                    starts=tuple(int(s) for s in stack.cat[lo:hi]),
                    n_modules=n_modules,
                ),
                mpp=MPPPoint(
                    voltage_v=float(voltage[best]),
                    current_a=float(current[best]),
                    power_w=float(power[best]),
                ),
                delivered_power_w=float(scores[best]),
                n_range=(int(n_mins[c]), int(n_maxs[c])),
                candidates_evaluated=int(widths[c]),
            )
        )
    return tuple(results)
