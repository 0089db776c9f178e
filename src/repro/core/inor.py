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

The whole decision is vectorised, and the one-case call of the
grid-stacked pass: :func:`inor` runs :func:`_inor_stack_raw` over a
one-row EMF matrix, which builds the greedy partition of every group
count through :func:`repro.teg.network.partition_multi_stack`,
evaluates every candidate's exact MPP through
:func:`repro.teg.network.array_mpp_multi_stack` and ranks the window
with the charger's row-vector API — build + score + rank with no
per-candidate Python.  The gridstack executor and the serve hub rank
stacked case grids through the same pass
(:func:`repro.sim.gridstack.decide_epochs`), and
:func:`repro.core.dnor.dnor_stack` takes its proposals from it.  The
per-candidate loop of the pseudo-code above (one greedy walk plus one
``array_mpp`` call per candidate) survives only as the test oracle
:func:`_inor_scalar`, pinned bit-identical to :func:`inor`.  The
group-count window comes from the charger at the fixed converter
tolerance :data:`WINDOW_EFFICIENCY_DROP`.
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
    PartitionStack,
    array_mpp,
    array_mpp_multi_stack,
    greedy_balanced_partition,
    partition_multi_stack,
)
# Unused here, but perfbench/tracing.py probes these names in this module.
from repro.teg.network import array_mpp_multi, partition_multi  # noqa: F401

__all__ = [
    "InorResult",
    "converter_aware_group_range",
    "converter_aware_group_range_rows",
    "greedy_balanced_partition",
    "inor",
]

#: Converter-efficiency tolerance below peak that bounds every INOR
#: group-count window: candidates keep the array MPP voltage inside the
#: charger's preferred input window at this drop (Section III-B).
WINDOW_EFFICIENCY_DROP = 0.03

#: Relative slack on the dead-epoch power bound of
#: :func:`_proven_dead`, covering the rounding of both the bound and
#: the candidates' computed MPP powers.
DEAD_BOUND_MARGIN = 1.0e-6


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
        Number of group counts ruled on: the whole window,
        ``n_max - n_min + 1``, whether each candidate was built and
        scored or proven to deliver nothing (see
        :func:`_inor_stack_raw`).
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
) -> Tuple[int, int]:
    """Group-count window keeping the array MPP voltage converter-friendly.

    A balanced configuration of ``n`` groups has an MPP voltage of
    roughly ``n * mean(E) / 2`` (each group's Thevenin EMF is close to
    the chain's mean module EMF).  The window maps the charger's
    preferred input-voltage band (at :data:`WINDOW_EFFICIENCY_DROP`)
    through that estimate.  Without a charger the full ``[1, N]`` range
    is returned.

    The returned window always satisfies
    ``1 <= n_min <= n_max <= n_modules``: both ends are clamped into
    ``[1, N]`` symmetrically (an asymmetric clamp used to invert the
    window for very hot/cold arrays), and non-finite estimates — a
    non-finite mean EMF, or an unbounded preferred-voltage window from
    a zero-curvature converter side — degrade to the full range / the
    chain length instead of overflowing.  This is the one-case call of
    :func:`converter_aware_group_range_rows`.
    """
    n_mins, n_maxs = converter_aware_group_range_rows(
        np.asarray(emf, dtype=float)[None], n_modules, charger
    )
    return int(n_mins[0]), int(n_maxs[0])


def _inor_window(
    emf: np.ndarray,
    resistance: np.ndarray,
    charger: Optional[TEGCharger],
    n_min: Optional[int],
    n_max: Optional[int],
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Validated ``(emf, resistance, lo, hi)`` for one INOR call.

    The prelude :func:`inor` and :func:`_inor_scalar` share: float
    vectors of one shape, and the group-count window with any explicit
    end overriding the converter-derived one.
    """
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
            emf, n_modules, charger
        )
    else:
        auto_min = auto_max = 0  # unused: window fully explicit
    lo = auto_min if n_min is None else int(n_min)
    hi = auto_max if n_max is None else int(n_max)
    if not 1 <= lo <= hi <= n_modules:
        raise ConfigurationError(
            f"invalid group-count range [{lo}, {hi}] for {n_modules} modules"
        )
    return emf, resistance, lo, hi


def inor(
    emf: np.ndarray,
    resistance: np.ndarray,
    charger: Optional[TEGCharger] = None,
    n_min: Optional[int] = None,
    n_max: Optional[int] = None,
) -> InorResult:
    """Run Algorithm 1 on per-module Thevenin parameters.

    One one-case :func:`_inor_stack_raw` pass over the window.

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

    Raises
    ------
    ConfigurationError
        If the inputs or the explicit range are inconsistent.
    """
    emf, resistance, lo, hi = _inor_window(
        emf, resistance, charger, n_min, n_max
    )
    raw = _inor_stack_raw(
        emf[None], resistance, charger, np.array([lo]), np.array([hi])
    )
    return _inor_result(raw, 0)


def _inor_scalar(
    emf: np.ndarray,
    resistance: np.ndarray,
    charger: Optional[TEGCharger] = None,
    n_min: Optional[int] = None,
    n_max: Optional[int] = None,
) -> InorResult:
    """Algorithm 1 as the paper's per-candidate loop — the test oracle.

    One greedy walk plus one ``array_mpp`` call per group count, after
    the same validation and window as :func:`inor`.  No production path
    calls it: the parity suites pin :func:`inor` and every stacked
    caller bit-identical to it (same cut indices, same MPPs, same
    ranking), and the INOR benchmark in ``benchmarks/`` times it
    against :func:`inor`.  The winner follows ``np.argmax``'s rule, as
    the batched ranking does: the first maximum wins (ties keep the
    smallest ``n``, like the paper's ascending scan), and a NaN score
    counts as the maximum, so the first NaN wins.
    """
    emf, resistance, lo, hi = _inor_window(
        emf, resistance, charger, n_min, n_max
    )
    mpp_currents = emf / (2.0 * resistance)
    best = None
    for n_groups in range(lo, hi + 1):
        starts = greedy_balanced_partition(mpp_currents, n_groups)
        mpp = array_mpp(emf, resistance, starts)
        score = (
            charger.delivered_at_mpp(mpp) if charger is not None else mpp.power_w
        )
        if best is None or score > best[2] or math.isnan(score):
            best = (starts, mpp, float(score))
            if math.isnan(score):
                break
    starts, mpp, score = best
    return InorResult(
        config=ArrayConfiguration(
            starts=tuple(int(s) for s in starts), n_modules=emf.size
        ),
        mpp=mpp,
        delivered_power_w=score,
        n_range=(lo, hi),
        candidates_evaluated=hi - lo + 1,
    )


def converter_aware_group_range_rows(
    emf_rows: np.ndarray,
    n_modules: int,
    charger: Optional[TEGCharger] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-case group-count windows for a stacked case grid.

    The row-stacked form of :func:`converter_aware_group_range` (which
    is its one-case call): ``emf_rows`` holds one EMF vector per case,
    and the returned ``(n_mins, n_maxs)`` int64 vectors apply the same
    window rule case by case.
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
    # A dead array (non-finite or non-positive mean EMF) takes the full
    # range: any n works equally badly.
    usable = np.isfinite(mean_emf) & (mean_emf > 0.0)
    safe_mean = np.where(usable, mean_emf, 1.0)
    v_lo, v_hi = charger.preferred_voltage_window(WINDOW_EFFICIENCY_DROP)
    # Both ends clamp into [1, N] before the int conversion, so an
    # unbounded window end (inf) saturates instead of overflowing.
    n_mins = np.minimum(np.maximum(np.floor(2.0 * v_lo / safe_mean), 1), n)
    n_maxs = np.minimum(np.maximum(np.ceil(2.0 * v_hi / safe_mean), 1), n)
    n_mins = n_mins.astype(np.int64)
    n_maxs = n_maxs.astype(np.int64)
    n_mins[~usable] = 1
    n_maxs[~usable] = n
    # Unreachable after the symmetric clamp; kept as a guard.
    return np.minimum(n_mins, n_maxs), n_maxs


def _proven_dead(
    emf_rows: np.ndarray,
    mpp_current_rows: np.ndarray,
    resistance: np.ndarray,
    converter,
) -> Optional[np.ndarray]:
    """Cases on which every candidate provably delivers exactly 0.0 W.

    A series-parallel array cannot beat its modules' separate maxima:
    by Cauchy-Schwarz, once within each parallel group and once across
    the series groups, every configuration's MPP power is at most
    ``B = sum(E_i^2 / (4 R_i)) = sum(E_i I_i) / 2`` with ``I_i`` the
    module MPP currents (for positive resistances).  The converter's
    efficiency never exceeds ``peak_efficiency``, and it is
    ``floor_efficiency`` on every candidate when no EMF is positive
    (every MPP voltage is then ``<= 0``).  Every score is
    ``max(p * eta - quiescent, 0)``, or 0 for ``p <= 0``, so a case
    with ``B * (1 + margin) * eta < quiescent`` scores 0.0 everywhere.

    The margin :data:`DEAD_BOUND_MARGIN` (``1e-6``) covers rounding.
    Every quantity in the argument is a sum or product of non-negative
    terms once EMFs are replaced by their magnitudes, so a computed MPP
    power exceeds ``B`` by at most a relative ``~3 N u`` (``u = 2^-53``:
    the sequential group sums, the series sums and the few products
    and quotients), and the computed ``B`` falls short of it by at most
    ``~(N + 4) u``.  ``1e-6`` covers both with room to spare for any
    chain below 10^9 modules; as float products and quotients are
    monotone, ``fl(p * eta) <= quiescent`` follows.  Bounds that cannot
    be formed (NaN or infinite EMFs) never prove a case, nor does a
    zero quiescent power (the test is strict), nor a non-positive
    resistance.  The floor-efficiency test, the weaker bound, runs
    first: a stack it proves nothing on returns ``None`` after a
    handful of array calls.
    """
    quiescent = converter.quiescent_power_w
    scale = 0.5 * (1.0 + DEAD_BOUND_MARGIN)
    bound = (emf_rows * mpp_current_rows).sum(axis=1)
    dead = bound * (scale * converter.floor_efficiency) < quiescent
    if not dead.any() or not resistance.min() > 0.0:
        return None
    # The floor bounds the efficiency only where no EMF is positive.
    dead &= (emf_rows.max(axis=1) <= 0.0) | (
        bound * (scale * converter.peak_efficiency) < quiescent
    )
    return dead


def _inor_stack_raw(
    emf_rows: np.ndarray,
    resistance: np.ndarray,
    charger: Optional[TEGCharger],
    n_mins: Optional[np.ndarray] = None,
    n_maxs: Optional[np.ndarray] = None,
):
    """The fused INOR pass, returning flat kernel-layer arrays.

    The one ranking of every INOR caller: :func:`inor` (one case),
    :func:`repro.core.dnor.dnor_stack` and the stacked epoch step
    :func:`repro.sim.gridstack.decide_epochs`, which consumes the
    winner indices and :class:`~repro.teg.network.PartitionStack`
    directly — skipping per-case result-object packaging in its hot
    loop.  ``n_mins`` /
    ``n_maxs`` are the per-case group-count windows, derived from the
    charger by :func:`converter_aware_group_range_rows` when omitted.

    With a charger, a case :func:`_proven_dead` proves delivers 0.0 W
    on every candidate is built and scored on ``[n_min, n_min]``: the
    first-maximum rule picks ``n_min`` from an all-zero window, and a
    candidate's partition and MPP do not depend on the rest of the
    window, so winner, MPP and score are bit-identical to the full
    pass.  The stack then holds that one candidate for the case;
    ``n_mins`` / ``n_maxs`` still report the whole window.

    Returns ``(stack, power, voltage, current, scores, winners,
    n_mins, n_maxs)`` with ``winners[c]`` the stacked index of case
    ``c``'s first-maximum candidate.
    """
    n_cases, n_modules = emf_rows.shape
    if n_mins is None or n_maxs is None:
        n_mins, n_maxs = converter_aware_group_range_rows(
            emf_rows, n_modules, charger
        )
    mpp_current_rows = emf_rows / (2.0 * resistance)
    n_builds = n_maxs
    if charger is not None:
        dead = _proven_dead(
            emf_rows, mpp_current_rows, resistance, charger.converter
        )
        if dead is not None:
            n_builds = np.where(dead, n_mins, n_maxs)
    stack = partition_multi_stack(mpp_current_rows, n_mins, n_builds)
    power, voltage, current = array_mpp_multi_stack(
        emf_rows, resistance, stack
    )
    if charger is not None:
        scores = charger.delivered_batch(power, voltage)
    else:
        scores = power

    # Per-case first-maximum winners without a case loop: scatter each
    # case's scores into a -inf-padded row, argmax along it.
    widths = np.diff(stack.case_offsets)
    w_max = int(widths.max())
    padded = np.full((n_cases, w_max), -np.inf)
    ragged = np.arange(w_max, dtype=np.int64)[None, :] < widths[:, None]
    padded[ragged] = scores
    winners = stack.case_offsets[:-1] + np.argmax(padded, axis=1)
    return stack, power, voltage, current, scores, winners, n_mins, n_maxs


def _winner_config(stack: PartitionStack, best: int) -> ArrayConfiguration:
    """The configuration of stacked candidate ``best``."""
    lo, hi = stack.offsets[best], stack.offsets[best + 1]
    # tolist() hands over plain ints, ArrayConfiguration's fast path.
    return ArrayConfiguration(
        starts=tuple(stack.cat[lo:hi].tolist()), n_modules=stack.n_modules
    )


def _inor_result(raw: tuple, case: int) -> InorResult:
    """Case ``case``'s :class:`InorResult` from one :func:`_inor_stack_raw`
    pass — result packaging only, no kernel work."""
    stack, power, voltage, current, scores, winners, n_mins, n_maxs = raw
    best = int(winners[case])
    return InorResult(
        config=_winner_config(stack, best),
        mpp=MPPPoint(
            voltage_v=float(voltage[best]),
            current_a=float(current[best]),
            power_w=float(power[best]),
        ),
        delivered_power_w=float(scores[best]),
        n_range=(int(n_mins[case]), int(n_maxs[case])),
        candidates_evaluated=int(n_maxs[case] - n_mins[case] + 1),
    )
