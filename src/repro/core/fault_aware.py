"""Fault-aware variant of Algorithm 1.

With stuck junctions (:mod:`repro.teg.faults`) the feasible
configurations are the partitions containing every *forced* boundary
and none of the *forbidden* ones.  The structure of INOR survives
intact: stuck-parallel junctions merge adjacent modules into atomic
blocks, stuck-series junctions split the chain into independent
segments, and the greedy current-balancing walk runs per segment over
the blocks.

This is an extension beyond the paper (its fabric is assumed healthy),
built because a production reconfiguration controller must keep
harvesting through single-switch failures; the tests quantify the
graceful degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import ArrayConfiguration
from repro.core.inor import (
    converter_aware_group_range,
    greedy_balanced_partition,
)
from repro.errors import ConfigurationError
from repro.power.charger import TEGCharger
from repro.teg.faults import FaultMask
from repro.teg.module import MPPPoint
from repro.teg.network import array_mpp_multi


@dataclass(frozen=True)
class FaultAwareResult:
    """Outcome of one fault-aware INOR invocation."""

    config: ArrayConfiguration
    mpp: MPPPoint
    delivered_power_w: float
    fault_mask: FaultMask


def _blocks(n_modules: int, mask: FaultMask) -> List[Tuple[int, int]]:
    """Atomic module blocks ``[lo, hi)`` induced by forbidden boundaries."""
    forbidden = set(mask.forbidden_boundaries())
    blocks = []
    lo = 0
    for position in range(1, n_modules):
        if position in forbidden:
            continue
        blocks.append((lo, position))
        lo = position
    blocks.append((lo, n_modules))
    return blocks


def fault_aware_candidates(
    emf: np.ndarray,
    resistance: np.ndarray,
    mask: FaultMask,
    charger: Optional[TEGCharger] = None,
) -> List[ArrayConfiguration]:
    """Feasible Algorithm-1 proposals under a fault mask.

    Runs the greedy balanced partition over the fault-induced block
    structure for every group count in the converter-aware range and
    merges segment partitions across forced boundaries, returning the
    de-duplicated feasible configurations in ascending group-count
    order.  This is the proposal generator behind
    :func:`fault_aware_inor`, which batch-scores the whole list in one
    kernel pass.

    Raises
    ------
    ConfigurationError
        If the mask does not match the parameter arrays.
    """
    emf = np.asarray(emf, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    if emf.shape != resistance.shape or emf.ndim != 1 or emf.size == 0:
        raise ConfigurationError(
            f"emf/resistance must be matching 1-D arrays, got "
            f"{emf.shape} and {resistance.shape}"
        )
    if mask.n_modules != emf.size:
        raise ConfigurationError(
            f"mask covers {mask.n_modules} modules, parameters {emf.size}"
        )

    n_modules = emf.size
    mpp_currents = emf / (2.0 * resistance)

    # Segments between forced boundaries; each must be partitioned
    # independently (its boundary set is fixed at both ends).
    forced = [0] + list(mask.forced_boundaries()) + [n_modules]
    segments = list(zip(forced, forced[1:]))

    # Atomic blocks inside each segment (forbidden boundaries merged).
    blocks = _blocks(n_modules, mask)

    def segment_blocks(lo: int, hi: int) -> List[Tuple[int, int]]:
        return [b for b in blocks if lo <= b[0] and b[1] <= hi]

    # Per-block summed MPP currents: the greedy walk operates on
    # blocks exactly as plain INOR operates on modules.
    lo_range, hi_range = converter_aware_group_range(emf, n_modules, charger)

    max_groups = min(hi_range, len(blocks))
    min_groups = max(lo_range, len(segments))
    if min_groups > max_groups:
        min_groups = max_groups

    candidates: List[ArrayConfiguration] = []
    seen = set()
    for n_groups in range(min_groups, max_groups + 1):
        # Distribute the group budget across segments proportionally to
        # their MPP-current sums: forced boundaries put the segments in
        # series, so every group anywhere should carry roughly the same
        # current — a segment holding a fraction f of the chain current
        # should hold the same fraction of the groups.
        seg_blocks = [segment_blocks(lo, hi) for lo, hi in segments]
        seg_sizes = np.array([len(b) for b in seg_blocks], dtype=float)
        seg_currents = np.array(
            [max(mpp_currents[lo:hi].sum(), 1.0e-12) for lo, hi in segments]
        )
        raw = seg_currents / seg_currents.sum() * n_groups
        counts = np.maximum(np.round(raw).astype(int), 1)
        counts = np.minimum(counts, seg_sizes.astype(int))
        while counts.sum() < n_groups:
            # Give spare groups to the segment most under its quota
            # (by current), among those with headroom.
            headroom = seg_sizes - counts
            deficit = np.where(headroom > 0, raw - counts, -np.inf)
            if not np.isfinite(deficit).any() or deficit.max() == -np.inf:
                break
            counts[int(np.argmax(deficit))] += 1
        while counts.sum() > n_groups:
            surplus = np.where(counts > 1, counts - raw, -np.inf)
            if not np.isfinite(surplus).any() or surplus.max() == -np.inf:
                break
            counts[int(np.argmax(surplus))] -= 1

        starts: List[int] = []
        for (seg_lo, _seg_hi), seg_block_list, seg_groups in zip(
            segments, seg_blocks, counts
        ):
            block_currents = np.array(
                [mpp_currents[lo:hi].sum() for lo, hi in seg_block_list]
            )
            block_starts = greedy_balanced_partition(
                block_currents, int(seg_groups)
            )
            for block_index in block_starts:
                starts.append(seg_block_list[int(block_index)][0])
        starts_tuple = tuple(sorted(set(starts)))

        if not mask.is_feasible(starts_tuple):
            starts_tuple = mask.repair(starts_tuple)
        if starts_tuple not in seen:
            seen.add(starts_tuple)
            candidates.append(
                ArrayConfiguration(starts=starts_tuple, n_modules=n_modules)
            )

    assert candidates
    return candidates


def fault_aware_inor(
    emf: np.ndarray,
    resistance: np.ndarray,
    mask: FaultMask,
    charger: Optional[TEGCharger] = None,
) -> FaultAwareResult:
    """Algorithm 1 restricted to fault-feasible configurations.

    Generates the feasible candidate set with
    :func:`fault_aware_candidates` and ranks it by (charger-degraded)
    power: one :func:`repro.teg.network.array_mpp_multi` pass and the
    row-vector converter API, first maximum winning like the ascending
    scan.  Candidates are feasible configurations by construction, so
    the kernel's validation sweep is skipped.

    Raises
    ------
    ConfigurationError
        If the mask does not match the parameter arrays.
    """
    emf = np.asarray(emf, dtype=float)
    resistance = np.asarray(resistance, dtype=float)
    candidates = fault_aware_candidates(emf, resistance, mask, charger)
    power, voltage, current = array_mpp_multi(
        emf,
        resistance,
        [config.starts for config in candidates],
        validate=False,
    )
    scores = (
        power if charger is None else charger.delivered_batch(power, voltage)
    )
    best = int(np.argmax(scores))
    return FaultAwareResult(
        config=candidates[best],
        mpp=MPPPoint(
            voltage_v=float(voltage[best]),
            current_a=float(current[best]),
            power_w=float(power[best]),
        ),
        delivered_power_w=float(scores[best]),
        fault_mask=mask,
    )
