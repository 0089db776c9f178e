"""Vectorised segmented pairwise summation — ``ndarray.sum``'s bitwise twin.

The decision kernels replace per-candidate ``values[lo:hi].sum()`` loops
with one call that reduces *every* segment of a ragged layout at once.
Because the repository's parity contract pins decisions bit-for-bit
against scalar references that use ``ndarray.sum``, the replacement must
reproduce NumPy's *pairwise* summation — the exact tree in
``numpy/_core/src/umath/loops_utils.h`` — not merely a mathematically
equal reduction:

* ``n < 8``: a zero-initialised sequential accumulation.
* ``8 <= n <= 128``: eight zero-initialised lanes absorb the leading
  full 8-blocks (``r[k] += a[i + k]``), combine as
  ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))``, and the ``n % 8`` tail is
  added sequentially.
* ``n > 128``: split at ``n2 = (n//2) - (n//2) % 8`` and add the two
  halves' recursive sums.

The implementation below walks that tree *level-wise over all segments
simultaneously*: the split schedule is pure integer bookkeeping, while
every floating-point add runs as one array operation across segments —
and across any leading batch axes of ``values``.  All float adds are
explicit elementwise ``+`` (never ``np.sum``), so the result is fixed by
the tree alone.

A subtlety worth recording: masked accumulation must use fancy-indexed
in-place adds on the *active* subset, never ``res += where(mask, x, 0.0)``
— adding a literal ``0.0`` flips ``-0.0`` partial sums to ``+0.0`` and
breaks bit-parity on all-negative-zero segments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

#: Leaf size of NumPy's pairwise summation: runs of at most this many
#: elements are reduced by the unrolled 8-lane loop, longer runs split.
PAIRWISE_BLOCKSIZE = 128


def segmented_pairwise_sum(values, offsets) -> np.ndarray:
    """Sum every ``values[..., lo:hi]`` segment, bitwise like ``ndarray.sum``.

    ``offsets`` is an ``(S + 1,)`` non-decreasing boundary vector into
    the last axis of ``values`` (leading axes broadcast through
    untouched); the result has shape ``(..., S)``, bit-identical per
    segment to ``values[..., lo:hi].sum(axis=-1)``.  Empty segments sum
    to ``+0.0`` like ``ndarray.sum`` of an empty slice.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size == 0:
        raise ConfigurationError(
            f"offsets must be a non-empty 1-D vector, got shape {offsets.shape}"
        )
    values = np.asarray(values, dtype=np.float64)
    length = values.shape[-1] if values.ndim else 0
    if (
        offsets[0] < 0
        or offsets[-1] > length
        or np.any(offsets[1:] < offsets[:-1])
    ):
        raise ConfigurationError(
            f"offsets must be non-decreasing within [0, {length}], got "
            f"{offsets.tolist()[:8]}..."
        )
    starts = offsets[:-1]
    return _node_sums(values, starts, offsets[1:] - starts)


def _node_sums(values, starts: np.ndarray, lens: np.ndarray):
    """Pairwise sums of arbitrary-length nodes (one tree level per call)."""
    big = lens > PAIRWISE_BLOCKSIZE
    if not big.any():
        return _leaf_sums(values, starts, lens)
    out = np.empty(values.shape[:-1] + (lens.size,), dtype=np.float64)
    small_sel = np.flatnonzero(~big)
    if small_sel.size:
        out[..., small_sel] = _leaf_sums(
            values, starts[small_sel], lens[small_sel]
        )
    big_sel = np.flatnonzero(big)
    big_starts = starts[big_sel]
    big_lens = lens[big_sel]
    half = big_lens // 2
    half -= half % 8
    # One recursive call covers both halves of every big node, so the
    # recursion depth is the tree depth, not the node count.
    child = _node_sums(
        values,
        np.concatenate((big_starts, big_starts + half)),
        np.concatenate((half, big_lens - half)),
    )
    n_big = big_sel.size
    out[..., big_sel] = child[..., :n_big] + child[..., n_big:]
    return out


def _leaf_sums(values, starts: np.ndarray, lens: np.ndarray):
    """Pairwise sums of nodes no longer than :data:`PAIRWISE_BLOCKSIZE`."""
    lead = values.shape[:-1]
    res = np.zeros(lead + (lens.size,), dtype=np.float64)
    if lens.size == 0:
        return res
    tiny_sel = np.flatnonzero(lens < 8)
    if tiny_sel.size:
        tiny_starts = starts[tiny_sel]
        tiny_lens = lens[tiny_sel]
        # res starts at +0.0 and absorbs elements one step at a time —
        # NumPy's n < 8 path, including the empty-slice +0.0.
        for step in range(int(tiny_lens.max())):
            live = np.flatnonzero(tiny_lens > step)
            res[..., tiny_sel[live]] += values[..., tiny_starts[live] + step]
    blk_sel = np.flatnonzero(lens >= 8)
    if blk_sel.size:
        blk_starts = starts[blk_sel]
        blk_lens = lens[blk_sel]
        lane = np.arange(8, dtype=np.int64)[None, :]
        # Zero-initialised lanes + the head block: r[k] = 0.0 + a[k].
        acc = np.zeros(lead + (blk_sel.size, 8), dtype=np.float64)
        acc += values[..., blk_starts[:, None] + lane]
        n_blocks = blk_lens // 8  # full 8-blocks, head included
        for block in range(1, int(n_blocks.max())):
            live = np.flatnonzero(n_blocks > block)
            idx = blk_starts[live, None] + 8 * block + lane
            acc[..., live, :] += values[..., idx]
        # The fixed lane combine: ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)).
        pair = acc[..., 0::2] + acc[..., 1::2]
        quad = pair[..., 0::2] + pair[..., 1::2]
        blk_res = quad[..., 0] + quad[..., 1]
        rem = blk_lens % 8
        tail = blk_starts + blk_lens - rem
        for step in range(int(rem.max())):
            live = np.flatnonzero(rem > step)
            blk_res[..., live] += values[..., tail[live] + step]
        res[..., blk_sel] = blk_res
    return res
