"""Vectorised segmented pairwise summation — ``ndarray.sum``'s bitwise twin.

The decision kernels reduce *every* segment of a ragged layout in one
call instead of per-candidate ``values[lo:hi].sum()`` loops.  The parity
contract pins decisions bit-for-bit against scalar references that use
``ndarray.sum``, so this must reproduce NumPy's *pairwise* summation —
the exact tree in ``numpy/_core/src/umath/loops_utils.h`` — not merely
a mathematically equal reduction:

* ``n < 8``: a zero-initialised sequential accumulation.
* ``8 <= n <= 128``: eight zero-initialised lanes absorb the leading
  full 8-blocks (``r[k] += a[i + k]``), combine as
  ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))``, and the ``n % 8`` tail is
  added sequentially.
* ``n > 128``: split at ``n2 = (n//2) - (n//2) % 8`` and add the two
  halves' recursive sums.

The split schedule is integer bookkeeping, so the whole tree of every
segment is laid out first.  One padded gather then sums all its leaves
(nodes of at most 128 elements): leaf ``i`` fills column ``i`` of a
``(8·max_blocks + max_rem, leaves)`` matrix with its full 8-blocks, then
its ``n % 8`` tail, and every leaf runs the rule above at once —
``max_blocks`` lane-wise adds into ``+0.0`` lanes, the fixed lane
combine, ``max_rem`` sequential tail adds.  A leaf shorter than 8 has no
blocks, so its lanes combine to ``+0.0`` and the tail adds are the
``n < 8`` path.  The halves are then added bottom-up, a level at a time.
Every float add is an explicit elementwise ``+``, never ``np.sum``.

Slots a leaf does not fill read one appended ``+0.0``, and that padding
is exact: the lanes start at ``+0.0``, and under round-to-nearest a sum
is ``-0.0`` only when both operands are, so no partial sum is ever
``-0.0`` and adding ``+0.0`` to it changes nothing.  An all-``-0.0``
leaf sums to ``+0.0``, as ``ndarray.sum`` does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError

#: Leaf size of NumPy's pairwise summation: runs of at most this many
#: elements are reduced by the unrolled 8-lane loop, longer runs split.
PAIRWISE_BLOCKSIZE = 128


def segmented_pairwise_sum(values, offsets) -> np.ndarray:
    """Sum every ``values[..., lo:hi]`` segment, bitwise like ``ndarray.sum``.

    ``offsets`` is an ``(S + 1,)`` non-decreasing integer boundary vector
    into the last axis of ``values`` (leading axes broadcast through
    untouched); the result has shape ``(..., S)``, bit-identical per
    segment to ``values[..., lo:hi].sum(axis=-1)``.  Empty segments sum
    to ``+0.0`` like ``ndarray.sum`` of an empty slice.
    """
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or offsets.size == 0 or offsets.dtype.kind not in "iu":
        raise ConfigurationError(
            "offsets must be a non-empty 1-D integer vector, got shape "
            f"{offsets.shape} of dtype {offsets.dtype}"
        )
    offsets = offsets.astype(np.int64, copy=False)
    # A 0-d ``values`` has no axis to segment: only empty segments fit.
    values = np.asarray(values, dtype=np.float64) if np.ndim(values) else np.empty(0)
    length = values.shape[-1]
    starts = offsets[:-1]
    lens = offsets[1:] - starts
    if offsets[0] < 0 or offsets[-1] > length or lens.min(initial=0) < 0:
        raise ConfigurationError(
            f"offsets must be non-decreasing within [0, {length}], got "
            f"{offsets.tolist()[:8]}..."
        )
    if lens.max(initial=0) <= PAIRWISE_BLOCKSIZE:
        return _leaf_sums(values, starts, lens)
    # levels[d] holds the depth-d nodes; a node over the leaf size splits
    # into its left and right halves, listed in that order on level d + 1.
    levels = [(starts, lens)]
    big = lens > PAIRWISE_BLOCKSIZE
    while big.any():
        starts, lens = starts[big], lens[big]
        half = lens // 2
        half -= half % 8
        starts = np.concatenate((starts, starts + half))
        lens = np.concatenate((half, lens - half))
        levels.append((starts, lens))
        big = lens > PAIRWISE_BLOCKSIZE
    leaf = [lens <= PAIRWISE_BLOCKSIZE for _, lens in levels]
    sums = _leaf_sums(
        values,
        np.concatenate([s[m] for (s, _), m in zip(levels, leaf)]),
        np.concatenate([n[m] for (_, n), m in zip(levels, leaf)]),
    )
    # Bottom-up: a level's leaves are the next slice of ``sums`` from the
    # end, its inner nodes the sums of the level below's halves.
    end = sums.shape[-1]
    below = None
    for is_leaf in reversed(leaf):
        lo = end - np.count_nonzero(is_leaf)
        node = np.empty(values.shape[:-1] + is_leaf.shape)
        node[..., is_leaf] = sums[..., lo:end]
        if below is not None:
            n_big = below.shape[-1] // 2
            node[..., ~is_leaf] = below[..., :n_big] + below[..., n_big:]
        below, end = node, lo
    return below


def _leaf_sums(values, starts: np.ndarray, lens: np.ndarray):
    """Pairwise sums of nodes no longer than :data:`PAIRWISE_BLOCKSIZE`."""
    lead = values.shape[:-1]
    blocks = lens // 8
    rem = lens - 8 * blocks
    width = 8 * int(blocks.max(initial=0))
    n_cols = width + int(rem.max(initial=0))
    # Column i reads leaf i's full 8-blocks into rows [0, width) and its
    # tail into rows [width, n_cols); every other slot reads the +0.0 row
    # appended below the transposed values.
    pad = values.shape[-1]
    ends = starts + 8 * blocks
    head = starts + np.arange(width)[:, None]
    head[head >= ends] = pad
    tail = ends + np.arange(n_cols - width)[:, None]
    tail[tail >= starts + lens] = pad
    padded = np.zeros((pad + 1, math.prod(lead)))
    padded[:pad] = values.reshape(padded.shape[1], pad).T
    gathered = padded.take(np.concatenate((head, tail)), axis=0)
    acc = np.zeros((8,) + gathered.shape[1:])
    for block in range(0, width, 8):
        acc += gathered[block:block + 8]
    # The fixed lane combine: ((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7)).
    pair = acc[0::2] + acc[1::2]
    quad = pair[0::2] + pair[1::2]
    res = quad[0] + quad[1]
    for step in range(width, n_cols):
        res += gathered[step]
    return res.T.reshape(lead + lens.shape)
