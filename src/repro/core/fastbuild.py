"""Fully-vectorized Harmonia construction.

:meth:`HarmoniaLayout.from_regular` walks Python node objects — fine for
reduced scales, hopeless for the paper's 2^23–2^26-key trees (tens of
millions of per-node Python operations).  :func:`build_layout_fast` builds
the same arrays straight from the sorted key array with O(height) NumPy
passes and no per-node Python, making ``--scale paper`` runnable.

Equivalence with the object path (same ``_chunk_sizes`` chunking, same
BFS order, byte-identical arrays) is pinned by tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.constants import (
    DEFAULT_FANOUT,
    INDEX_DTYPE,
    KEY_DTYPE,
    KEY_MAX,
    NOT_FOUND,
    VALUE_DTYPE,
)
from repro.core.layout import HarmoniaLayout
from repro.errors import EmptyTreeError
from repro.utils.validation import ensure_block, ensure_fanout, ensure_fill


def _full_chunks(n: int, target: int, minimum: int) -> int:
    """Full ``target``-sized chunks the greedy cut of ``n`` items takes
    before its tail."""
    return 0 if n < 2 * minimum else max(0, (n - minimum) // target)


def _chunk_count(n: int, target: int, minimum: int, maximum: int) -> int:
    """How many chunks :func:`_chunk_sizes_fast` cuts ``n`` items into:
    the full chunks plus a tail of one chunk, or of two when it exceeds
    ``maximum``."""
    if n <= 0:
        return 0
    if n < 2 * minimum:
        return 1
    k = _full_chunks(n, target, minimum)
    return k + 1 if n - k * target <= maximum else k + 2


def _chunk_sizes_fast(
    n: int, target: int, minimum: int, maximum: int
) -> np.ndarray:
    """Closed form of :func:`repro.btree.bulk._chunk_sizes`.

    The greedy loop takes ``target`` exactly while ``remaining >= target
    + minimum``, then splits the tail in one or two chunks — so the
    whole schedule is ``k`` full chunks plus an O(1) tail, no Python
    loop over the (possibly tens of thousands of) chunks.  Byte
    equality with the loop is pinned by tests.
    """
    count = _chunk_count(n, target, minimum, maximum)
    if count <= 1:
        return np.full(count, n, dtype=INDEX_DTYPE)
    k = _full_chunks(n, target, minimum)
    sizes = np.full(count, target, dtype=INDEX_DTYPE)
    tail = n - k * target
    if count == k + 1:
        sizes[k] = tail
    else:
        sizes[k] = tail - minimum
        sizes[k + 1] = minimum
    return sizes


def _node_shape(fanout: int, fill: float):
    """``(slots, min_leaf, min_children, leaf_target, internal_target)``:
    the node capacities, minimum occupancies and fill targets a bulk
    build cuts levels with."""
    slots = fanout - 1
    min_leaf = (slots + 1) // 2
    min_children = (fanout + 1) // 2
    leaf_target = max(min_leaf, min(slots, round(fill * slots)))
    internal_target = max(min_children, min(fanout, round(fill * fanout)))
    return slots, min_leaf, min_children, leaf_target, internal_target


def layout_height(n_keys: int, fanout: int, fill: float) -> int:
    """Height of the layout :func:`build_layout_fast` builds for
    ``n_keys`` keys at ``fill`` (0 for no keys), from the chunk counts
    alone — no level is built."""
    slots, min_leaf, min_children, leaf_t, internal_t = _node_shape(
        fanout, fill)
    nodes = _chunk_count(n_keys, leaf_t, min_leaf, slots)
    height = 1 if nodes else 0
    while nodes > 1:
        nodes = _chunk_count(nodes, internal_t, min_children, fanout)
        height += 1
    return height


def _fill_rows(
    flat: np.ndarray,
    sizes: np.ndarray,
    slots: int,
    pad,
    dtype,
    skip_first: int = 0,
) -> np.ndarray:
    """Pack ``flat`` into padded rows of the given ``sizes``.

    ``skip_first=1`` drops each chunk's first element (internal nodes store
    the minima of children 1..k-1; child 0's minimum is the separator held
    by an ancestor).

    All chunks except the rebalanced tail share one size, so the bulk of
    the packing is a single reshaped copy; only the tail rows go through
    the general gather.
    """
    n_rows = sizes.size
    out = np.full((n_rows, slots), pad, dtype=dtype)
    if n_rows == 0:
        return out
    u = int(sizes[0])
    nz = np.flatnonzero(sizes != u)
    k = int(nz[0]) if nz.size else n_rows
    if k:
        out[:k, : u - skip_first] = flat[: k * u].reshape(k, u)[
            :, skip_first:
        ]
    if k < n_rows:
        take = sizes[k:] - skip_first
        offsets = np.cumsum(sizes) - sizes + skip_first
        col = np.arange(slots)
        mask = col[None, :] < take[:, None]
        src = offsets[k:, None] + col[None, :]
        out[k:][mask] = flat[src[mask]]
    return out


def build_layout_fast(
    keys: Sequence[int],
    values: Optional[Sequence[int]] = None,
    fanout: int = DEFAULT_FANOUT,
    fill: float = 1.0,
) -> HarmoniaLayout:
    """Build a :class:`HarmoniaLayout` from strictly increasing keys with
    vectorized passes only (no pointer tree, no per-node Python)."""
    fanout = ensure_fanout(fanout)
    karr, varr = ensure_block(keys, values)
    if karr.size == 0:
        raise EmptyTreeError("cannot lay out an empty tree")
    ensure_fill(fill)

    slots, min_leaf, min_children, leaf_target, internal_target = (
        _node_shape(fanout, fill))

    leaf_sizes = _chunk_sizes_fast(karr.size, leaf_target, min_leaf, slots)
    leaf_keys = _fill_rows(karr, leaf_sizes, slots, KEY_MAX, KEY_DTYPE)
    leaf_values = _fill_rows(varr, leaf_sizes, slots, NOT_FOUND, VALUE_DTYPE)

    # Internal levels bottom-up from per-child subtree minima.
    levels_keys: List[np.ndarray] = [leaf_keys]
    levels_counts: List[np.ndarray] = [
        np.zeros(leaf_sizes.size, dtype=INDEX_DTYPE)
    ]
    mins = leaf_keys[:, 0].copy()
    while levels_keys[-1].shape[0] > 1:
        child_count = levels_keys[-1].shape[0]
        sizes = _chunk_sizes_fast(
            child_count, internal_target, min_children, fanout
        )
        levels_keys.append(
            _fill_rows(mins, sizes, slots, KEY_MAX, KEY_DTYPE, skip_first=1)
        )
        levels_counts.append(sizes)
        offsets = np.cumsum(sizes) - sizes
        mins = mins[offsets]

    levels_keys.reverse()
    levels_counts.reverse()
    height = len(levels_keys)
    key_region = np.concatenate(levels_keys, axis=0)
    counts = np.concatenate(levels_counts)
    n_nodes = key_region.shape[0]
    prefix = np.empty(n_nodes + 1, dtype=INDEX_DTYPE)
    prefix[0] = 1
    np.cumsum(counts, out=prefix[1:])
    prefix[1:] += 1
    level_starts = np.zeros(height + 1, dtype=INDEX_DTYPE)
    np.cumsum([lk.shape[0] for lk in levels_keys], out=level_starts[1:])

    return HarmoniaLayout(
        fanout=fanout,
        height=height,
        key_region=key_region,
        prefix_sum=prefix,
        leaf_values=leaf_values,
        level_starts=level_starts,
        n_keys=int(karr.size),
        # The chunk sizes are the per-leaf fill counts: handing them over
        # spares every reader of a fresh snapshot the sentinel count.
        leaf_counts=leaf_sizes,
    )


__all__ = ["build_layout_fast", "layout_height"]
