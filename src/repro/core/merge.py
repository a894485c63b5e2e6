"""Merging sorted ``(keys, values)`` runs.

A packed leaf block is one sorted array, so every consolidation in this
repo is a vectorized merge of sorted runs, never a key-at-a-time
insertion loop: :func:`merge_last_wins` folds a newer run into an older
one (a write's next block, an epoch drain, a delta publish), and
:func:`concat_sorted_runs` stitches disjoint ascending runs end to end
(shard dumps and range scans).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import VALUE_DTYPE
from repro.errors import ConfigError


def concat_sorted_runs(
    runs: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Join ordered sorted ``(keys, values)`` runs end to end.

    Requires run ``i``'s keys to all precede run ``i + 1``'s — for
    contiguous key-range shards the exact merge: sorted union *is*
    concatenation.  This is how the sharded service tier stitches global
    range scans and rebalance dumps back together (each shard owns a
    contiguous key range, and shard order is key order), so the check is
    asserted, not assumed.
    """
    parts = [(np.asarray(k), np.asarray(v)) for k, v in runs]
    for k, v in parts:
        if k.shape != v.shape:
            raise ConfigError("each run needs aligned keys and values")
    parts = [(k, v) for k, v in parts if k.size]
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=VALUE_DTYPE),
        )
    for (ka, _), (kb, _) in zip(parts, parts[1:]):
        if ka[-1] >= kb[0]:
            raise ConfigError(
                "runs must be disjoint and ascending: "
                f"{int(ka[-1])} >= {int(kb[0])}"
            )
    if len(parts) == 1:
        return parts[0]
    return (
        np.concatenate([k for k, _ in parts]),
        np.concatenate([v for _, v in parts]),
    )


def merge_last_wins(
    keys: np.ndarray,
    cols: Sequence[np.ndarray],
    new_keys: np.ndarray,
    new_cols: Sequence[np.ndarray],
    new_keep: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Two-way merge of an older and a newer sorted-unique run; on a key
    both hold, the newer entry wins.

    ``cols`` / ``new_cols`` are the payload columns aligned with each
    side's keys.  Every older entry whose key the newer run holds drops
    out; the newer entries then go in at their sorted positions — except
    those ``new_keep`` masks off, which only delete (how a tombstone
    removes a base entry and is itself dropped).  One ``searchsorted`` of
    the newer run into the older plus copies: O(n + r log n) for ``n``
    older and ``r`` newer entries, no sort of the union.

    Only *moves* — a kept newer key the older run lacks (insert), a
    masked-off one it holds (delete) — shift entries.  A kept newer key
    the older run holds overwrites that entry's columns in place after
    the moves, and the keys array is shared when nothing moves, so an
    update-heavy batch costs one copy of its columns.  Moves are placed
    by :func:`_place_segments` when few, else by :func:`_place_masked`.
    Either side's arrays may come back unchanged (not copied) when the
    other is empty.
    """
    if any(c.shape != keys.shape for c in cols) or any(
        c.shape != new_keys.shape for c in new_cols
    ):
        raise ConfigError("each run needs aligned keys and columns")
    if new_keys.size > 1 and not np.all(new_keys[1:] > new_keys[:-1]):
        raise ConfigError("the newer run must be sorted with unique keys")
    if keys.size == 0:
        if new_keep is None:
            return new_keys, tuple(new_cols)
        return new_keys[new_keep], tuple(c[new_keep] for c in new_cols)
    if new_keys.size == 0:
        return keys, tuple(cols)
    idx = np.searchsorted(keys, new_keys, side="left")
    held = keys[np.minimum(idx, keys.size - 1)] == new_keys
    keep = (np.ones(new_keys.size, dtype=bool) if new_keep is None
            else new_keep)
    moves = np.flatnonzero(held != keep)
    if not moves.size:
        out_keys, out_cols = keys, [c.copy() for c in cols]
    else:
        place = (_place_segments
                 if moves.size * _SEGMENT_RATIO <= keys.size
                 else _place_masked)
        out_keys, out_cols = place(
            keys, cols, new_keys[moves], [c[moves] for c in new_cols],
            idx[moves], keep[moves],
        )
    over = held & keep
    if over.any():
        # Output position of an overwritten entry: its older position,
        # shifted by the inserts minus the deletes of the keys below it.
        step = keep.astype(np.int64) - held
        pos = idx + np.cumsum(step) - step
        for out, new in zip(out_cols, new_cols):
            out[pos[over]] = new[over]
    return out_keys, tuple(out_cols)


#: :func:`merge_last_wins` places its moves segment by segment when the
#: older run holds at least this many entries per move.  Measured on a
#: 2^20-entry block with two columns: a segment copy is a plain memcpy
#: (1.6 ms for the block) where the masked scatter costs 3.1 ms, and each
#: segment adds ~3.6 µs of Python, so segments win below ~2400 entries
#: per move.  64 inserts: 1.9 ms against 3.5 ms.
_SEGMENT_RATIO = 4096


def _place_segments(keys, cols, move_keys, move_cols, idx, insert):
    """Apply few moves — ``insert[j]``: put ``move_keys[j]`` in at older
    position ``idx[j]``, else delete the older entry there — by copying
    the older entries between two moves as one slice."""
    total = keys.size + 2 * int(np.count_nonzero(insert)) - idx.size
    olds = (keys, *cols)
    news = (move_keys, *move_cols)
    outs = [np.empty(total, dtype=a.dtype) for a in olds]
    src = dst = 0
    for j, (stop, put) in enumerate(zip(idx.tolist(), insert.tolist())):
        end = dst + stop - src
        for out, old in zip(outs, olds):
            out[dst:end] = old[src:stop]
        if put:
            for out, new in zip(outs, news):
                out[end] = new[j]
            dst, src = end + 1, stop
        else:
            dst, src = end, stop + 1
    for out, old in zip(outs, olds):
        out[dst:] = old[src:]
    return outs[0], outs[1:]


def _place_masked(keys, cols, move_keys, move_cols, idx, insert):
    """Apply many moves (see :func:`_place_segments`) with boolean-mask
    scatters: drop the deleted older entries, then put the inserts in at
    their merged positions."""
    delete = ~insert
    if delete.any():
        keep_old = np.ones(keys.size, dtype=bool)
        keep_old[idx[delete]] = False
        keys = keys[keep_old]
        cols = [c[keep_old] for c in cols]
        # Older entries below each insert, minus the deleted ones.
        idx = idx - (np.cumsum(delete) - delete)
    # Merged position of insert i = (#older below it) + i.
    pos = idx[insert] + np.arange(int(np.count_nonzero(insert)))
    total = keys.size + pos.size
    at_old = np.ones(total, dtype=bool)
    at_old[pos] = False
    outs = []
    for old, new in zip((keys, *cols), (move_keys, *move_cols)):
        merged = np.empty(total, dtype=old.dtype)
        merged[at_old] = old
        merged[pos] = new[insert]
        outs.append(merged)
    return outs[0], outs[1:]


__all__ = [
    "concat_sorted_runs",
    "merge_last_wins",
]
