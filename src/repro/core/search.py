"""Query execution over a :class:`~repro.core.layout.HarmoniaLayout`.

Three layers, slowest to fastest:

* :func:`search_scalar` — one query, pure-Python, used as the oracle in
  tests and for interactive use;
* :func:`traverse_batch` — vectorized level-synchronous traversal that also
  records the *trace* (node index and child slot per level) that both the
  GPU simulator (:mod:`repro.gpusim`) and the gap analyses need;
* :func:`search_batch` — the per-query broadcast traversal oracle built
  on it.

The traversal is exactly the paper's §3.2.1: at each level, find the child
whose range contains the target (``searchsorted`` side='right' — separators
route equal keys right), then jump via Equation 1.

Membership (:func:`contains_batch`) and range scans
(:func:`range_search_batch`) need no traversal: they search the packed
leaf block that a :class:`~repro.core.snapshot.Snapshot` stores (and a
layout caches), so they never derive a layout.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.constants import KEY_MAX, NOT_FOUND, VALUE_DTYPE
from repro.core.layout import HarmoniaLayout
from repro.errors import ConfigError
from repro.utils.validation import ensure_key_array, ensure_scalar_key


@dataclass(frozen=True)
class TraversalTrace:
    """Per-query, per-level traversal record.

    ``node_idx[l, q]`` — BFS index of the node query ``q`` visits at level
    ``l`` (level 0 is the root; level ``height-1`` the leaf).
    ``child_slot[l, q]`` — 0-based slot of the child taken at level ``l``
    (for the leaf level: the slot of the matched key, or the insertion slot
    when absent).
    ``comparisons[l, q]`` — keys a *sequential* scan would inspect at that
    level (``child_slot + 1`` capped at the node's key count) — the quantity
    Figure 3 plots and NTG's step model builds on.
    """

    node_idx: np.ndarray  # (height, n_queries) int64
    child_slot: np.ndarray  # (height, n_queries) int64
    comparisons: np.ndarray  # (height, n_queries) int64
    found: np.ndarray  # (n_queries,) bool
    values: np.ndarray  # (n_queries,) int64, NOT_FOUND where absent

    @property
    def height(self) -> int:
        return self.node_idx.shape[0]

    @property
    def n_queries(self) -> int:
        return self.node_idx.shape[1]


def _rowwise_right(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row count of entries ``<= target`` (== searchsorted side='right').

    Exact because padding is ``KEY_MAX`` and targets are legal keys, hence
    strictly below every pad.
    """
    return np.sum(rows <= targets[:, None], axis=1).astype(np.int64)


def _rowwise_left(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-row count of entries ``< target`` (== searchsorted side='left')."""
    return np.sum(rows < targets[:, None], axis=1).astype(np.int64)


def search_scalar(layout: HarmoniaLayout, key: int) -> Optional[int]:
    """Single-query lookup; returns the value or ``None``.

    Uses ``bisect`` over cached Python-list row views instead of
    ``np.searchsorted`` — on a ``fanout - 1``-slot row the NumPy call is
    pure dispatch overhead (~µs) while six list probes cost ~100 ns.
    Identical semantics: ``KEY_MAX`` pads sort above every legal key, so
    ``bisect_right`` over the padded row equals side='right' search.
    """
    key = ensure_scalar_key(key)
    node = 0
    if layout.height > 1:
        prefix = layout.prefix_sum_list()
        for _ in range(layout.height - 1):
            row = layout.internal_row_list(node)
            node = prefix[node] + bisect_right(row, key)  # Equation 1
    # Leaf rows are not cached (there are fanout x more of them); bisect
    # directly on the NumPy row still avoids the searchsorted dispatch.
    # Leaves live in the split-off leaf_keys region past the
    # key_count_prefix_sum boundary.
    li = node - layout.leaf_start
    row = layout.leaf_keys[li]
    pos = bisect_left(row, key)
    if pos < row.size and row[pos] == key:
        return int(layout.leaf_values[li, pos])
    return None


def traverse_batch(
    layout: HarmoniaLayout, queries: Sequence[int]
) -> TraversalTrace:
    """Vectorized root-to-leaf traversal of every query, with trace capture.

    Memory: O(height · n_queries) for the trace arrays.  When only values
    are needed, :func:`search_batch` avoids keeping the full trace.
    """
    q = ensure_key_array(np.asarray(queries), "queries")
    nq = q.size
    h = layout.height
    node_idx = np.empty((h, nq), dtype=np.int64)
    child_slot = np.empty((h, nq), dtype=np.int64)
    comparisons = np.empty((h, nq), dtype=np.int64)

    node = np.zeros(nq, dtype=np.int64)
    for lvl in range(h - 1):
        rows = layout.key_region[node]
        slot = _rowwise_right(rows, q)
        node_idx[lvl] = node
        child_slot[lvl] = slot
        nkeys = np.sum(rows != KEY_MAX, axis=1)
        comparisons[lvl] = np.minimum(slot + 1, nkeys)
        node = layout.prefix_sum[node] + slot  # Equation 1, vectorized

    li = node - layout.leaf_start
    rows = layout.leaf_keys[li]
    pos = _rowwise_left(rows, q)
    node_idx[h - 1] = node
    child_slot[h - 1] = pos
    nkeys = np.sum(rows != KEY_MAX, axis=1)
    comparisons[h - 1] = np.minimum(pos + 1, nkeys)

    pos_c = np.minimum(pos, layout.slots - 1)
    found = rows[np.arange(nq), pos_c] == q
    values = np.full(nq, NOT_FOUND, dtype=VALUE_DTYPE)
    values[found] = layout.leaf_values[li[found], pos_c[found]]
    return TraversalTrace(node_idx, child_slot, comparisons, found, values)


def search_batch(layout: HarmoniaLayout, queries: Sequence[int]) -> np.ndarray:
    """Batch point lookup.  Returns values aligned with ``queries``;
    absent keys yield :data:`~repro.constants.NOT_FOUND`."""
    q = ensure_key_array(np.asarray(queries), "queries")
    nq = q.size
    node = np.zeros(nq, dtype=np.int64)
    for _ in range(layout.height - 1):
        rows = layout.key_region[node]
        slot = _rowwise_right(rows, q)
        node = layout.prefix_sum[node] + slot
    li = node - layout.leaf_start
    rows = layout.leaf_keys[li]
    pos = _rowwise_left(rows, q)
    pos_c = np.minimum(pos, layout.slots - 1)
    found = rows[np.arange(nq), pos_c] == q
    values = np.full(nq, NOT_FOUND, dtype=VALUE_DTYPE)
    values[found] = layout.leaf_values[li[found], pos_c[found]]
    return values


def range_search(source, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs with ``lo <= key <= hi``, exploiting the contiguous leaf
    block (§3.2.1 — "since the key region is a consecutive array, range
    queries can achieve high performance").

    Thin wrapper over :func:`range_search_batch` so single- and
    multi-range scans share one code path.
    """
    lo = ensure_scalar_key(lo)
    hi = ensure_scalar_key(hi)
    return range_search_batch(
        source,
        np.asarray([lo], dtype=np.int64),
        np.asarray([hi], dtype=np.int64),
    )[0]


def locate_leaves_batch(
    layout: HarmoniaLayout, targets: Sequence[int]
) -> np.ndarray:
    """Vectorized leaf location: the (0-based) leaf-block index each target
    key routes to — the traversal front half of a point lookup, shared by
    every query in one level-synchronous pass."""
    t = ensure_key_array(np.asarray(targets), "targets")
    node = np.zeros(t.size, dtype=np.int64)
    for _ in range(layout.height - 1):
        rows = layout.key_region[node]
        node = layout.prefix_sum[node] + _rowwise_right(rows, t)
    return node - layout.leaf_start


def locate_leaves_bounds(
    layout: HarmoniaLayout, targets: Sequence[int]
) -> np.ndarray:
    """Leaf location via the cached per-leaf routing bounds: one binary
    search per key instead of a level-synchronous traversal.

    Identical to :func:`locate_leaves_batch` for any layout (property-
    pinned): :meth:`~repro.core.layout.HarmoniaLayout.leaf_bounds` folds
    the internal separators into the leaves' lower routing bounds, and
    both routes resolve equal keys rightward.  How the work model
    (:func:`~repro.core.engine.traversal_profile`) places a batch on its
    leaves.
    """
    t = ensure_key_array(np.asarray(targets), "targets")
    return np.searchsorted(layout.leaf_bounds(), t, side="right") - 1


def contains_batch(source, keys: Sequence[int]) -> np.ndarray:
    """Vectorized membership test: ``out[i]`` is whether ``keys[i]`` is
    stored in ``source`` (a :class:`~repro.core.snapshot.Snapshot` or a
    :class:`~repro.core.layout.HarmoniaLayout`).

    Distinct from ``search_batch(...) != NOT_FOUND`` because stored
    *values* are unconstrained int64 — a value equal to the ``NOT_FOUND``
    sentinel must still read as present.  Batch resolution works on
    existence bits (an op's success depends only on whether its key is
    visible), so this is its probe of the base: one ``searchsorted`` over
    the packed leaf block.
    """
    t = ensure_key_array(np.asarray(keys), "keys")
    block, _ = source.packed_leaves()
    if t.size == 0 or block.size == 0:
        return np.zeros(t.size, dtype=bool)
    pos = np.searchsorted(block, t, side="left")
    np.minimum(pos, block.size - 1, out=pos)
    return block[pos] == t


def range_bounds(
    los: Sequence[int], his: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Validated ``(los, his)`` key arrays of one range batch; every range
    surface rejects misaligned bounds with :class:`ConfigError`."""
    lo_arr = ensure_key_array(np.asarray(los), "los")
    hi_arr = ensure_key_array(np.asarray(his), "his")
    if lo_arr.shape != hi_arr.shape:
        raise ConfigError("los and his must align")
    return lo_arr, hi_arr


def run_index(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The runs ``starts[i] + arange(counts[i])``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


class RangeBatch:
    """The result of a batch of range scans in CSR form: query ``i``'s
    pairs are ``keys[offsets[i]:offsets[i + 1]]`` and the same slice of
    ``values``, ascending by key.

    Acts as a sequence of per-query ``(keys, values)`` pairs (``len``,
    iteration, indexing, unpacking); each pair is a pair of slice views
    built on access, so producers and the transport handle three arrays
    whatever the batch size.
    """

    __slots__ = ("offsets", "keys", "values")

    def __init__(
        self, offsets: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> None:
        self.offsets = offsets  # (n + 1,) int64, offsets[0] == 0
        self.keys = keys
        self.values = values

    @classmethod
    def from_counts(
        cls, counts: np.ndarray, keys: np.ndarray, values: np.ndarray
    ) -> "RangeBatch":
        """The batch whose query ``i`` holds ``counts[i]`` pairs."""
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(offsets, keys, values)

    @classmethod
    def empty(cls, n: int = 0) -> "RangeBatch":
        """``n`` empty windows."""
        return cls(
            np.zeros(n + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=VALUE_DTYPE),
        )

    @property
    def counts(self) -> np.ndarray:
        """Pairs per query."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        i = range(len(self))[i]  # negative indices, IndexError
        a, b = int(self.offsets[i]), int(self.offsets[i + 1])
        return self.keys[a:b], self.values[a:b]

    def __iter__(self):
        keys, values = self.keys, self.values
        off = self.offsets.tolist()
        for a, b in zip(off, off[1:]):
            yield keys[a:b], values[a:b]


def range_search_batch(
    source, los: Sequence[int], his: Sequence[int], delta=None
) -> RangeBatch:
    """Batch of range queries over ``source`` (a
    :class:`~repro.core.snapshot.Snapshot`, a
    :class:`~repro.core.layout.HarmoniaLayout`, or ``None`` for the empty
    block) as one :class:`RangeBatch`, with an optional ``delta`` (a
    :class:`~repro.core.delta.DeltaRun`: sorted keys, values, tombstones)
    spliced in — last wins, tombstones dropped.

    §3.2.1's consecutive leaf block makes a window one contiguous slice
    of the packed leaf block: one ``searchsorted`` finds every window's
    ends at once (``[lo, hi]`` is ``[lo, hi + 1)`` on integer keys), and
    one gather of the concatenated slices (:func:`run_index`) is the CSR
    result — query order, keys ascending inside each window.  The ends
    are searched in ascending order, so each binary search starts where
    the previous one ended (PSA's argument, §4.1: neighbouring searches
    touch neighbouring cache lines); this measured 0.89 ms against
    1.48 ms for 1024 windows of ~45 keys on a 2^20-key block.  The same
    sorted ends find each window's delta entries (:func:`_splice`).
    This is the single range-scan code path: the scalar
    :func:`range_search`, the tree, epoch and shard surfaces all route
    through it.
    """
    lo_arr, hi_arr = range_bounds(los, his)
    n = lo_arr.size
    if n == 0:
        return RangeBatch.empty()
    if source is None:
        keys = np.empty(0, dtype=np.int64)
        values = np.empty(0, dtype=VALUE_DTYPE)
    else:
        keys, values = source.packed_leaves()
    ends = np.concatenate((lo_arr, hi_arr + 1))  # hi < KEY_MAX: no overflow
    order = np.argsort(ends)
    ends = ends[order]
    pos = np.empty(2 * n, dtype=np.int64)
    pos[order] = np.searchsorted(keys, ends)
    first = pos[:n]
    counts = np.maximum(pos[n:] - first, 0)  # lo > hi: an empty window
    if delta is not None and delta.keys.size:
        dpos = np.empty(2 * n, dtype=np.int64)
        dpos[order] = np.searchsorted(delta.keys, ends)
        dcounts = np.maximum(dpos[n:] - dpos[:n], 0)
        if dcounts.any():
            return _splice(keys, values, first, counts, delta,
                           dpos[:n], dcounts)
    idx = run_index(first, counts)
    return RangeBatch.from_counts(counts, keys.take(idx), values.take(idx))


def _splice(keys, values, first, counts, delta, dfirst, dcounts):
    """The windows ``keys[first[i]:first[i] + counts[i]]`` with their
    delta entries ``delta.keys[dfirst[i]:dfirst[i] + dcounts[i]]``
    spliced in, as one :class:`RangeBatch`.

    Each (window, delta entry) pair finds the entry's slot ``p`` in the
    block.  A live entry whose key the block holds overwrites row ``p``
    in place; a live new key opens a hole before row ``p``; a tombstone
    of a block key drops row ``p``; a tombstone of a key the block lacks
    does nothing.  Holes and drops cut the window's slice into segments,
    laid out back to back, so one :func:`run_index` over the segments
    and one gather build every window, holes included; the live entries
    are then scattered into their slots.  The work beyond the plain
    scan is O(windows + pairs), with no sort over the returned rows.
    """
    m = first.size
    j = run_index(dfirst, dcounts)  # the delta entry of each pair
    w = np.repeat(np.arange(m), dcounts)  # ... and its window
    dk = delta.keys[j]
    live = ~delta.tombstones[j]
    p = np.searchsorted(keys, dk)
    found = (keys[np.minimum(p, keys.size - 1)] == dk if keys.size
             else np.zeros(dk.size, dtype=bool))
    opens = live & ~found  # a hole at p
    drops = found & ~live  # row p leaves
    cuts = opens | drops
    # The segment each pair falls in: a hole is the last row of the
    # segment it ends (its gathered row is overwritten below).
    seg = w + np.cumsum(cuts) - cuts
    cut = np.flatnonzero(cuts)
    per_window = np.bincount(w[cut], minlength=m)
    last_seg = np.arange(m) + np.cumsum(per_window)
    starts = np.empty(m + cut.size, dtype=np.int64)
    stops = np.empty(m + cut.size, dtype=np.int64)
    starts[last_seg - per_window] = first
    stops[last_seg] = first + counts
    stops[seg[cut]] = p[cut] + opens[cut]
    starts[seg[cut] + 1] = p[cut] + drops[cut]
    lens = stops - starts
    idx = run_index(starts, lens)
    if keys.size:
        out_k = keys.take(idx, mode="clip")  # a hole past the end: n
        out_v = values.take(idx, mode="clip")
    else:  # no block: every row is a hole
        out_k = np.zeros(idx.size, dtype=np.int64)
        out_v = np.zeros(idx.size, dtype=VALUE_DTYPE)
    ends = np.cumsum(lens)
    offsets = np.zeros(m + 1, dtype=np.int64)
    offsets[1:] = ends[last_seg]
    # Block row p sits at output row p - (its segment's first block row
    # - the segment's first output row).
    at = seg[live]
    slot = p[live] - (starts[at] - ends[at] + lens[at])
    out_k[slot] = dk[live]
    out_v[slot] = delta.values[j[live]]
    return RangeBatch(offsets, out_k, out_v)


__all__ = [
    "TraversalTrace",
    "search_scalar",
    "traverse_batch",
    "search_batch",
    "contains_batch",
    "RangeBatch",
    "range_bounds",
    "run_index",
    "range_search",
    "range_search_batch",
    "locate_leaves_batch",
    "locate_leaves_bounds",
]
