""":class:`HarmoniaTree` — the user-facing Harmonia index.

Glues the pieces together the way the paper's system does:

* point queries run over the immutable
  :class:`~repro.core.layout.HarmoniaLayout` snapshot as PSA order (§4.1)
  → one binary search over the packed leaf block (§3.2.1) → scatter
  restore → delta overlay;
* the NTG group size chosen by static profiling (§4.2) configures the
  simulated-GPU kernel (:func:`repro.gpusim.kernels.simulate_search`) and
  the work model; every :class:`PreparedBatch` resolves it on demand, so
  benches and the simulator agree on the kernel configuration while the
  host lookup never pays for it;
* updates are collected into batches and applied by one of the update
  executors, each of which writes a fresh layout.

The phase discipline is the paper's: a batch update replaces the layout
snapshot and never writes the old one, so queries pinned to an older
snapshot keep seeing it unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.constants import DEFAULT_FANOUT, NOT_FOUND
from repro.core.config import SearchConfig, UpdateConfig
from repro.core.engine import BatchQueryEngine, EngineStats
from repro.core.layout import HarmoniaLayout
from repro.core.ntg import (
    NTGSelection,
    choose_group_size,
    fanout_group_size,
    selection_cache,
)
from repro.core.psa import PSABatch, identity_batch, prepare_batch
from repro.core.search import (
    RangeBatch,
    range_bounds,
    range_search_batch as _range_search_batch,
    search_batch as _search_batch,
    search_scalar,
)
from repro.core.update import BatchResult, BatchUpdater, Operation
from repro.core.update_plan import GappedBatchUpdater
from repro.errors import EmptyTreeError
from repro.utils.validation import ensure_key_array, ensure_scalar_key


def _profile_sample(
    queries: np.ndarray, target: int, warp_size: int
) -> np.ndarray:
    """Representative §4.2 profiling sample: contiguous warp-sized blocks
    spread evenly across the issue stream.

    A sorted-*prefix* sample (the obvious ``queries[:target]``) sees only
    the leftmost subtree of a PSA-sorted batch, so upper-level comparison
    profiles collapse toward slot 0 and both the degree DP and the scan
    widths mis-estimate badly.  Evenly spaced blocks cover the whole key
    range while keeping each block's local warp composition intact, and —
    because the blocks are taken in stream order and never overlap — a
    sorted input stays sorted.
    """
    n = queries.size
    if n <= target:
        return queries
    block = 4 * warp_size
    nblocks = max(1, target // block)
    if nblocks == 1:
        return queries[:target]
    starts = np.linspace(0, n - block, nblocks).astype(np.int64)
    idx = (
        starts[:, None] + np.arange(block, dtype=np.int64)[None, :]
    ).ravel()
    return queries[idx]


def _ntg_config(
    layout: HarmoniaLayout, queries: np.ndarray, cfg: SearchConfig
) -> Tuple[int, Optional[NTGSelection], Tuple[int, ...], Tuple[int, ...]]:
    """The §4.2 kernel configuration of one issue-order batch:
    ``(group_size, selection, ntg_degrees, scan_widths)``.

    ``ntg="model"`` profiles a sample of ``queries`` the first time a
    snapshot is asked, then reuses the selection through the module LRU
    (:data:`repro.core.ntg.selection_cache`) until the snapshot is
    replaced or evicted — the step model depends only on node geometry.
    Emits the ``ntg.*`` gauges when a recorder is enabled.
    """
    selection: Optional[NTGSelection] = None
    profile_s: Optional[float] = None
    if isinstance(cfg.ntg, int):
        gs = cfg.ntg
    elif cfg.ntg == "fanout":
        gs = fanout_group_size(layout.fanout, cfg.warp_size)
    else:
        selection = selection_cache.get(
            layout, cfg.warp_size, cfg.ntg_profile_levels
        )
        if selection is None:
            sample = _profile_sample(
                queries, min(cfg.profile_sample, queries.size), cfg.warp_size
            )
            if sample.size:
                t0 = time.perf_counter()
                selection = choose_group_size(
                    layout,
                    sample,
                    warp_size=cfg.warp_size,
                    levels=cfg.ntg_profile_levels,
                )
                profile_s = time.perf_counter() - t0
                selection_cache.put(
                    layout, cfg.warp_size, cfg.ntg_profile_levels, selection
                )
        gs = (selection.group_size if selection is not None
              else fanout_group_size(layout.fanout, cfg.warp_size))

    degrees: Tuple[int, ...] = ()
    widths: Tuple[int, ...] = ()
    if cfg.ntg_per_level:
        if selection is not None and selection.ntg_degrees:
            degrees = tuple(selection.ntg_degrees)
            widths = tuple(selection.scan_widths)
        else:
            # Forced widths (explicit int / "fanout" / empty sample)
            # still get a level vector, uniform at the chosen width.
            degrees = (int(gs),) * layout.height
    rec = obs.active
    if rec.enabled:
        for lvl, d in enumerate(degrees):
            rec.gauge(f"ntg.level_degree.l{lvl}", float(d))
        if profile_s is not None:
            rec.gauge("ntg.profile_s", profile_s)
    return gs, selection, degrees, widths


@dataclass(frozen=True)
class PreparedBatch:
    """A query batch after PSA (§4.1), ready for the lookup.

    ``psa`` holds the issue-order queries and the restore permutation —
    all the host lookup reads.  The §4.2 kernel configuration
    (:attr:`group_size`, :attr:`ntg_selection`, :attr:`ntg_degrees`,
    :attr:`scan_widths`) describes the simulated GPU kernel and the work
    model; it is resolved from this batch on first read, so a lookup that
    never asks never profiles.
    """

    psa: PSABatch
    layout: HarmoniaLayout = field(repr=False, compare=False)
    config: SearchConfig = field(repr=False, compare=False)

    @property
    def queries(self) -> np.ndarray:
        return self.psa.queries

    @property
    def warp_size(self) -> int:
        return self.config.warp_size

    @cached_property
    def _ntg(self):
        return _ntg_config(self.layout, self.psa.queries, self.config)

    @property
    def group_size(self) -> int:
        """Aggregate NTG thread-group width."""
        return self._ntg[0]

    @property
    def ntg_selection(self) -> Optional[NTGSelection]:
        """The §4.2 profiling result (None for forced widths)."""
        return self._ntg[1]

    @property
    def ntg_degrees(self) -> Tuple[int, ...]:
        """Per-level group widths (root first, non-increasing); empty
        when per-level NTG is disabled."""
        return self._ntg[2]

    @property
    def scan_widths(self) -> Tuple[int, ...]:
        """Per-level broadcast scan windows aligned with
        :attr:`ntg_degrees`; empty when unprofiled (explicit/fanout
        widths) or disabled."""
        return self._ntg[3]


class HarmoniaTree:
    """High-throughput batched B+tree index (Harmonia, PPoPP '19).

    >>> t = HarmoniaTree.from_sorted(range(0, 1000, 2))
    >>> int(t.search(4))
    4
    >>> t.search(5) is None
    True
    """

    def __init__(
        self,
        layout: Optional[HarmoniaLayout],
        fill: float = 1.0,
        search_config: Optional[SearchConfig] = None,
    ) -> None:
        self._layout = layout
        self._fill = fill
        self.search_config = search_config or SearchConfig()
        if layout is not None:
            # Remember the branching factor so a tree that is emptied and
            # re-populated keeps its configuration.
            self._empty_fanout = layout.fanout

    # ------------------------------------------------------------- builders

    @classmethod
    def from_sorted(
        cls,
        keys: Sequence[int],
        values: Optional[Sequence[int]] = None,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 1.0,
        search_config: Optional[SearchConfig] = None,
    ) -> "HarmoniaTree":
        """Bulk-build from strictly increasing keys (the evaluation path)."""
        karr = ensure_key_array(np.asarray(keys))
        if karr.size == 0:
            return cls(None, fill=fill, search_config=search_config)
        layout = HarmoniaLayout.from_sorted(karr, values, fanout=fanout, fill=fill)
        return cls(layout, fill=fill, search_config=search_config)

    @classmethod
    def empty(
        cls,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 1.0,
        search_config: Optional[SearchConfig] = None,
    ) -> "HarmoniaTree":
        tree = cls(None, fill=fill, search_config=search_config)
        tree._empty_fanout = fanout
        return tree

    _empty_fanout: int = DEFAULT_FANOUT
    #: Cached lookup engine (rebound on snapshot replacement).
    _engine: Optional[BatchQueryEngine] = None
    #: Optional pinned :class:`~repro.core.delta.DeltaView` overlay.  Set
    #: by :meth:`~repro.core.epoch.EpochManager._snapshot` in concurrent
    #: mode: every read path consults snapshot-then-delta (last wins,
    #: tombstones mask to NOT_FOUND).  A tree carrying a delta is a
    #: read-only view — :meth:`apply_batch` refuses it.
    delta = None
    # NTG selections live in the module-level
    # :data:`repro.core.ntg.selection_cache` LRU (weakref-validated, keyed
    # by layout identity), so they are shared across tree facades over the
    # same snapshot and evicted naturally — no per-tree invalidation.

    # ------------------------------------------------------------ properties

    @property
    def layout(self) -> HarmoniaLayout:
        if self._layout is None:
            raise EmptyTreeError("tree is empty; no layout snapshot exists")
        return self._layout

    @property
    def fanout(self) -> int:
        return self._layout.fanout if self._layout is not None else self._empty_fanout

    @property
    def height(self) -> int:
        return self._layout.height if self._layout is not None else 0

    def __len__(self) -> int:
        base = self._layout.n_keys if self._layout is not None else 0
        return base + (self.delta.net if self.delta is not None else 0)

    def __contains__(self, key: int) -> bool:
        return self.search(key) is not None

    # --------------------------------------------------------------- queries

    def search(self, key: int) -> Optional[int]:
        """Single-key lookup (CPU scalar path)."""
        key = ensure_scalar_key(key)
        if self.delta is not None:
            hit = self.delta.lookup(key)
            if hit is not None:
                tombstoned, value = hit
                return None if tombstoned else value
        if self._layout is None:
            return None
        return search_scalar(self._layout, key)

    def prepare_queries(
        self, queries: Sequence[int], config: Optional[SearchConfig] = None
    ) -> PreparedBatch:
        """Run the §4 front half: PSA reordering.  The NTG kernel
        configuration resolves lazily (see :class:`PreparedBatch`)."""
        cfg = config or self.search_config
        layout = self.layout
        q = ensure_key_array(np.asarray(queries), "queries")

        if cfg.use_psa:
            # Equation 2's B is the *effective* key-space width: sorting
            # bits above the data's range would order nothing, so the sort
            # window is anchored at the top of the stored key range.
            space_bits = layout.key_space_bits()
            if cfg.psa_bits is not None:
                psa = prepare_batch(
                    q, bits=min(cfg.psa_bits, space_bits), key_bits=space_bits
                )
            else:
                psa = prepare_batch(
                    q,
                    tree_size=max(layout.n_keys, 1),
                    keys_per_cacheline=cfg.keys_per_cacheline,
                    key_bits=space_bits,
                )
        else:
            psa = identity_batch(q)

        prepared = PreparedBatch(psa, layout, cfg)
        if obs.active.enabled:
            # Recording: resolve the kernel configuration now so the
            # ntg.* gauges land with this batch.
            prepared._ntg
        return prepared

    def search_batch(
        self,
        queries: Sequence[int],
        config: Optional[SearchConfig] = None,
    ) -> np.ndarray:
        """Batched lookup through the full pipeline, naive executor.

        Returns values aligned with the *input* order (PSA permutation is
        undone); absent keys map to :data:`~repro.constants.NOT_FOUND`.
        This path always runs the per-query broadcast traversal and is
        kept as the oracle; :meth:`search_many` is the fast engine path.
        """
        cfg = config or self.search_config
        q = ensure_key_array(np.asarray(queries), "queries")
        if self._layout is None:
            out = np.full(q.size, NOT_FOUND, dtype=np.int64)
            if self.delta is not None:
                self.delta.overlay_values(q, out)
            return out
        with obs.scoped(cfg.trace):
            prepared = self.prepare_queries(q, cfg)
            results = _search_batch(self._layout, prepared.queries)
            out = results[prepared.psa.restore]
            if self.delta is not None:
                self.delta.overlay_values(q, out)
            return out

    def engine(self) -> BatchQueryEngine:
        """The lookup engine bound to the current snapshot.

        Cached: rebuilt only when the layout snapshot is replaced (batch
        update), so scratch buffers persist across batches.  The packed
        leaf block lives on the snapshot itself and is shared by every
        engine over it.
        """
        layout = self.layout  # raises on an empty tree
        eng = self._engine
        if eng is None or eng.layout is not layout:
            eng = BatchQueryEngine(layout)
            self._engine = eng
        return eng

    def search_many(
        self,
        queries: Sequence[int],
        config: Optional[SearchConfig] = None,
    ) -> np.ndarray:
        """Batched lookup through the engine (§4.1's pipeline: PSA
        reorder → packed-leaf search → restore → delta overlay), on the
        calling thread.  Bit-identical to :meth:`search_batch`, the
        per-query broadcast oracle.
        """
        if self._layout is None:
            return self._no_snapshot(queries)
        cfg = config or self.search_config
        with obs.scoped(cfg.trace):
            prepared = self.prepare_queries(queries, cfg)
            return self.engine().execute_prepared(
                prepared, overlay=self._overlay()
            )

    def _overlay(self):
        """The pinned delta's elementwise overlay pass, or None."""
        return self.delta.overlay_values if self.delta is not None else None

    def _no_snapshot(self, queries) -> np.ndarray:
        """A point read on a tree with no layout: every key misses the
        base, then the pinned delta (if any) applies."""
        q = ensure_key_array(np.asarray(queries), "queries")
        out = np.full(q.size, NOT_FOUND, dtype=np.int64)
        if self.delta is not None:
            self.delta.overlay_values(q, out)
        return out

    @property
    def last_engine_stats(self) -> Optional[EngineStats]:
        """GPU work model of the most recent engine batch (or None),
        computed on first access — see
        :attr:`~repro.core.engine.BatchQueryEngine.last_stats`."""
        return self._engine.last_stats if self._engine is not None else None

    def search_sorted_many(
        self,
        queries: Sequence[int],
        config: Optional[SearchConfig] = None,
        tile=None,
        hinted: bool = True,
    ) -> np.ndarray:
        """Batched lookup for an **ascending** query batch — the dual-walk
        probe path :func:`repro.join.merge_join` drives.

        Sorted input makes PSA a no-op, so this skips ``prepare_queries``
        entirely and runs the engine directly: with ``hinted=True`` (the
        default) through :meth:`~repro.core.engine.BatchQueryEngine.
        execute_hinted`, whose work model is the dual walk that prunes
        subtrees no probe lands in; with ``hinted=False`` through the
        plain ``execute``.  ``tile`` (a
        :class:`~repro.join.tiles.TileConfig`) bounds peak lookup scratch
        to O(tile) via the tile scheduler.  Values are
        bit-identical to :meth:`search_many` on the same batch (the
        delta overlay, when pinned, applies the same way); ascending
        order is validated by the hinted engine.
        """
        if self._layout is None:
            return self._no_snapshot(queries)
        cfg = config or self.search_config
        overlay = self._overlay()
        with obs.scoped(cfg.trace):
            eng = self.engine()
            if tile is not None:
                from repro.join.tiles import TileScheduler

                return TileScheduler(eng, tile).run(
                    queries, overlay=overlay, hinted=hinted
                )
            if hinted:
                return eng.execute_hinted(queries, overlay=overlay)
            return eng.execute(queries, issue_sorted=True, overlay=overlay)

    def search_stream(
        self,
        queries: Sequence[int],
        config: Optional[SearchConfig] = None,
    ) -> np.ndarray:
        """Batched lookup through the §4.1.3 streaming executor: traffic is
        cut into ``config.stream_batch``-query batches, each sorted,
        traversed and scattered back on the calling thread, with per-stage
        traces.  Bit-identical to :meth:`search_batch` /
        :meth:`search_many` on the same queries.

        Thread-safe: each call builds its own
        :class:`~repro.core.stream.StreamExecutor` (slot buffers and engine
        scratch are per-call), sharing only the snapshot's immutable packed
        leaf block.  Per-call stats land in :attr:`last_stream_stats`.
        """
        from repro.core.stream import StreamExecutor

        if self._layout is None:
            return self._no_snapshot(queries)
        cfg = config or self.search_config
        executor = StreamExecutor.from_config(self._layout, cfg)
        with obs.scoped(cfg.trace):
            out = executor.run(queries, overlay=self._overlay())
        self._last_stream_stats = executor.last_stats
        return out

    #: Stats of the most recent :meth:`search_stream` call (or None).
    _last_stream_stats = None

    @property
    def last_stream_stats(self):
        """Stats of the most recent :meth:`search_stream` call (or None)."""
        return self._last_stream_stats

    def range_search(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """All pairs with ``lo <= key <= hi`` (keys ascending)."""
        return self.range_search_batch([lo], [hi])[0]

    def range_search_batch(
        self, los: Sequence[int], his: Sequence[int]
    ) -> RangeBatch:
        """Batch of range scans as one :class:`~repro.core.search.RangeBatch`
        aligned with the inputs: one vectorized leaf-location pass for all
        bounds, then one gather of every window's leaf rows.  A pinned
        delta overlay is merged over the whole batch at once
        (:meth:`~repro.core.delta.DeltaView.merge_ranges`: last wins,
        tombstones dropped)."""
        lo_arr, hi_arr = range_bounds(los, his)
        if self._layout is None:
            base = RangeBatch.empty(lo_arr.size)
        else:
            base = _range_search_batch(self._layout, lo_arr, hi_arr)
        if self.delta is None:
            return base
        return self.delta.merge_ranges(base, lo_arr, hi_arr)

    def items(self, start: Optional[int] = None):
        """Lazy cursor over ``(key, value)`` pairs in key order.

        ``start`` positions the cursor at the first key ``>= start``.
        Iterates leaf row by leaf row over the contiguous leaf block, so a
        partial scan touches only the rows it crosses.  The snapshot is
        pinned at call time (later batches do not affect a live cursor).
        With a pinned delta overlay the merged visible contents are
        materialized up front (correctness over laziness on that path).
        """
        if self.delta is not None:
            keys, values = self._merged_items()
            if start is not None:
                first = int(np.searchsorted(keys, start, side="left"))
                keys, values = keys[first:], values[first:]
            for k, v in zip(keys.tolist(), values.tolist()):
                yield k, v
            return
        layout = self._layout
        if layout is None:
            return
        from repro.constants import KEY_MAX

        first_leaf = 0
        if start is not None:
            node = 0
            for _ in range(layout.height - 1):
                row = layout.key_region[node]
                i = int(np.searchsorted(row, start, side="right"))
                node = int(layout.prefix_sum[node]) + i
            first_leaf = node - layout.leaf_start
        for leaf in range(first_leaf, layout.n_leaves):
            row = layout.key_region[layout.leaf_start + leaf]
            vals = layout.leaf_values[leaf]
            for slot in range(layout.slots):
                key = int(row[slot])
                if key == KEY_MAX:
                    break
                if start is not None and key < start:
                    continue
                yield key, int(vals[slot])

    def keys(self, start: Optional[int] = None):
        """Lazy cursor over keys in order (see :meth:`items`)."""
        for key, _ in self.items(start):
            yield key

    def _merged_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Visible sorted ``(keys, values)`` arrays: base leaf items
        overlaid with the pinned delta (last wins, tombstones dropped)."""
        if self._layout is None:
            base_k = np.empty(0, dtype=np.int64)
            base_v = np.empty(0, dtype=np.int64)
        else:
            pairs = self._layout.iter_leaf_items()
            if pairs.size:
                base_k, base_v = pairs[:, 0], pairs[:, 1]
            else:
                base_k = np.empty(0, dtype=np.int64)
                base_v = np.empty(0, dtype=np.int64)
        if self.delta is None:
            return base_k, base_v
        return self.delta.merge_items(base_k, base_v)

    # --------------------------------------------------------------- updates

    def apply_batch(
        self,
        ops: Sequence[Operation],
        config: Optional[UpdateConfig] = None,
    ) -> BatchResult:
        """Apply one update batch (§3.2.2) and run the movement pass.

        Returns the accounting record; the tree's layout snapshot is
        replaced atomically at the end (phase semantics — queries issued
        after this call see the new structure).  No mode ever writes the
        outgoing snapshot, so its cached packed leaf block and leaf counts
        stay valid for readers still pinned to it.

        ``config.mode`` picks the executor: the gapped in-place absorber
        (default, :class:`~repro.core.update_plan.GappedBatchUpdater` —
        movement demoted to a rare compaction epoch; absorbs into a
        private copy) or the per-op Algorithm 1 reference path, which
        edits a private copy of the snapshot.  Results are equivalent;
        the physical layouts differ (see
        :class:`~repro.core.config.UpdateConfig`).
        """
        cfg = config or UpdateConfig()
        if self.delta is not None:
            from repro.errors import ConfigError

            raise ConfigError(
                "this tree is a pinned snapshot+delta read view; apply "
                "updates through its EpochManager, not the view"
            )
        if self._layout is None:
            return self._bootstrap_batch(ops)

        if cfg.mode == "gapped":
            gapped = GappedBatchUpdater(self._layout, fill=self._fill,
                                        config=cfg)
            result = gapped.run(ops, n_threads=cfg.n_threads)
            self._layout = gapped.new_layout
            return result

        # Algorithm 1 edits leaf rows in place: give it a private copy.
        scalar = BatchUpdater(self._layout.copy(), fill=self._fill)
        with scalar.result.timer.phase("apply"):
            scalar.apply_batch(ops, n_threads=cfg.n_threads)
        with scalar.result.timer.phase("movement"):
            self._layout = scalar.movement()
        return scalar.result

    def _bootstrap_batch(self, ops: Sequence[Operation]) -> BatchResult:
        """First batch on an empty tree: inserts bulk-build the layout."""
        result = BatchResult()
        with result.timer.phase("apply"):
            pairs = {}
            for op in ops:
                if op.kind == "insert":
                    if op.key in pairs:
                        result.failed += 1
                    else:
                        pairs[op.key] = op.value
                        result.inserted += 1
                elif op.kind == "update":
                    if op.key in pairs:
                        pairs[op.key] = op.value
                        result.updated += 1
                    else:
                        result.failed += 1
                else:
                    if pairs.pop(op.key, None) is not None:
                        result.deleted += 1
                    else:
                        result.failed += 1
        with result.timer.phase("movement"):
            if pairs:
                keys = np.fromiter(sorted(pairs), dtype=np.int64, count=len(pairs))
                vals = np.asarray([pairs[int(k)] for k in keys], dtype=np.int64)
                self._layout = HarmoniaLayout.from_sorted(
                    keys, vals, fanout=self._empty_fanout, fill=self._fill
                )
        return result

    # Single-operation conveniences (each is a batch of one, keeping the
    # phase semantics honest).

    def insert(self, key: int, value: int) -> bool:
        res = self.apply_batch([Operation("insert", key, value)])
        return res.inserted == 1

    def update(self, key: int, value: int) -> bool:
        res = self.apply_batch([Operation("update", key, value)])
        return res.updated == 1

    def delete(self, key: int) -> bool:
        res = self.apply_batch([Operation("delete", key)])
        return res.deleted == 1

    # ------------------------------------------------------------ validation

    def check_invariants(self) -> None:
        if self._layout is not None:
            self._layout.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        if self._layout is None:
            return f"HarmoniaTree(empty, fanout={self._empty_fanout})"
        return (
            f"HarmoniaTree(fanout={self.fanout}, keys={len(self)}, "
            f"height={self.height})"
        )


__all__ = ["HarmoniaTree", "PreparedBatch"]
