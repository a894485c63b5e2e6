""":class:`HarmoniaTree` — the user-facing Harmonia index.

Glues the pieces together the way the paper's system does:

* the tree's state is one immutable
  :class:`~repro.core.snapshot.Snapshot` — the packed leaf block
  (§3.2.1), with the :class:`~repro.core.layout.HarmoniaLayout` derived
  from it on first use (:attr:`HarmoniaTree.layout`);
* point queries run as PSA order (§4.1) → one binary search over the
  block → scatter restore → delta overlay; range scans, iteration and
  joins slice the same block;
* the NTG group size chosen by static profiling (§4.2) configures the
  simulated-GPU kernel (:func:`repro.gpusim.kernels.simulate_search`) and
  the work model; every :class:`PreparedBatch` resolves it on demand, so
  benches and the simulator agree on the kernel configuration while the
  host lookup never pays for it (nor for the layout it needs);
* an update batch is resolved against the block
  (:func:`~repro.core.delta.resolve_batch`) and merged into the next
  block (:meth:`~repro.core.snapshot.Snapshot.merge`); the Algorithm 1
  reference (:func:`~repro.core.update.scalar_apply`) runs on a copy of
  the layout instead.

The phase discipline is the paper's: a batch update replaces the
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
from repro.core.config import SearchConfig
from repro.core.delta import resolve_batch
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
    contains_batch,
    range_search_batch as _range_search_batch,
    search_batch as _search_batch,
)
from repro.core.snapshot import Snapshot
from repro.core.update import BatchResult, Operation
from repro.errors import ConfigError, EmptyTreeError, InvariantViolation
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
    all the host lookup reads; ``snapshot`` is the state it was prepared
    against.  The §4.2 kernel configuration
    (:attr:`group_size`, :attr:`ntg_selection`, :attr:`ntg_degrees`,
    :attr:`scan_widths`) describes the simulated GPU kernel and the work
    model; it is resolved from this batch on first read, so a lookup that
    never asks never profiles.
    """

    psa: PSABatch
    snapshot: Snapshot = field(repr=False, compare=False)
    config: SearchConfig = field(repr=False, compare=False)

    @property
    def queries(self) -> np.ndarray:
        return self.psa.queries

    @property
    def layout(self) -> HarmoniaLayout:
        """The snapshot's layout (derived on first access) — what the
        kernel configuration is profiled against."""
        return self.snapshot.layout

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




def _iter_pairs(keys: np.ndarray, values: np.ndarray, first: int,
                step: int = 4096):
    """``(key, value)`` pairs of a block from position ``first`` on,
    converted ``step`` at a time so a partial scan touches only what it
    crosses."""
    for a in range(first, keys.size, step):
        yield from zip(keys[a:a + step].tolist(), values[a:a + step].tolist())


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
        snapshot=None,
        fill: float = 1.0,
        search_config: Optional[SearchConfig] = None,
    ) -> None:
        """``snapshot`` is the tree's state: a
        :class:`~repro.core.snapshot.Snapshot`, a
        :class:`~repro.core.layout.HarmoniaLayout` (wrapped as an already
        derived snapshot), or ``None`` for an empty tree."""
        if isinstance(snapshot, HarmoniaLayout):
            snapshot = Snapshot.of_layout(snapshot, fill=fill)
        self._snap: Optional[Snapshot] = snapshot
        self._fill = fill
        self.search_config = search_config or SearchConfig()
        if snapshot is not None:
            # Remember the branching factor so a tree that is emptied and
            # re-populated keeps its configuration.
            self._empty_fanout = snapshot.fanout

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
        """Bulk-load from strictly increasing keys (the evaluation path).

        Stores the validated block; the layout is derived on first use.
        Bad input — unsorted or duplicate keys, the ``KEY_MAX`` sentinel,
        values that overflow the value dtype — is rejected here.
        """
        snap = Snapshot.from_sorted(keys, values, fanout=fanout, fill=fill)
        if not snap.n_keys:
            return cls.empty(snap.fanout, fill=fill,
                             search_config=search_config)
        return cls(snap, fill=fill, search_config=search_config)

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
    #: by :meth:`~repro.core.epoch.EpochManager._snapshot`: every read
    #: path consults snapshot-then-delta (last wins, tombstones mask to
    #: NOT_FOUND).  A tree carrying a delta is a read-only view —
    #: :meth:`apply_batch` refuses it.
    delta = None
    # NTG selections live in the module-level
    # :data:`repro.core.ntg.selection_cache` LRU (weakref-validated, keyed
    # by layout identity), so they are shared across tree facades over the
    # same snapshot and evicted naturally — no per-tree invalidation.

    # ------------------------------------------------------------ properties

    @property
    def snapshot(self) -> Optional[Snapshot]:
        """The current state (``None`` for an empty tree)."""
        return self._snap

    def _require_snapshot(self) -> Snapshot:
        if self._snap is None:
            raise EmptyTreeError("tree is empty; no snapshot exists")
        return self._snap

    @property
    def layout(self) -> HarmoniaLayout:
        """The snapshot's §3.1 layout, derived on first access."""
        return self._require_snapshot().layout

    @property
    def fanout(self) -> int:
        return self._snap.fanout if self._snap is not None else self._empty_fanout

    @property
    def height(self) -> int:
        """The layout's height, without deriving it (0 when empty)."""
        return self._snap.height if self._snap is not None else 0

    def __len__(self) -> int:
        base = self._snap.n_keys if self._snap is not None else 0
        return base + (self.delta.net if self.delta is not None else 0)

    def __contains__(self, key: int) -> bool:
        return self.search(key) is not None

    # --------------------------------------------------------------- queries

    def search(self, key: int) -> Optional[int]:
        """Single-key lookup: one binary search of the block."""
        key = ensure_scalar_key(key)
        if self.delta is not None:
            hit = self.delta.lookup(key)
            if hit is not None:
                tombstoned, value = hit
                return None if tombstoned else value
        if self._snap is None:
            return None
        keys, values = self._snap.packed_leaves()
        i = int(np.searchsorted(keys, key))
        if i < keys.size and int(keys[i]) == key:
            return int(values[i])
        return None

    def prepare_queries(
        self, queries: Sequence[int], config: Optional[SearchConfig] = None
    ) -> PreparedBatch:
        """Run the §4 front half: PSA reordering.  The NTG kernel
        configuration resolves lazily (see :class:`PreparedBatch`)."""
        cfg = config or self.search_config
        snap = self._require_snapshot()
        q = ensure_key_array(np.asarray(queries), "queries")

        if cfg.use_psa:
            # Equation 2's B is the *effective* key-space width: sorting
            # bits above the data's range would order nothing, so the sort
            # window is anchored at the top of the stored key range.
            space_bits = snap.key_space_bits()
            if cfg.psa_bits is not None:
                psa = prepare_batch(
                    q, bits=min(cfg.psa_bits, space_bits), key_bits=space_bits
                )
            else:
                psa = prepare_batch(
                    q,
                    tree_size=max(snap.n_keys, 1),
                    keys_per_cacheline=cfg.keys_per_cacheline,
                    key_bits=space_bits,
                )
        else:
            psa = identity_batch(q)

        prepared = PreparedBatch(psa, snap, cfg)
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
        This path always runs the per-query broadcast traversal of the
        layout (deriving it) and is kept as the oracle;
        :meth:`search_many` is the fast engine path.
        """
        cfg = config or self.search_config
        if self._snap is None:
            return self._no_snapshot(queries)
        q = ensure_key_array(np.asarray(queries), "queries")
        with obs.scoped(cfg.trace):
            prepared = self.prepare_queries(q, cfg)
            results = _search_batch(self._snap.layout, prepared.queries)
            out = results[prepared.psa.restore]
            if self.delta is not None:
                self.delta.overlay_values(q, out)
            return out

    def engine(self) -> BatchQueryEngine:
        """The lookup engine bound to the current snapshot.

        Cached: rebuilt only when the snapshot is replaced (batch
        update), so :attr:`last_engine_stats` reads the latest batch.
        The packed leaf block is the snapshot itself, shared by every
        engine over it.
        """
        snap = self._require_snapshot()
        eng = self._engine
        if eng is None or eng.snapshot is not snap:
            eng = BatchQueryEngine(snap)
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

        Thread-safe: any number of threads may call it on one tree (or
        one pinned view); each call owns its buffers and shares only the
        snapshot's immutable packed leaf block.  The whole batch runs as
        one lookup — PSA's permutation and the output are batch-sized
        either way.
        """
        if self._snap is None:
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
        """A point read on a tree with no snapshot: every key misses the
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
    ) -> np.ndarray:
        """Batched lookup for an **ascending** query batch — the dual-walk
        probe path :func:`repro.join.merge_join` drives.

        Sorted input makes PSA a no-op, so this skips ``prepare_queries``
        entirely and runs
        :meth:`~repro.core.engine.BatchQueryEngine.execute_hinted`, whose
        work model is the dual walk that prunes subtrees no probe lands
        in.  Values are bit-identical to :meth:`search_many` on the same
        batch (the delta overlay, when pinned, applies the same way);
        ascending order is validated by the hinted engine.
        """
        if self._snap is None:
            return self._no_snapshot(queries)
        cfg = config or self.search_config
        with obs.scoped(cfg.trace):
            return self.engine().execute_hinted(
                queries, overlay=self._overlay())

    def range_search(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """All pairs with ``lo <= key <= hi`` (keys ascending)."""
        return self.range_search_batch([lo], [hi])[0]

    def range_search_batch(
        self, los: Sequence[int], his: Sequence[int]
    ) -> RangeBatch:
        """Batch of range scans as one :class:`~repro.core.search.RangeBatch`
        aligned with the inputs: two binary searches of the block for all
        bounds, then one gather of every window's slice.  A pinned delta
        is spliced into the windows in the same pass
        (:func:`~repro.core.search.range_search_batch`: last wins,
        tombstones dropped)."""
        return _range_search_batch(
            self._snap, los, his,
            delta=None if self.delta is None else self.delta.run)

    def items(self, start: Optional[int] = None):
        """Cursor over ``(key, value)`` pairs in key order.

        ``start`` positions the cursor at the first key ``>= start``.
        Walks the block a slice at a time, so a partial scan touches only
        what it crosses.  The snapshot is pinned at call time (later
        batches do not affect a live cursor).  With a pinned delta
        overlay the merged visible contents are materialized up front
        (correctness over laziness on that path).
        """
        if self.delta is not None:
            keys, values = self._merged_items()
        elif self._snap is None:
            return iter(())
        else:
            keys, values = self._snap.packed_leaves()
        first = 0 if start is None else int(
            np.searchsorted(keys, start, side="left"))
        return _iter_pairs(keys, values, first)

    def keys(self, start: Optional[int] = None):
        """Cursor over keys in order (see :meth:`items`)."""
        return (key for key, _ in self.items(start))

    def _merged_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """Visible sorted ``(keys, values)`` arrays: the block overlaid
        with the pinned delta (last wins, tombstones dropped)."""
        if self._snap is None:
            base_k = np.empty(0, dtype=np.int64)
            base_v = np.empty(0, dtype=np.int64)
        else:
            base_k, base_v = self._snap.packed_leaves()
        if self.delta is None:
            return base_k, base_v
        return self.delta.merge_items(base_k, base_v)

    # --------------------------------------------------------------- updates

    def apply_batch(self, ops: Sequence[Operation]) -> BatchResult:
        """Apply one update batch (§3.2.2).

        Resolves every op against the block — one ``searchsorted``
        existence probe, then each key's ops in arrival order — and
        merges the resolved run into the next block (the result's
        ``apply`` / ``movement`` phases); no layout is built.  Returns
        the accounting record; the tree's snapshot is replaced atomically
        at the end (phase semantics — queries issued after this call see
        the new contents).  The outgoing snapshot is never written, so
        readers still pinned to it keep a consistent state.  The per-op
        Algorithm 1 reference is :func:`repro.core.update.scalar_apply`.
        """
        if self.delta is not None:
            raise ConfigError(
                "this tree is a pinned snapshot+delta read view; apply "
                "updates through its EpochManager, not the view"
            )
        t0 = time.perf_counter()
        base = self._snap
        run, result = resolve_batch(
            ops, lambda ukeys: (np.zeros(ukeys.size, dtype=bool)
                                if base is None
                                else contains_batch(base, ukeys)))
        t1 = time.perf_counter()
        with result.timer.phase("movement"):
            self._snap = Snapshot.merge(base, run, self.fanout, self._fill)
        rec = obs.active
        if rec.enabled:
            t2 = time.perf_counter()
            n = len(ops)
            rec.counter("update.batches")
            rec.counter("update.ops", n)
            rec.span_at("update.resolve", t0, t1, cat="update", ops=n)
            rec.span_at("update.merge", t1, t2, cat="update", entries=run.n)
            rec.span_at("update.apply", t0, t2, cat="update", ops=n)
            if t2 > t0:
                rec.gauge("update.throughput_ops", n / (t2 - t0))
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
        """Validate the snapshot's layout (deriving it) and that the
        layout holds exactly the block."""
        snap = self._snap
        if snap is None:
            return
        layout = snap.layout
        layout.check_invariants()
        keys, values = layout.packed_leaves()
        if not (np.array_equal(keys, snap.keys)
                and np.array_equal(values, snap.values)):
            raise InvariantViolation("layout leaves differ from the block")

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        if self._snap is None:
            return f"HarmoniaTree(empty, fanout={self._empty_fanout})"
        return f"HarmoniaTree(fanout={self.fanout}, keys={len(self)})"


__all__ = ["HarmoniaTree", "PreparedBatch"]
