"""Gapped batch-update executor (paper §3.2.2, batched host path).

:class:`~repro.core.update.BatchUpdater` applies one
:class:`~repro.core.update.Operation` at a time: a scalar root-to-leaf
traversal, one Algorithm 1 lock round-trip and a Python closure per op,
then a leaf-by-leaf movement rebuild over the whole tree.  It stays as
the Algorithm 1 reference.  The production executor,
:class:`GappedBatchUpdater` (``UpdateConfig(mode="gapped")``, the
default), works on leaf rows with pre-allocated slack (sentinel-padded
tails, per-leaf fill counts — see the gapped-leaves note in
:mod:`repro.core.layout`):

1. **plan** (:meth:`GappedBatchUpdater._window_plan`) — route every op to
   its leaf with one binary search over the cached per-leaf routing
   bounds (:meth:`~repro.core.layout.HarmoniaLayout.leaf_bounds`; valid
   across absorption because the internal region is immutable between
   epochs) and bucket the ops per ``(leaf, key)`` with a stable
   ``lexsort``, arrival order kept inside each bucket;
2. **apply** (:meth:`GappedBatchUpdater._apply`) — fold every bucket to
   the key's final presence and value in one NumPy pass and write the
   touched leaves' final content into a private working copy of the
   leaf rows; a leaf whose content outgrows its row is staged as flat
   arrays instead (the §3.2.2 split, deferred);
3. **movement** — demoted to a rare *compaction epoch*
   (:meth:`GappedBatchUpdater._compaction_epoch`): dirty runs re-chunked
   at the fill target in array operations, clean rows kept verbatim,
   the internal levels rebuilt by the shared vectorized assembler
   (:func:`~repro.core.update._assemble_layout`) — run only once staged
   overflow, the underflow/full watermark, or global occupancy demand
   it.

Oversized batches stream through these stages in fixed ``plan_window``
chunks.  The executor never mutates its input layout — readers keep
serving from the old snapshot until the swap — and hands the output
layout the derived arrays it already holds: its per-leaf fill counts and
its routing bounds (unchanged since the last compaction epoch, which
re-derives them).

The contract is *result* equivalence with the scalar reference
(identical accounting, query results and key/value content; the physical
layout differs by design), hypothesis-pinned in
``tests/test_core_gapped.py`` and ``tests/test_core_update_plan.py``.
Stages are instrumented with the ``update.*`` family of the
:mod:`repro.obs` catalogue (one ``update.plan/apply/movement`` span per
window plus batch counters) — see docs/observability.md.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.constants import KEY_DTYPE, KEY_MAX, NOT_FOUND, VALUE_DTYPE
from repro.core.layout import HarmoniaLayout
from repro.core.update import (
    DELETE,
    INSERT,
    UPDATE,
    BatchResult,
    Operation,
    _assemble_layout,
)

# Integer op-kind codes for the planner's numpy arrays.
K_INSERT, K_UPDATE, K_DELETE = 0, 1, 2
_KIND_CODE = {INSERT: K_INSERT, UPDATE: K_UPDATE, DELETE: K_DELETE}


def _leaf_runs(dirty: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, stops)`` of the maximal runs of ``True`` in ``dirty``."""
    d = np.concatenate(([False], dirty, [False]))
    edges = np.flatnonzero(d[1:] != d[:-1])
    return edges[::2], edges[1::2]


def _chunk_runs(
    totals: np.ndarray, target: int, minimum: int, maximum: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Leaf chunking of many runs at once: ``(sizes, n_rows)``.

    Run ``r`` of ``totals[r]`` keys is cut exactly as
    :func:`repro.core.fastbuild._chunk_sizes_fast` cuts it (``k`` chunks
    of ``target`` plus a one- or two-chunk tail; one chunk below
    ``2 * minimum``; none when empty) into ``n_rows[r]`` chunks, listed
    run after run in ``sizes``.
    """
    t = totals.astype(np.int64)
    k = np.maximum(0, (t - minimum) // target)
    tail = t - k * target
    small = t < 2 * minimum
    split = ~small & (tail > maximum)
    n_rows = np.where(t <= 0, 0, np.where(small, 1, k + 1 + split))
    sizes = np.full(int(n_rows.sum()), target, dtype=np.int64)
    last = np.cumsum(n_rows) - 1
    live = n_rows > 0
    one = live & small
    sizes[last[one]] = t[one]
    fit = live & ~small & ~split
    sizes[last[fit]] = tail[fit]
    two = live & split
    sizes[last[two] - 1] = tail[two] - minimum
    sizes[last[two]] = minimum
    return sizes, n_rows


# --------------------------------------------------------------------------
# Gapped executor — absorb in place, compact rarely
# --------------------------------------------------------------------------


class GappedBatchUpdater:
    """Applies batches against gapped leaf rows; movement is demoted to a
    rare compaction epoch.

    One instance per batch.  The input layout is never mutated: the leaf
    arrays are copied once up front (the internal region and prefix sum
    are *shared* — absorption never touches them), every window's ops
    land as vectorized in-place writes on the working copy, and only
    three conditions trigger a compaction epoch (the §3.2.2 movement
    plan + re-chunking at the fill target):

    * **hard** — a leaf's final content outgrew its row, so it was
      staged as flat arrays;
    * **watermark** — the fraction of leaves pending compaction
      (underflowed past the B+tree minimum, or packed full when the fill
      target leaves slack) crosses ``config.gap_watermark``;
    * **occupancy** — global leaf-slot occupancy falls below
      ``config.occupancy_low`` (delete-heavy drift).

    Between epochs leaves may legally sit under-full or even empty: a
    leaf's content is always a subset of its routing interval, so global
    leaf-key ordering, the packed-leaf block and range scans are
    unaffected (see the gapped-leaves note in :mod:`repro.core.layout`).
    Oversized batches stream through the planner in ``config.plan_window``
    chunks in arrival order, which keeps routing/scatter scratch bounded
    and lets an epoch in one window hand fresh slack to the next.

    Equivalence contract: identical *results* to the scalar reference —
    accounting (inserted/updated/deleted/failed), query answers, and
    logical key/value content — not byte-identical arrays (gaps change
    the physical layout by design).  ``n_threads`` is accepted for
    interface parity and ignored: every stage is NumPy passes.
    """

    def __init__(
        self,
        layout: HarmoniaLayout,
        fill: float = 0.7,
        config=None,
    ) -> None:
        from repro.core.config import UpdateConfig

        self.layout = layout
        self.fill = fill
        cfg = config or UpdateConfig(mode="gapped")
        self.watermark = cfg.gap_watermark
        self.occupancy_low = cfg.occupancy_low
        self.window = cfg.plan_window
        self.result = BatchResult()
        self.new_layout: Optional[HarmoniaLayout] = None
        self._fanout = layout.fanout
        self._slots = layout.slots
        self._min_leaf = (layout.fanout - 1 + 1) // 2
        target = max(
            self._min_leaf, min(self._slots, round(fill * self._slots))
        )
        self._target = target
        # A leaf counts as compaction-pending when packed to the brim only
        # if the fill target actually reserves slack (fill=1.0 layouts are
        # legitimately full everywhere).
        self._full_mark = self._slots if target < self._slots else self._slots + 1
        #: ``(leaves, counts, keys, values)`` of the leaves whose content
        #: outgrew their rows this window, flat in key order; consumed by
        #: the window's compaction epoch.
        self._staged: Optional[tuple] = None
        # Stats surfaced via update.* metrics.
        self.absorbed_ops = 0
        self.overflow_ops = 0
        self.movement_epochs = 0
        self.windows = 0
        self.dirty_total = 0

    # ------------------------------------------------------------------ run

    def run(self, ops: Sequence[Operation], n_threads: int = 1) -> BatchResult:
        rec = obs.active
        timer = self.result.timer
        t0 = time.perf_counter()
        n = len(ops)
        code = _KIND_CODE
        kinds = np.fromiter(
            (code[op.kind] for op in ops), dtype=np.int8, count=n
        )
        keys = np.fromiter((op.key for op in ops), dtype=KEY_DTYPE, count=n)
        values = np.fromiter(
            (op.value for op in ops), dtype=VALUE_DTYPE, count=n
        )

        if n == 0:
            # Nothing to absorb and nothing moved: the snapshot stands.
            self.new_layout = self.layout
            return self.result

        self._adopt(self.layout, copy=True)
        for lo in range(0, n, self.window):
            hi = min(lo + self.window, n)
            self.windows += 1
            wkinds, wkeys, wvals = kinds[lo:hi], keys[lo:hi], values[lo:hi]
            if self._kr is None:
                self._window_bootstrap(wkinds, wkeys, wvals)
                continue
            absorbed, overflow = self.absorbed_ops, self.overflow_ops
            epochs, dirty = self.movement_epochs, self.dirty_total
            ta = time.perf_counter()
            with timer.phase("plan"):
                plan = self._window_plan(wkeys)
            tb = time.perf_counter()
            with timer.phase("apply"):
                self._apply(plan, wkinds, wvals)
            tc = time.perf_counter()
            with timer.phase("movement"):
                if self._epoch_due():
                    self._compaction_epoch()
            if rec.enabled:
                td = time.perf_counter()
                rec.span_at("update.plan", ta, tb, cat="update",
                            ops=hi - lo)
                rec.span_at("update.apply", tb, tc, cat="update",
                            fast_ops=self.absorbed_ops - absorbed,
                            replay_ops=self.overflow_ops - overflow)
                rec.span_at("update.movement", tc, td, cat="update",
                            dirty_leaves=self.dirty_total - dirty,
                            epochs=self.movement_epochs - epochs)

        if self._kr is None:
            self.new_layout = None  # every key was deleted, as in scalar
        else:
            new = HarmoniaLayout(
                fanout=self._fanout,
                height=self._height,
                key_region=self._kr,
                prefix_sum=self._prefix,
                leaf_values=self._lv,
                level_starts=self._lstarts,
                n_keys=self._n_keys,
                leaf_counts=self._counts,
            )
            # The working internal region is the one the bounds were
            # derived from (absorption never writes it; an epoch or a
            # bootstrap re-derived them on adoption).
            new.install_derived(leaf_bounds=self._bounds)
            self.new_layout = new
        t1 = time.perf_counter()

        if rec.enabled:
            res = self.result
            rec.counter("update.batches")
            rec.counter("update.ops", n)
            rec.counter("update.inplace_ops", self.absorbed_ops)
            rec.counter("update.absorbed_ops", self.absorbed_ops)
            rec.counter("update.replay_ops", self.overflow_ops)
            rec.counter("update.windows", self.windows)
            rec.counter("update.movement_epochs", self.movement_epochs)
            rec.counter("update.split_leaves", res.split_leaves)
            rec.counter("update.dirty_leaves", self.dirty_total)
            rec.counter("update.moved_leaves", res.moved_clean)
            rec.counter("update.rebuilt_leaves", res.rebuilt_dirty)
            rec.gauge("update.gap_absorption", self.absorbed_ops / n)
            if self._kr is not None:
                counts = self._counts
                occ = self._n_keys / max(counts.size * self._slots, 1)
                rec.gauge("layout.occupancy", occ)
                rec.gauge(
                    "layout.compaction_pending",
                    int(np.count_nonzero(self._pending(counts)))
                    / max(counts.size, 1),
                )
            wall = t1 - t0
            if wall > 0.0:
                rec.gauge("update.throughput_ops", n / wall)
        return self.result

    # ------------------------------------------------------- working state

    def _adopt(self, layout: HarmoniaLayout, copy: bool) -> None:
        """Load the working arrays from a layout (copying when the layout
        is the published input snapshot; epoch outputs are already ours)."""
        self._kr = layout.key_region.copy() if copy else layout.key_region
        self._lv = layout.leaf_values.copy() if copy else layout.leaf_values
        self._leaf = self._kr[layout.leaf_start :]
        self._counts = layout.leaf_key_counts()
        self._n_keys = int(layout.n_keys)
        self._bounds = layout.leaf_bounds()
        self._prefix = layout.prefix_sum
        self._lstarts = layout.level_starts
        self._height = layout.height

    # ----------------------------------------------------------------- plan

    def _window_plan(self, wkeys: np.ndarray):
        """Route one window via the cached bounds and bucket it per
        ``(leaf, key)``.

        Returns ``(srt, ustart, uleaf, ukey)``: ``srt`` orders the
        window's ops by leaf, then key, then arrival (``np.lexsort`` is
        stable); bucket ``b`` is ``srt[ustart[b]:ustart[b + 1]]`` — every
        op on key ``ukey[b]``, in arrival order — and routes to leaf
        ``uleaf[b]``.
        """
        leaf = np.searchsorted(self._bounds, wkeys, side="right") - 1
        srt = np.lexsort((wkeys, leaf))
        sl = leaf[srt]
        sk = wkeys[srt]
        ustart = np.flatnonzero(
            np.concatenate(([True], (sl[1:] != sl[:-1]) | (sk[1:] != sk[:-1])))
        )
        return srt, ustart, sl[ustart], sk[ustart]

    # ---------------------------------------------------------------- apply

    def _apply(self, plan, wkinds: np.ndarray, wvals: np.ndarray) -> None:
        """Fold the window into the working rows, one NumPy pass.

        Single-op keys (the overwhelming majority) resolve fully
        vectorized from the key's initial presence; multi-op chains fold
        in a small Python loop over their ops.  The fold yields, per
        distinct key: its final presence, its final value (when written)
        and the per-kind success counts — *logical* semantics, identical
        to the scalar reference because an op's outcome depends only on
        its own key's membership at that point, never on row capacity.
        Value overwrites scatter flat; leaves whose membership changed
        get their final content by one concatenate + lexsort, written as
        canonical gapped rows (sorted keys, sentinel tail) when it fits
        the row.  A leaf whose content outgrows its row is *staged*: its
        final content is kept as flat arrays for the compaction epoch
        that this forces at the end of the window (the §3.2.2 split,
        deferred and batched).
        """
        srt, ustart, uleaf, ukey = plan
        m = srt.size
        slots = self._slots
        D = wkinds[srt]
        V = wvals[srt]
        ulen = np.diff(np.concatenate((ustart, [m])))
        u = ustart.size

        rows = self._leaf[uleaf]
        pos = np.sum(rows < ukey[:, None], axis=1)
        clamped = np.minimum(pos, slots - 1)
        present0 = rows[np.arange(u), clamped] == ukey

        final_present = present0.copy()
        wrote = np.zeros(u, dtype=bool)
        write_val = np.zeros(u, dtype=VALUE_DTYPE)

        res = self.result
        single = ulen == 1
        if np.any(single):
            sk = D[ustart[single]]
            sv = V[ustart[single]]
            p0 = present0[single]
            is_i = sk == K_INSERT
            is_u = sk == K_UPDATE
            is_d = sk == K_DELETE
            ok = np.where(is_i, ~p0, p0)
            res.inserted += int(np.count_nonzero(is_i & ok))
            res.updated += int(np.count_nonzero(is_u & ok))
            res.deleted += int(np.count_nonzero(is_d & ok))
            res.failed += int(np.count_nonzero(~ok))
            # Inserts end present either way (a failed insert means the
            # key was already there); deletes end absent either way.
            final_present[single] = np.where(
                is_i, True, np.where(is_d, False, p0)
            )
            wrote[single] = ok & ~is_d
            write_val[single] = np.where(ok & ~is_d, sv, 0)

        for t in np.flatnonzero(~single).tolist():
            a = int(ustart[t])
            b = a + int(ulen[t])
            p = bool(present0[t])
            w = False
            val = 0
            for j in range(a, b):
                kind = int(D[j])
                if kind == K_UPDATE:
                    if p:
                        res.updated += 1
                        val = int(V[j])
                        w = True
                    else:
                        res.failed += 1
                elif kind == K_INSERT:
                    if p:
                        res.failed += 1
                    else:
                        res.inserted += 1
                        p = True
                        val = int(V[j])
                        w = True
                else:  # K_DELETE
                    if p:
                        res.deleted += 1
                        p = False
                        w = False
                    else:
                        res.failed += 1
            final_present[t] = p
            wrote[t] = w
            write_val[t] = val

        # 1) Value overwrites on keys that stay put: one flat scatter.
        vw = present0 & final_present & wrote
        if np.any(vw):
            self._lv[uleaf[vw], pos[vw]] = write_val[vw]

        # 2) Membership changes: final content of the touched leaves.
        add = ~present0 & final_present
        rem = present0 & ~final_present
        if not (np.any(add) or np.any(rem)):
            self.absorbed_ops += m
            return
        touched = np.union1d(uleaf[add], uleaf[rem])
        R = self._leaf[touched]
        Vv = self._lv[touched]
        drop = np.zeros(R.shape, dtype=bool)
        drop[np.searchsorted(touched, uleaf[rem]), pos[rem]] = True
        keep = (R != KEY_MAX) & ~drop
        kept_row, _ = np.nonzero(keep)
        flat_row = np.concatenate(
            (kept_row, np.searchsorted(touched, uleaf[add]))
        )
        flat_key = np.concatenate((R[keep], ukey[add]))
        flat_val = np.concatenate((Vv[keep], write_val[add]))
        o = np.lexsort((flat_key, flat_row))
        flat_row, flat_key, flat_val = flat_row[o], flat_key[o], flat_val[o]
        cnt = np.bincount(flat_row, minlength=touched.size).astype(np.int64)
        seg = np.zeros(touched.size, dtype=np.int64)
        np.cumsum(cnt[:-1], out=seg[1:])
        col = np.arange(flat_row.size, dtype=np.int64) - seg[flat_row]
        fits = cnt <= slots
        on_row = fits[flat_row]
        rank = np.cumsum(fits) - 1
        newR = np.full((int(np.count_nonzero(fits)), slots), KEY_MAX,
                       dtype=KEY_DTYPE)
        newV = np.full(newR.shape, NOT_FOUND, dtype=VALUE_DTYPE)
        newR[rank[flat_row[on_row]], col[on_row]] = flat_key[on_row]
        newV[rank[flat_row[on_row]], col[on_row]] = flat_val[on_row]
        self._leaf[touched[fits]] = newR
        self._lv[touched[fits]] = newV
        # Staged leaves carry their staged count, which marks them
        # pending (> slots) for the epoch.
        self._counts[touched] = cnt
        self._n_keys += int(np.count_nonzero(add)) - int(
            np.count_nonzero(rem)
        )
        over = ~fits
        if np.any(over):
            self._staged = (touched[over], cnt[over],
                            flat_key[~on_row], flat_val[~on_row])
            res.split_leaves += int(np.count_nonzero(over))
            n_over = int(ulen[np.isin(uleaf, touched[over])].sum())
            self.overflow_ops += n_over
            self.absorbed_ops += m - n_over
        else:
            self.absorbed_ops += m

    # ------------------------------------------------------------ epochs

    def _pending(self, counts: np.ndarray) -> np.ndarray:
        """Leaves enqueued in the compaction set: below the B+tree minimum
        or packed to the brim (single-leaf trees are exempt from the
        minimum, as everywhere else)."""
        pending = counts >= self._full_mark
        if counts.size > 1:
            pending = pending | (counts < self._min_leaf)
        return pending

    def _epoch_due(self) -> bool:
        if self._staged is not None:
            return True  # hard trigger: staged overflow content
        if self._n_keys == 0:
            return True
        counts = self._counts
        n_leaves = counts.size
        frac = int(np.count_nonzero(self._pending(counts))) / n_leaves
        if frac > self.watermark:
            return True
        if n_leaves > 1:
            occ = self._n_keys / (n_leaves * self._slots)
            if occ < self.occupancy_low:
                return True
        return False

    def _compaction_epoch(self) -> None:
        """The demoted §3.2.2 movement pass, in array operations.

        The dirty leaves (the compaction set, staged overflow leaves
        included) form maximal runs; a run holding fewer keys than the
        B+tree minimum absorbs its next clean neighbour (the previous
        one at the right edge) until it can be chunked legally.  Each
        run's content is re-chunked at the fill target (empty runs
        vanish), clean leaves keep their rows verbatim, and the shared
        assembler rebuilds the internal region.  Adopts the new arrays
        as the working state — they are freshly allocated, so later
        windows absorb into them in place without another copy.
        """
        self.movement_epochs += 1
        staged, self._staged = self._staged, None
        if self._n_keys == 0:
            # Every key deleted: no layout, as in the scalar path; later
            # windows bootstrap a fresh one.
            self._kr = None
            return
        counts = self._counts
        n = counts.size
        min_leaf = self._min_leaf
        slots = self._slots
        dirty = self._pending(counts)
        self.dirty_total += int(np.count_nonzero(dirty))
        res = self.result
        if n > 1:
            res.underflow_leaves += int(np.count_nonzero(counts < min_leaf))

        csum = np.concatenate(([0], np.cumsum(counts)))
        while True:
            starts, stops = _leaf_runs(dirty)
            totals = csum[stops] - csum[starts]
            small = (totals > 0) & (totals < min_leaf) & (stops - starts < n)
            if not np.any(small):
                break
            right = stops[small] < n
            dirty[stops[small][right]] = True
            dirty[starts[small][~right] - 1] = True

        sizes, n_rows = _chunk_runs(totals, self._target, min_leaf, slots)
        rows_per_leaf = (~dirty).astype(np.int64)
        rows_per_leaf[starts] = n_rows
        dst = np.cumsum(rows_per_leaf) - rows_per_leaf
        n_new = int(rows_per_leaf.sum())
        leaf_keys = np.full((n_new, slots), KEY_MAX, dtype=KEY_DTYPE)
        leaf_vals = np.full((n_new, slots), NOT_FOUND, dtype=VALUE_DTYPE)
        new_counts = np.empty(n_new, dtype=np.int64)
        clean = np.flatnonzero(~dirty)
        leaf_keys[dst[clean]] = self._leaf[clean]
        leaf_vals[dst[clean]] = self._lv[clean]
        new_counts[dst[clean]] = counts[clean]

        # Rebuilt rows: the dirty content, flat in key order, cut run by
        # run at the chunk sizes.
        flat_k, flat_v = self._dirty_content(dirty, staged)
        run_first = np.cumsum(n_rows) - n_rows
        row_dst = (np.repeat(dst[starts] - run_first, n_rows)
                   + np.arange(sizes.size, dtype=np.int64))
        row = np.repeat(row_dst, sizes)
        col = (np.arange(flat_k.size, dtype=np.int64)
               - np.repeat(np.cumsum(sizes) - sizes, sizes))
        leaf_keys[row, col] = flat_k
        leaf_vals[row, col] = flat_v
        new_counts[row_dst] = sizes

        res.moved_clean += int(clean.size)
        res.rebuilt_dirty += int(sizes.size)
        new = _assemble_layout(
            self._fanout, leaf_keys, leaf_vals, self._n_keys, self.fill
        )
        new.leaf_counts = new_counts
        self._adopt(new, copy=False)

    def _dirty_content(self, dirty: np.ndarray, staged):
        """Keys and values of the dirty leaves, flat in key order: the
        row prefixes of the leaves that fit their rows, interleaved with
        the staged content of those that did not."""
        slots = self._slots
        dl = np.flatnonzero(dirty)
        plain = dl if staged is None else dl[~np.isin(dl, staged[0])]
        c = self._counts[plain]
        mask = np.arange(slots) < c[:, None]
        keys = self._leaf[plain][mask]
        vals = self._lv[plain][mask]
        if staged is None:
            return keys, vals
        s_leaf, s_cnt, s_keys, s_vals = staged
        owner = np.concatenate((np.repeat(plain, c), np.repeat(s_leaf, s_cnt)))
        o = np.argsort(owner, kind="stable")
        return (np.concatenate((keys, s_keys))[o],
                np.concatenate((vals, s_vals))[o])

    # ------------------------------------------------------------ bootstrap

    def _window_bootstrap(
        self,
        wkinds: np.ndarray,
        wkeys: np.ndarray,
        wvals: np.ndarray,
    ) -> None:
        """A window arriving after the tree emptied mid-batch: fold it
        through a plain dict (the empty tree has no structure to absorb
        into) and bulk-build a fresh gapped layout from the survivors —
        the same semantics as :meth:`HarmoniaTree._bootstrap_batch`."""
        res = self.result
        pairs: Dict[int, int] = {}
        kinds = wkinds.tolist()
        keys = wkeys.tolist()
        vals = wvals.tolist()
        for i in range(len(keys)):
            k = keys[i]
            kind = kinds[i]
            if kind == K_INSERT:
                if k in pairs:
                    res.failed += 1
                else:
                    pairs[k] = vals[i]
                    res.inserted += 1
            elif kind == K_UPDATE:
                if k in pairs:
                    pairs[k] = vals[i]
                    res.updated += 1
                else:
                    res.failed += 1
            else:
                if pairs.pop(k, None) is not None:
                    res.deleted += 1
                else:
                    res.failed += 1
        if pairs:
            sk = np.fromiter(sorted(pairs), dtype=KEY_DTYPE, count=len(pairs))
            sv = np.asarray([pairs[int(k)] for k in sk], dtype=VALUE_DTYPE)
            new = HarmoniaLayout.from_sorted(
                sk, sv, fanout=self._fanout, fill=self.fill
            )
            self._adopt(new, copy=False)
            self._n_keys = len(pairs)


__all__ = [
    "K_INSERT",
    "K_UPDATE",
    "K_DELETE",
    "GappedBatchUpdater",
]
