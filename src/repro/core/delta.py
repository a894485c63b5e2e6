"""Mergeable delta index: the write-side absorber of the snapshot-epoch
read path (docs/epochs.md).

A flush in concurrent mode does *not* write the base snapshot.  It resolves the
batch against the currently *visible* state (base snapshot + published
delta) into one immutable sorted :class:`DeltaRun` of upserts and
tombstones, and folds that run into the visible delta — one collapsed,
sorted entry set — with one two-way last-wins merge.  The new set is
visible to readers the moment it is published; the merge into the base
block is deferred to a background drain that folds the pinned set into
snapshot N+1 while reads continue against N.

Readers pin a :class:`DeltaView` of the visible set together with the
base layout and overlay it on every read path:

* point lookups: one filter lookup plus one ``np.searchsorted``; hit
  positions overwrite the base values, tombstone hits become
  :data:`~repro.constants.NOT_FOUND`;
* range scans: one merge over the whole batch folds each window's delta
  slice over its base window, tombstones dropped;
* full iteration / dumps: one last-wins merge of the base items with
  the delta.

Cost model: with ``d`` visible entries, publishing an ``r``-entry run
costs one :func:`~repro.core.merge.merge_last_wins`, O(d + r log d) (a
second one while a drain is in flight), on the writer's thread and
outside the publish lock.  A pin takes the published set as is, and the
overlay adds O(n + m log d) to an ``n``-query batch of which ``m`` pass
the filter (skipped entirely when the delta is empty).  Nothing on the
read path depends on how many flushes built the set.  A flush that leaves ``d`` at or above the drain
threshold starts a drain, so ``d`` stays below the threshold plus what
is published while one drain runs.

Equivalence contract (hypothesis-pinned in
``tests/test_epoch_concurrent.py``): reads through snapshot + delta are
byte-identical to reads against a tree that applied every batch
synchronously — including the per-op success/failure accounting, which
:func:`resolve_batch` reproduces exactly (an op's outcome depends only
on its key's visible history, so resolution needs existence bits, not
the tree).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.constants import NOT_FOUND, VALUE_DTYPE
from repro.core.merge import merge_last_wins
from repro.core.search import RangeBatch, run_index
from repro.core.update import (
    K_DELETE,
    K_INSERT,
    K_UPDATE,
    KIND_CODE,
    BatchResult,
    Operation,
)


@dataclass(frozen=True)
class DeltaRun:
    """One immutable sorted entry set: unique keys with final values and
    tombstone flags, plus the visible-key-count change it causes."""

    keys: np.ndarray  # (n,) int64, strictly increasing
    values: np.ndarray  # (n,) VALUE_DTYPE
    tombstones: np.ndarray  # (n,) bool
    net: int  # visible keys gained (+) / lost (-)

    @property
    def n(self) -> int:
        return int(self.keys.size)


def _empty_run() -> DeltaRun:
    return DeltaRun(
        keys=np.empty(0, dtype=np.int64),
        values=np.empty(0, dtype=VALUE_DTYPE),
        tombstones=np.empty(0, dtype=bool),
        net=0,
    )


def fold_run(older: DeltaRun, newer: DeltaRun) -> DeltaRun:
    """The entry set of ``older`` then ``newer`` published in order: one
    two-way last-wins merge (the newer entry wins a shared key).  Nets
    add, since ``newer`` was resolved against a state including
    ``older``."""
    if not newer.n:
        return older
    if not older.n:
        return newer
    keys, (values, tombs) = merge_last_wins(
        older.keys, (older.values, older.tombstones),
        newer.keys, (newer.values, newer.tombstones),
    )
    return DeltaRun(keys=keys, values=values, tombstones=tombs,
                    net=older.net + newer.net)


class DeltaView:
    """Immutable reader-side view of one published entry set.

    Built once per publish (by the writer, outside the publish lock) and
    shared by every pin until the next one: the sorted entries and their
    membership filter are ready-made, so a read pays only the probe.
    Every overlay helper is a pure function of the pinned set, so a view
    stays consistent however the live :class:`DeltaIndex` moves on.
    """

    __slots__ = ("run", "_filter", "_reads")

    def __init__(self, run: DeltaRun) -> None:
        self.run = run
        # What a point read of each entry returns (NOT_FOUND: tombstone).
        self._reads = np.where(run.tombstones, NOT_FOUND, run.values)
        # One-hash Bloom filter over the low bits of the keys: ≥ 32 slots
        # per entry (up to 32k entries; capped at 1 MiB of bool slots) →
        # ~3% false-positive rate, each false positive costing the read
        # one binary search.
        bits = max(10, min(20, int(32 * run.n - 1).bit_length()))
        filt = np.zeros(1 << bits, dtype=bool)
        filt[run.keys & (filt.size - 1)] = True
        self._filter = filt

    @property
    def runs(self) -> Tuple[DeltaRun, ...]:
        """The pinned entry set as a one-run tuple."""
        return (self.run,)

    @property
    def net(self) -> int:
        return self.run.net

    # ------------------------------------------------------------- lookups

    def _probe(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(query indices, entry positions)`` of the ``keys`` the delta
        holds.

        The filter pre-pass keeps the ``searchsorted`` probe set small:
        most queries miss the delta — typically a few percent of the
        base — so only the candidates it passes are probed.  False
        positives are resolved by the probe; false negatives are
        impossible (same low-bits hash on both sides).
        """
        dk = self.run.keys
        filt = self._filter
        cand = np.flatnonzero(filt[keys & (filt.size - 1)])
        if not cand.size:
            return cand, cand
        qc = keys[cand]
        pos = np.searchsorted(dk, qc, side="left")
        np.minimum(pos, dk.size - 1, out=pos)
        hit = dk[pos] == qc
        return cand[hit], pos[hit]

    def overlay_values(self, keys: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Overlay the delta onto base lookup results, in place.

        ``out[i]`` holds the base value for ``keys[i]`` (``NOT_FOUND``
        when absent); after the overlay it holds the *visible* value —
        a tombstone hit masks to ``NOT_FOUND``.  A span + counter is
        recorded when obs is on.
        """
        rec = obs.active
        if rec.enabled:
            t0 = time.perf_counter()
        if self.run.n:
            qi, pos = self._probe(keys)
            out[qi] = self._reads[pos]
        if rec.enabled:
            t1 = time.perf_counter()
            rec.counter("delta.overlay_keys", int(keys.size))
            rec.span_at("delta.overlay", t0, t1, cat="delta",
                        n=int(keys.size), entries=self.run.n)
        return out

    def overlay_exists(self, keys: np.ndarray, exists: np.ndarray) -> np.ndarray:
        """Overlay visible-existence bits (same probe as
        :meth:`overlay_values`, used by batch resolution)."""
        if self.run.n:
            qi, pos = self._probe(keys)
            exists[qi] = ~self.run.tombstones[pos]
        return exists

    def lookup(self, key: int) -> Optional[Tuple[bool, int]]:
        """Scalar probe: ``(tombstoned, value)`` of the delta's entry for
        ``key``, or ``None`` when the delta does not hold it."""
        r = self.run
        pos = int(np.searchsorted(r.keys, key, side="left"))
        if pos < r.n and int(r.keys[pos]) == key:
            return bool(r.tombstones[pos]), int(r.values[pos])
        return None

    # -------------------------------------------------------------- merges

    def merge_items(
        self, base_keys: np.ndarray, base_values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Visible sorted contents: base items overlaid with the delta
        (last wins), tombstones dropped.

        Both sides are sorted and unique, so this is one two-way
        :func:`~repro.core.merge.merge_last_wins` — O(n + d log n), no
        argsort of the full contents — the same merge a drain runs.
        """
        r = self.run
        keys, (values,) = merge_last_wins(
            base_keys, (base_values,), r.keys, (r.values,),
            new_keep=~r.tombstones,
        )
        return keys, values

    def merge_ranges(
        self, base: RangeBatch, los: np.ndarray, his: np.ndarray
    ) -> RangeBatch:
        """Merge the delta's ``[lo, hi]`` slices over a whole batch of
        base range windows at once (last wins, tombstones dropped).

        Every entry is tagged with its query index; one stable sort on
        ``(query, key)`` puts each delta entry right after the base entry
        it replaces, so keeping the last of each ``(query, key)`` run is
        the last-wins rule.  ``los``/``his`` are the validated bounds
        ``base`` was scanned with.
        """
        r = self.run
        n = los.size
        a = np.searchsorted(r.keys, los, side="left")
        b = np.searchsorted(r.keys, his, side="right")
        dcounts = np.maximum(b - a, 0)  # lo > hi: no delta entries
        didx = run_index(a, dcounts)
        if not didx.size:
            return base
        queries = np.arange(n)
        qid = np.concatenate([np.repeat(queries, base.counts),
                              np.repeat(queries, dcounts)])
        keys = np.concatenate([base.keys, r.keys[didx]])
        order = np.lexsort((keys, qid))  # stable: base before delta
        qid, keys = qid[order], keys[order]
        keep = np.ones(keys.size, dtype=bool)
        keep[:-1] = (qid[1:] != qid[:-1]) | (keys[1:] != keys[:-1])
        tombs = np.concatenate([np.zeros(base.keys.size, dtype=bool),
                                r.tombstones[didx]])
        keep &= ~tombs[order]
        values = np.concatenate([base.values, r.values[didx]])[order]
        return RangeBatch.from_counts(np.bincount(qid[keep], minlength=n),
                                      keys[keep], values[keep])


class DeltaFold(NamedTuple):
    """A run folded into the index state as it stood when read; see
    :meth:`DeltaIndex.fold`."""

    run: DeltaRun
    based_on: Tuple[DeltaRun, Optional[DeltaRun]]  # (visible, since)
    visible: DeltaRun
    since: Optional[DeltaRun]
    view: Optional[DeltaView]


class DeltaIndex:
    """The writer-side state of the delta: the visible entry set, kept
    collapsed at publish time.

    While a drain is in flight the index also keeps ``since``: the runs
    published after the drain pinned the visible set, folded the same
    way.  The drain folds exactly the pinned set into the new base, so
    its publish makes ``since`` the visible set.

    NOT thread-safe on its own — :class:`~repro.core.epoch.EpochManager`
    serializes writers under its write lock and calls every method but
    :meth:`fold` under its publish lock.  Entry sets are immutable, so a
    :meth:`view` handed to a reader never changes underneath it.
    """

    def __init__(self) -> None:
        self._visible = _empty_run()
        self._since: Optional[DeltaRun] = None  # None: no drain in flight
        self._flushes = 0  # undrained flushes
        self._since_flushes = 0
        self._view: Optional[DeltaView] = None

    # ------------------------------------------------------------- queries

    @property
    def n_runs(self) -> int:
        """Flushes published and not yet drained."""
        return self._flushes

    @property
    def size(self) -> int:
        """Visible delta entries."""
        return self._visible.n

    def view(self) -> Optional[DeltaView]:
        """The current immutable view (``None`` when empty), shared by
        every pin until the next publish."""
        if not self._visible.n:
            return None
        if self._view is None:
            self._view = DeltaView(self._visible)
        return self._view

    # ------------------------------------------------------------ mutation

    def fold(self, run: DeltaRun) -> DeltaFold:
        """Fold ``run`` into the visible set (and into ``since`` while a
        drain is in flight), building the new view — the merge work of a
        publish.  Writes nothing, so the writer runs it outside the
        publish lock; :meth:`publish` installs it after checking, by
        identity, the sets this fold read — so a drain that moves the
        state meanwhile (even between the two reads) is caught there."""
        visible, since = self._visible, self._since
        new_visible = fold_run(visible, run)
        return DeltaFold(
            run=run,
            based_on=(visible, since),
            visible=new_visible,
            since=None if since is None else fold_run(since, run),
            view=DeltaView(new_visible) if run.n else None,
        )

    def publish(self, f: DeltaFold) -> None:
        """Install a :meth:`fold`.  Only a drain moves the state between
        the two calls (writers are serialized); whatever part of the fold
        it invalidated is redone here."""
        if not f.run.n:
            return
        visible, since = f.based_on
        if self._visible is visible:
            self._visible, self._view = f.visible, f.view
        elif self._visible is since:
            # The drain that was in flight published: what it left
            # visible is exactly the since-pin set this fold extended.
            self._visible, self._view = f.since, None
        else:  # a whole drain ran inside the fold: redo the merge
            self._visible = fold_run(self._visible, f.run)
            self._view = None
        self._flushes += 1
        if self._since is not None:
            self._since = (f.since if self._since is since
                           else fold_run(self._since, f.run))
            self._since_flushes += 1

    def pin_drain(self) -> Optional[DeltaRun]:
        """Pin the visible set for a drain (``None`` when empty) and start
        collecting later runs in ``since``."""
        if not self._visible.n:
            return None
        self._since = _empty_run()
        self._since_flushes = 0
        return self._visible

    def finish_drain(self) -> None:
        """The drain published a base holding the pinned set: what was
        published since becomes the visible set."""
        self._visible = self._since
        self._flushes = self._since_flushes
        self._since = None
        self._view = None

    def abort_drain(self) -> None:
        """The drain failed: the visible set still holds everything."""
        self._since = None


# --------------------------------------------------------------------------
# Batch resolution
# --------------------------------------------------------------------------

def resolve_batch(
    ops: Sequence[Operation],
    exists_fn: Callable[[np.ndarray], np.ndarray],
) -> Tuple[DeltaRun, BatchResult]:
    """Resolve one update batch against the visible state into a delta run.

    ``exists_fn(unique_keys)`` must return the visible-existence bits
    (base snapshot overlaid with the already-published delta).  The
    per-op semantics are the scalar reference's, replayed per key in
    arrival order: insert fails when the key is visible, update/delete
    fail when it is not — so the returned :class:`BatchResult` counts
    match a synchronous flush exactly.  Keys touched by a single op are
    resolved fully vectorized; multi-op keys (rare in real batches) fall
    back to a per-key Python replay.

    The whole resolution is timed as the result's ``apply`` phase.
    Structural counters (``split_leaves`` …) stay zero: the sorted merge
    that applies the run (:meth:`~repro.core.snapshot.Snapshot.merge`)
    has no leaves to split.
    """
    result = BatchResult()
    n = len(ops)
    empty = _empty_run()
    if n == 0:
        return empty, result

    with result.timer.phase("apply"):
        code = KIND_CODE
        kinds = np.fromiter(
            (code[op.kind] for op in ops), dtype=np.int8, count=n
        )
        keys = np.fromiter((op.key for op in ops), dtype=np.int64, count=n)
        values = np.fromiter(
            (op.value for op in ops), dtype=VALUE_DTYPE, count=n
        )
        order = np.argsort(keys, kind="stable")
        sk = keys[order]
        skinds = kinds[order]
        svals = values[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sk[1:] != sk[:-1]))
        )
        ukeys = sk[starts]
        counts = np.diff(np.concatenate((starts, [n])))
        exists0 = np.asarray(exists_fn(ukeys), dtype=bool)

    with result.timer.phase("apply"):
        final_exists = exists0.copy()
        # Zero-filled, not empty: tombstone entries never read their value
        # but the arrays land in published runs — keep them deterministic.
        final_vals = np.zeros(ukeys.size, dtype=VALUE_DTYPE)
        changed = np.zeros(ukeys.size, dtype=bool)

        single = counts == 1
        if single.any():
            si = starts[single]
            sk1 = skinds[si]
            sv1 = svals[si]
            se0 = exists0[single]
            ins = sk1 == K_INSERT
            upd = sk1 == K_UPDATE
            dele = sk1 == K_DELETE
            eff_ins = ins & ~se0
            eff_upd = upd & se0
            eff_del = dele & se0
            result.inserted += int(np.count_nonzero(eff_ins))
            result.updated += int(np.count_nonzero(eff_upd))
            result.deleted += int(np.count_nonzero(eff_del))
            result.failed += int(
                np.count_nonzero(ins & se0)
                + np.count_nonzero(upd & ~se0)
                + np.count_nonzero(dele & ~se0)
            )
            s_changed = eff_ins | eff_upd | eff_del
            s_final = np.where(eff_ins, True, np.where(eff_del, False, se0))
            changed[single] = s_changed
            final_exists[single] = s_final
            idx_single = np.flatnonzero(single)
            wrote = eff_ins | eff_upd
            final_vals[idx_single[wrote]] = sv1[wrote]

        multi_groups = np.flatnonzero(~single)
        bounds = np.concatenate((starts, [n]))
        for g in multi_groups.tolist():
            s, e = int(bounds[g]), int(bounds[g + 1])
            exists = bool(exists0[g])
            val = 0
            group_changed = False
            for i in range(s, e):
                k = int(skinds[i])
                if k == K_INSERT:
                    if exists:
                        result.failed += 1
                    else:
                        exists = True
                        val = int(svals[i])
                        result.inserted += 1
                        group_changed = True
                elif k == K_UPDATE:
                    if exists:
                        val = int(svals[i])
                        result.updated += 1
                        group_changed = True
                    else:
                        result.failed += 1
                else:
                    if exists:
                        exists = False
                        result.deleted += 1
                        group_changed = True
                    else:
                        result.failed += 1
            changed[g] = group_changed
            final_exists[g] = exists
            final_vals[g] = val

        # A key that ends the batch absent *and* started it absent
        # (insert-then-delete within one batch) is a pure no-op on the
        # visible state — publishing a tombstone for it would be harmless
        # but wasteful, so mask it out.
        changed &= final_exists | exists0
        if not changed.any():
            return empty, result
        out_keys = ukeys[changed]
        out_vals = final_vals[changed]
        out_tombs = ~final_exists[changed]
        net = int(
            np.count_nonzero(final_exists[changed] & ~exists0[changed])
            - np.count_nonzero(~final_exists[changed] & exists0[changed])
        )
        run = DeltaRun(
            keys=out_keys, values=out_vals, tombstones=out_tombs, net=net
        )
    return run, result


__all__ = [
    "DeltaRun",
    "DeltaView",
    "DeltaIndex",
    "fold_run",
    "resolve_batch",
]
