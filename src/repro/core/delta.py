"""Mergeable delta index: the write-side absorber of the snapshot-epoch
read path (docs/epochs.md).

An epoch flush does *not* write the base snapshot.  It resolves the
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
* range scans: the range kernel splices each window's delta entries
  into its block slice in the same gather
  (:func:`~repro.core.search.range_search_batch`), tombstones dropped;
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
byte-identical to reads against a tree that merged every batch as it
came (:meth:`~repro.core.tree.HarmoniaTree.apply_batch`) — including
the per-op success/failure accounting, which :func:`resolve_batch`
reproduces exactly (an op's outcome depends only on its key's visible
history, so resolution needs existence bits, not the tree).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.constants import NOT_FOUND, VALUE_DTYPE
from repro.core.merge import merge_last_wins
from repro.core.update import (
    K_DELETE,
    K_INSERT,
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
    per-op semantics are the scalar reference's, each key's ops taken in
    arrival order: insert fails when the key is visible, update/delete
    fail when it is not — so the returned :class:`BatchResult` counts
    match a merged write of the same batch exactly.

    The replay is vectorized over every op at once.  Whatever its
    outcome, an insert leaves its key present and a delete leaves it
    absent, while an update leaves existence alone; so a key exists
    before an op exactly when the last insert or delete of its key
    before that op was an insert — or, with none, when it existed at the
    start.  One ``np.maximum.accumulate`` over the insert/delete
    positions finds that op for every op of the sorted batch.  A key's
    final value is the value of its last successful insert or update;
    tombstones carry 0.

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
        first_op = np.empty(n, dtype=bool)  # each key's first op
        first_op[0] = True
        np.not_equal(sk[1:], sk[:-1], out=first_op[1:])
        starts = np.flatnonzero(first_op)
        ukeys = sk[starts]
        exists0 = np.asarray(exists_fn(ukeys), dtype=bool)

        at = np.arange(n)
        group = np.cumsum(first_op) - 1
        ins = skinds == K_INSERT
        dels = skinds == K_DELETE
        # The last insert/delete at or before each op, then before it.
        last_set = np.maximum.accumulate(np.where(ins | dels, at, -1))
        prev = np.append(-1, last_set[:-1])
        exists = np.where(prev >= starts[group], ins[prev], exists0[group])
        ok = ins ^ exists  # an insert needs its key absent, the rest present
        n_ins = int(np.count_nonzero(ok & ins))
        n_del = int(np.count_nonzero(ok & dels))
        n_ok = int(np.count_nonzero(ok))
        result.inserted += n_ins
        result.deleted += n_del
        result.updated += n_ok - n_ins - n_del
        result.failed += n - n_ok

        gend = np.append(starts[1:], n) - 1  # each key's last op
        last = last_set[gend]
        final_exists = np.where(last >= starts, ins[last], exists0)
        last_write = np.maximum.accumulate(
            np.where(ok & ~dels, at, -1))[gend]
        # A key that ends the batch absent *and* started it absent
        # (insert-then-delete within one batch) is a pure no-op on the
        # visible state — publishing a tombstone for it would be harmless
        # but wasteful, so mask it out.
        changed = (np.logical_or.reduceat(ok, starts)
                   & (final_exists | exists0))
        if not changed.any():
            return empty, result
        live = final_exists[changed]
        out_vals = np.where(live, values[order[last_write[changed]]], 0)
        net = int(np.count_nonzero(live)
                  - np.count_nonzero(exists0[changed]))
        run = DeltaRun(keys=ukeys[changed], values=out_vals.astype(
            VALUE_DTYPE, copy=False), tombstones=~live, net=net)
    return run, result


__all__ = [
    "DeltaRun",
    "DeltaView",
    "DeltaIndex",
    "fold_run",
    "resolve_batch",
]
