"""Epoch manager: safe interleaving of query and update phases.

The paper's scenario is phase-based (§3.2): the GPU serves queries against
an immutable snapshot while the CPU accumulates updates; a batch boundary
swaps in the new structure.  :class:`EpochManager` packages that
discipline so applications do not have to hand-roll it:

* readers call :meth:`search_batch` / :meth:`range_search` at any time
  from any thread — each call pins the *current* snapshot for its whole
  duration (queries never observe a half-applied batch);
* writers call :meth:`submit` to enqueue operations; :meth:`flush` (or
  crossing ``batch_capacity``) applies them as one §3.2.2 batch and
  atomically publishes it;
* :attr:`epoch` counts published flushes — readers can detect staleness
  cheaply.

A flush never stops the world (docs/epochs.md).  It does not merge into
the base block on the writer's critical path: the batch is *resolved*
against the visible state into one immutable sorted run, folded into
the visible entry set of a :class:`~repro.core.delta.DeltaIndex` and
published — readers overlay that set on the pinned base snapshot
(snapshot-then-delta, last wins, tombstones mask), byte-identical to a
tree that merged every batch (:meth:`HarmoniaTree.apply_batch`).  A
background drain thread folds the pinned set into snapshot N+1 — one
sorted merge of N's packed leaf block with the delta, whose output *is*
N+1 (:meth:`~repro.core.snapshot.Snapshot.merge`; its layout is derived
only if someone asks) — while reads continue against N; publication of
the new base and retirement of the drained entries is a single swap
under the publish lock, so a reader pin — ``(snapshot, delta view)``
grabbed atomically — is always a consistent visible state.

This is deliberately *not* a concurrent B+tree: it is the batch-update
contract of the paper, enforced — with the merge taken off the write
path.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.core.config import SearchConfig
from repro.core.delta import DeltaIndex, resolve_batch
from repro.core.search import RangeBatch, contains_batch
from repro.core.snapshot import Snapshot
from repro.core.tree import HarmoniaTree
from repro.core.update import BatchResult, Operation
from repro.errors import ConfigError
from repro.utils.validation import ensure_positive

#: Default visible-delta size (entries, one per key) at which a flush
#: schedules a background drain.  ~2 mid-size batches: small enough that
#: the query-time overlay stays a rounding error, large enough to
#: amortize one base merge over several flushes.
DEFAULT_DRAIN_THRESHOLD = 1 << 15


class EpochManager:
    """Snapshot-per-epoch wrapper around a :class:`HarmoniaTree`."""

    def __init__(
        self,
        tree: HarmoniaTree,
        batch_capacity: int = 1 << 16,
        concurrent: bool = True,
        drain_threshold: Optional[int] = None,
    ) -> None:
        # ``concurrent`` is kept only as a keyword that accepts True,
        # because perfbench/drivers.py passes ``concurrent=True``.
        if concurrent is not True:
            raise ConfigError(
                "EpochManager accepts only concurrent=True: the synchronous "
                "flush was removed; every flush publishes into the delta "
                "and drains in the background"
            )
        self._tree = tree
        self.batch_capacity = ensure_positive("batch_capacity", batch_capacity)
        self.drain_threshold = ensure_positive(
            "drain_threshold",
            DEFAULT_DRAIN_THRESHOLD if drain_threshold is None
            else drain_threshold,
        )
        self._pending: List[Operation] = []
        self._write_lock = threading.Lock()  # serializes writers + flush
        self._publish_lock = threading.Lock()  # guards snapshot swap
        self._epoch = 0
        self._delta = DeltaIndex()
        self._drain_serial = threading.Lock()  # one drain at a time
        self._drain_thread: Optional[threading.Thread] = None
        self._drain_error: Optional[BaseException] = None
        self._snapshot_version = 0
        self._epoch_at_swap = 0
        #: Completed drains (public counter, mirrors ``epoch.drains``).
        self.drains = 0

    # ---------------------------------------------------------------- reads

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def snapshot_version(self) -> int:
        """Base-snapshot generation: bumps when a drain swaps the
        snapshot reference."""
        return self._snapshot_version

    @property
    def snapshot_age(self) -> int:
        """Published epochs the base snapshot is behind the visible state
        (0 when the delta is fully drained) — the ``epoch.snapshot_age``
        gauge."""
        return self._epoch - self._epoch_at_swap

    @property
    def delta_size(self) -> int:
        """Visible delta entries: what a read's overlay probes and what
        the next drain folds."""
        with self._publish_lock:
            return self._delta.size

    @property
    def delta_runs(self) -> int:
        """Flushes published into the delta and not yet drained."""
        with self._publish_lock:
            return self._delta.n_runs

    def pending_operations(self) -> int:
        with self._write_lock:
            return len(self._pending)

    def _snapshot(self) -> HarmoniaTree:
        # The tree's snapshot reference is swapped atomically under the
        # publish lock; pinning = grabbing the current snapshot object and
        # the current delta view in the same critical section, so
        # (base, delta) is one consistent state.
        with self._publish_lock:
            snap = self._tree._snap
            fill = self._tree._fill
            view = self._delta.view()
        pinned = HarmoniaTree(snap, fill=fill,
                              search_config=self._tree.search_config)
        if view is not None:
            pinned.delta = view
        return pinned

    def pin(self) -> HarmoniaTree:
        """Pin the current (base, delta) state as one consistent read-only
        tree facade — the handle long read passes hold.

        Every ``search_*`` method pins implicitly per call; explicit
        pinning is for multi-call reads that must see *one* version
        throughout — :func:`repro.join.merge_join` pins both sides once
        and streams millions of probes against the pinned pair while
        writers keep publishing new epochs.  The returned tree shares
        the immutable snapshot arrays (O(1), no copy) and carries the
        pinned delta view; it never sees later flushes or drains.
        """
        return self._snapshot()

    def search(self, key: int) -> Optional[int]:
        return self._snapshot().search(key)

    def search_batch(
        self, queries: Sequence[int], config: Optional[SearchConfig] = None
    ) -> np.ndarray:
        return self._snapshot().search_batch(queries, config)

    def search_many(
        self, queries: Sequence[int], config: Optional[SearchConfig] = None
    ) -> np.ndarray:
        """Engine-path batched lookup against the pinned snapshot."""
        return self._snapshot().search_many(queries, config)

    def range_search(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        return self._snapshot().range_search(lo, hi)

    def range_search_batch(
        self, los: Sequence[int], his: Sequence[int]
    ) -> RangeBatch:
        """Batch of range scans, all against one pinned snapshot."""
        return self._snapshot().range_search_batch(los, his)

    def dump_items(self) -> Tuple[np.ndarray, np.ndarray]:
        """The visible sorted contents as ``(keys, values)`` arrays —
        base snapshot merged with any undrained delta (checkpoint /
        rebalance path)."""
        return self._snapshot()._merged_items()

    def __len__(self) -> int:
        return len(self._snapshot())

    # --------------------------------------------------------------- writes

    def submit(self, op: Operation) -> Optional[BatchResult]:
        """Enqueue one operation; auto-flushes when the batch fills.

        Returns the flush's :class:`BatchResult` when one happened, else
        ``None`` — callers that care about durability call :meth:`flush`.
        """
        if not isinstance(op, Operation):
            raise ConfigError(f"submit() takes an Operation, got {type(op).__name__}")
        with self._write_lock:
            self._pending.append(op)
            if len(self._pending) >= self.batch_capacity:
                return self._flush_locked()
        return None

    def submit_many(self, ops: Sequence[Operation]) -> List[BatchResult]:
        """Enqueue many operations; returns the results of any auto-flushes."""
        results: List[BatchResult] = []
        with self._write_lock:
            for op in ops:
                self._pending.append(op)
                if len(self._pending) >= self.batch_capacity:
                    results.append(self._flush_locked())
        return results

    def flush(self) -> Optional[BatchResult]:
        """Resolve all pending operations as one batch and publish it into
        the delta.  No-op (returns ``None``) when nothing is pending."""
        self._raise_drain_error()
        with self._write_lock:
            if not self._pending:
                return None
            return self._flush_locked()

    # ------------------------------------------------------------ flush path

    def _visible_exists_fn(self, snap, view):
        """Existence probe over one pinned (base, delta) state."""

        def exists_fn(ukeys: np.ndarray) -> np.ndarray:
            if snap is None:
                exists = np.zeros(ukeys.size, dtype=bool)
            else:
                exists = np.asarray(contains_batch(snap, ukeys), dtype=bool)
            if view is not None:
                view.overlay_exists(ukeys, exists)
            return exists

        return exists_fn

    def _flush_locked(self) -> BatchResult:
        t0 = time.perf_counter()
        ops = self._pending
        self._pending = []
        with self._publish_lock:
            snap = self._tree._snap
            view = self._delta.view()
        # Resolution needs only existence bits of the visible state: an
        # op's outcome depends solely on its key's same-batch history plus
        # whether the key is visible now.  Counts therefore match a
        # merged write of the same batch exactly.
        run, result = resolve_batch(
            ops, self._visible_exists_fn(snap, view)
        )
        # The merge into the visible set runs here, outside the publish
        # lock; publish() only redoes it if a drain moved the set since.
        m0 = time.perf_counter()
        fold = self._delta.fold(run)
        w0 = time.perf_counter()
        with self._publish_lock:
            publish_wait = time.perf_counter() - w0
            self._delta.publish(fold)
            self._epoch += 1
            if not self._delta.n_runs:
                # Nothing undrained (e.g. every op failed): the base
                # already IS the visible state, don't age the snapshot.
                self._epoch_at_swap = self._epoch
            size = self._delta.size
            n_runs = self._delta.n_runs
        rec = obs.active
        if rec.enabled:
            t1 = time.perf_counter()
            rec.counter("epoch.flushes")
            rec.gauge("delta.size", size)
            rec.gauge("delta.runs", n_runs)
            rec.gauge("epoch.snapshot_age", self.snapshot_age)
            rec.histogram("epoch.publish_wait_s", publish_wait)
            rec.span_at("delta.merge", m0, w0, cat="delta",
                        run=run.n, delta=size)
            rec.span_at("epoch.publish", t0, t1, cat="epoch",
                        ops=len(ops), delta=size)
        if size >= self.drain_threshold:
            self._start_drain()
        return result

    # ---------------------------------------------------------------- drain

    def _start_drain(self) -> None:
        """Kick the background drain thread (no-op if one is running)."""
        t = self._drain_thread
        if t is not None and t.is_alive():
            return
        t = threading.Thread(
            target=self._drain_worker, daemon=True, name="epoch-drain"
        )
        self._drain_thread = t
        t.start()

    def _drain_worker(self) -> None:
        try:
            self._drain_once()
        except BaseException as exc:  # surfaced on next flush()/sync()
            self._drain_error = exc

    def _drain_once(self) -> bool:
        """Fold the visible delta into a fresh base snapshot.

        Returns whether anything was drained.  The drain pins the visible
        entry set as it stands; runs published while the merge is in
        flight are folded into the visible set *and* into a second
        set of everything published since the pin, so they stay visible
        through the overlay — the final publish step swaps the base and
        makes that second set the visible one in one critical section.
        """
        with self._drain_serial:
            with self._publish_lock:
                pinned = self._delta.pin_drain()
                if pinned is None:
                    return False
                flushes = self._delta.n_runs
                epoch_at_pin = self._epoch
                snap = self._tree._snap
                fanout = self._tree.fanout
                fill = self._tree._fill
            t0 = time.perf_counter()
            publish_wait = 0.0
            try:
                # The drain is the write's merge: the delta folded into
                # the base block is the new snapshot, whose layout is
                # derived only if someone asks.
                new_snap = Snapshot.merge(snap, pinned, fanout, fill)
                w0 = time.perf_counter()
                with self._publish_lock:
                    publish_wait = time.perf_counter() - w0
                    self._tree._snap = new_snap
                    self._delta.finish_drain()
                    self._snapshot_version += 1
                    # Runs published after the pin are still undrained:
                    # the base is current only up to the pinned epoch —
                    # or fully, when every flush since changed nothing.
                    self._epoch_at_swap = (
                        max(self._epoch_at_swap, epoch_at_pin)
                        if self._delta.n_runs else self._epoch
                    )
                    self.drains += 1
            except BaseException:
                with self._publish_lock:
                    self._delta.abort_drain()
                raise
        rec = obs.active
        if rec.enabled:
            t1 = time.perf_counter()
            rec.counter("epoch.drains")
            rec.counter("epoch.drained_ops", pinned.n)
            rec.gauge("delta.size", self.delta_size)
            rec.gauge("delta.runs", self.delta_runs)
            rec.gauge("epoch.snapshot_age", self.snapshot_age)
            rec.histogram("epoch.publish_wait_s", publish_wait)
            rec.span_at("epoch.drain", t0, t1, cat="epoch",
                        entries=pinned.n, runs=flushes)
        return True

    def _raise_drain_error(self) -> None:
        exc = self._drain_error
        if exc is not None:
            self._drain_error = None
            raise exc

    @property
    def drain_running(self) -> bool:
        t = self._drain_thread
        return t is not None and t.is_alive()

    def drain(self, wait: bool = True) -> None:
        """Fold the published delta into a fresh base snapshot.

        ``wait=True`` (default) drains on the calling thread until the
        delta is empty; ``wait=False`` just schedules the background
        drain.
        """
        if not wait:
            self._start_drain()
            return
        t = self._drain_thread
        if t is not None and t.is_alive():
            t.join()
        self._raise_drain_error()
        while self._drain_once():
            pass

    def sync(self) -> None:
        """Flush pending operations and drain the delta completely — the
        point where the visible state and the base snapshot coincide
        (benchmark epilogues, checkpoints, shutdown)."""
        self.flush()
        self.drain(wait=True)

    def close(self) -> None:
        """Finish background work (drains the delta)."""
        self.sync()


__all__ = ["EpochManager", "DEFAULT_DRAIN_THRESHOLD"]
