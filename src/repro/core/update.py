"""Batch updates for Harmonia (paper §3.2.2 + Algorithm 1).

The paper's scenario is phase-based: queries run on the GPU; updates are
batched and applied on the CPU, after which the GPU-side structure is
synchronized.  Within a batch:

* **update** (overwrite a value) and inserts/deletes that keep the target
  leaf legal mutate the key region / value region *in place* under a
  per-leaf fine-grained lock;
* operations that would **split or merge** a node instead stage their effect
  on an *auxiliary node* under the coarse-grained lock — the leaf is marked
  ``split`` and later operations on it are redirected to the auxiliary node;
* after the batch, a single **movement** pass folds the auxiliary nodes back
  into the consecutive key region: untouched leaf rows are block-copied
  (vectorized gather — "the locations of all these data movements can be
  known in advance, some of them can be processed in parallel"), dirty runs
  are re-chunked into legal leaves, and the (small) internal levels plus the
  prefix-sum child region are rebuilt bottom-up.

Algorithm 1 is implemented verbatim in :class:`TwoGrainedLocks`: a coarse
lock guards the whole tree and a global counter of in-flight fine-grained
operations; structural operations spin until the counter drains.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.btree.bulk import _chunk_sizes
from repro.constants import KEY_DTYPE, KEY_MAX, NOT_FOUND, VALUE_DTYPE
from repro.core.fastbuild import assemble_layout
from repro.core.layout import HarmoniaLayout
from repro.core.snapshot import Snapshot
from repro.errors import ConfigError, InvalidKeyError
from repro.utils.timer import Timer
from repro.utils.validation import (
    ensure_int_array,
    ensure_key_array,
    ensure_scalar_key,
    ensure_scalar_value,
)


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"
_KINDS = (INSERT, UPDATE, DELETE)

#: Integer op-kind codes of :class:`OpBatch` (and so of the shard wire
#: format).
K_INSERT, K_UPDATE, K_DELETE = 0, 1, 2
KIND_CODE = {INSERT: K_INSERT, UPDATE: K_UPDATE, DELETE: K_DELETE}


@dataclass(frozen=True)
class Operation:
    """One element of an update batch."""

    kind: str
    key: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown operation kind {self.kind!r}")
        if not isinstance(self.key, (int, np.integer)):  # 1.5 would store 1
            raise InvalidKeyError(f"key must be an integer, got {self.key!r}")
        ensure_scalar_key(self.key)
        ensure_scalar_value(self.value)


class OpBatch:
    """One write batch as three aligned arrays in arrival order: int8
    ``kinds`` (:data:`K_INSERT`, :data:`K_UPDATE`, :data:`K_DELETE`),
    int64 ``keys`` and ``values`` (a delete's is ignored).  The
    constructor validates arrays, vectorized; every write entry builds
    its batch once with :meth:`of` and carries it from then on."""

    __slots__ = ("kinds", "keys", "values")

    def __init__(self, kinds, keys, values) -> None:
        kinds = ensure_int_array(kinds, np.int8, "kinds")
        if kinds.size and (kinds.min() < K_INSERT or kinds.max() > K_DELETE):
            raise ConfigError("kinds must be 0 (insert), 1 (update) or "
                              "2 (delete)")
        keys = ensure_key_array(ensure_int_array(keys, KEY_DTYPE, "keys"))
        values = ensure_int_array(values, VALUE_DTYPE, "values")
        if not kinds.size == keys.size == values.size:
            raise ConfigError("kinds, keys and values differ in length")
        self.kinds, self.keys, self.values = kinds, keys, values

    @classmethod
    def _wrap(cls, kinds, keys, values) -> "OpBatch":
        """Arrays already known valid, as a batch."""
        batch = cls.__new__(cls)
        batch.kinds, batch.keys, batch.values = kinds, keys, values
        return batch

    @classmethod
    def of(cls, ops: "OpsLike") -> "OpBatch":
        """An :class:`OpBatch` as is; a sequence of :class:`Operation`
        (each checked when built) converted in one pass; any other
        element raises :class:`~repro.errors.ConfigError`."""
        if isinstance(ops, OpBatch):
            return ops
        ops = ops if isinstance(ops, (list, tuple)) else list(ops)
        for t in set(map(type, ops)):
            if not issubclass(t, Operation):
                raise ConfigError(
                    f"a write batch holds Operation objects, got {t.__name__}")
        code = KIND_CODE
        cols = (((code[op.kind] for op in ops), np.int8),
                ((op.key for op in ops), KEY_DTYPE),
                ((op.value for op in ops), VALUE_DTYPE))
        return cls._wrap(*(np.fromiter(c, t, len(ops)) for c, t in cols))

    @classmethod
    def concat(cls, batches: Sequence["OpBatch"]) -> "OpBatch":
        """The batches one after another, as one batch."""
        if len(batches) == 1:
            return batches[0]
        return cls._wrap(*(np.concatenate(c) for c in zip(
            *((b.kinds, b.keys, b.values) for b in batches))))

    def __len__(self) -> int:
        return int(self.keys.size)

    def __getitem__(self, index) -> "OpBatch":
        """The sub-batch at ``index`` (a slice or an index array)."""
        return OpBatch._wrap(self.kinds[index], self.keys[index],
                             self.values[index])


#: What a write entry accepts and passes to :meth:`OpBatch.of`.
OpsLike = Union[OpBatch, Sequence[Operation]]


@dataclass
class BatchResult:
    """Outcome accounting for one applied batch."""

    inserted: int = 0
    updated: int = 0
    deleted: int = 0
    #: Operations that were no-ops (duplicate insert, missing update/delete).
    failed: int = 0
    #: Leaves that went through an auxiliary node (split staging).
    split_leaves: int = 0
    #: Leaves left under-full (merge staged for the movement pass).
    underflow_leaves: int = 0
    #: Leaves whose rows were reused verbatim by the movement pass.
    moved_clean: int = 0
    #: Leaves rebuilt by re-chunking dirty runs.
    rebuilt_dirty: int = 0
    timer: Timer = field(default_factory=Timer)

    @property
    def n_effective(self) -> int:
        return self.inserted + self.updated + self.deleted


# --------------------------------------------------------------------------
# Algorithm 1 — two-grained locking
# --------------------------------------------------------------------------


class TwoGrainedLocks:
    """The paper's Algorithm 1, line for line.

    ``fine_op`` is the "updates without split or merge" path (lines 3-13):
    bump the global counter under the coarse lock, do the work under the
    target leaf's fine lock, then decrement.  ``coarse_op`` is the
    "with split or merge" path (lines 16-24): take the coarse lock, and if
    fine-grained operations are still in flight, release and retry (the
    ``goto RETRY``), otherwise run the structural operation while holding
    the coarse lock.
    """

    def __init__(self) -> None:
        self.coarse = threading.Lock()
        self.global_count = 0
        self._fine_locks: Dict[int, threading.Lock] = {}
        self._fine_locks_guard = threading.Lock()

    def fine_lock_for(self, leaf_idx: int) -> threading.Lock:
        """Lazily materialized per-leaf lock (a real tree would embed it in
        the node; the array layout keeps them in a side table)."""
        with self._fine_locks_guard:
            lock = self._fine_locks.get(leaf_idx)
            if lock is None:
                lock = threading.Lock()
                self._fine_locks[leaf_idx] = lock
            return lock

    def fine_op(self, leaf_idx: int, fn: Callable[[], None]) -> None:
        with self.coarse:  # LOCK(coarse_lock)
            self.global_count += 1  # global_count++
        try:
            lock = self.fine_lock_for(leaf_idx)
            with lock:  # LOCK(node.fine_lock)
                fn()  # operation_without_split_or_merge()
        finally:
            with self.coarse:
                self.global_count -= 1  # global_count--

    def coarse_op(self, fn: Callable[[], None]) -> None:
        while True:  # RETRY:
            with self.coarse:  # LOCK(coarse_lock)
                if self.global_count == 0:
                    fn()  # operation_with_split_or_merge()
                    return  # RELEASE on scope exit
            # RELEASE first to avoid deadlock, then retry.
            time.sleep(0)  # yield the GIL so fine ops can drain


# --------------------------------------------------------------------------
# Auxiliary nodes
# --------------------------------------------------------------------------


@dataclass
class AuxiliaryNode:
    """Staging area for a split leaf (paper §3.2.2).

    Holds the leaf's *entire* logical content (original entries plus the
    batch's modifications) as sorted parallel lists; the movement pass
    re-chunks it into however many legal leaves it needs.
    """

    keys: List[int]
    values: List[int]

    @classmethod
    def from_row(cls, key_row: np.ndarray, val_row: np.ndarray) -> "AuxiliaryNode":
        mask = key_row != KEY_MAX
        return cls(keys=key_row[mask].tolist(), values=val_row[mask].tolist())

    def _lookup(self, key: int) -> Tuple[int, bool]:
        """The one shared bisect: ``(slot, present)`` for ``key``."""
        i = bisect_left(self.keys, key)
        return i, i < len(self.keys) and self.keys[i] == key

    def insert(self, key: int, value: int) -> bool:
        i, present = self._lookup(key)
        if present:
            return False
        self.keys.insert(i, key)
        self.values.insert(i, value)
        return True

    def update(self, key: int, value: int) -> bool:
        i, present = self._lookup(key)
        if present:
            self.values[i] = value
            return True
        return False

    def delete(self, key: int) -> bool:
        i, present = self._lookup(key)
        if present:
            del self.keys[i]
            del self.values[i]
            return True
        return False

    def find(self, key: int) -> Optional[int]:
        i, present = self._lookup(key)
        return self.values[i] if present else None


# --------------------------------------------------------------------------
# The batch updater
# --------------------------------------------------------------------------


class BatchUpdater:
    """Applies one batch of operations to a :class:`HarmoniaLayout` and
    produces the post-movement layout.

    One instance per batch; :class:`~repro.core.tree.HarmoniaTree` drives it.
    """

    def __init__(self, layout: HarmoniaLayout, fill: float = 1.0) -> None:
        self.layout = layout
        self.fill = fill
        self.locks = TwoGrainedLocks()
        self.aux: Dict[int, AuxiliaryNode] = {}
        self.underflow: Set[int] = set()
        self.result = BatchResult()
        self._result_guard = threading.Lock()
        self._slots = layout.slots
        self._min_leaf = (layout.fanout - 1 + 1) // 2

    # -------------------------------------------------------------- routing

    def _leaf_of(self, key: int) -> int:
        """Root-to-leaf traversal on the immutable internal levels.

        Internal separators never change during a batch (splits are staged
        on auxiliary nodes), so traversal needs no locks; only the leaf
        access does.
        """
        layout = self.layout
        node = 0
        for _ in range(layout.height - 1):
            row = layout.key_region[node]
            i = int(np.searchsorted(row, key, side="right"))
            node = int(layout.prefix_sum[node]) + i
        return node

    # ----------------------------------------------------------- leaf edits

    def _leaf_key_count(self, leaf: int) -> int:
        row = self.layout.key_region[leaf]
        return int(np.searchsorted(row, KEY_MAX, side="left"))

    def _inplace_update(self, leaf: int, key: int, value: int) -> bool:
        row = self.layout.key_region[leaf]
        pos = int(np.searchsorted(row, key, side="left"))
        if pos < row.size and row[pos] == key:
            self.layout.leaf_values[leaf - self.layout.leaf_start, pos] = value
            return True
        return False

    def _inplace_insert(self, leaf: int, key: int, value: int) -> bool:
        """Insert into a leaf known (under lock) to have a free slot."""
        row = self.layout.key_region[leaf]
        vrow = self.layout.leaf_values[leaf - self.layout.leaf_start]
        pos = int(np.searchsorted(row, key, side="left"))
        if pos < row.size and row[pos] == key:
            return False
        # .copy(): source and destination slices overlap.
        row[pos + 1 :] = row[pos:-1].copy()
        vrow[pos + 1 :] = vrow[pos:-1].copy()
        row[pos] = key
        vrow[pos] = value
        return True

    def _inplace_delete(self, leaf: int, key: int) -> bool:
        row = self.layout.key_region[leaf]
        vrow = self.layout.leaf_values[leaf - self.layout.leaf_start]
        pos = int(np.searchsorted(row, key, side="left"))
        if pos >= row.size or row[pos] != key:
            return False
        row[pos:-1] = row[pos + 1 :].copy()
        vrow[pos:-1] = vrow[pos + 1 :].copy()
        row[-1] = KEY_MAX
        vrow[-1] = NOT_FOUND
        return True

    # ------------------------------------------------------------ op driver

    def _bump(self, field_name: str, by: int = 1) -> None:
        with self._result_guard:
            setattr(self.result, field_name, getattr(self.result, field_name) + by)

    def apply_op(self, op: Operation) -> None:
        """Apply one operation under Algorithm 1.

        The structural decision (does this op split/merge?) can only be made
        once the leaf state is known, which itself requires a lock; the
        protocol therefore optimistically takes the fine path and *upgrades*
        to the coarse path when it discovers the op is structural — the
        same two-phase approach a real implementation needs, expressed with
        the paper's two primitives.
        """
        leaf = self._leaf_of(op.key)

        outcome: Dict[str, Optional[str]] = {"counter": None, "retry_coarse": False}

        def fine_body() -> None:
            if leaf in self.aux:
                # Leaf already split this batch: its state is owned by the
                # auxiliary node, which only the coarse path may touch.
                outcome["retry_coarse"] = True
                return
            if op.kind == UPDATE:
                outcome["counter"] = "updated" if self._inplace_update(
                    leaf, op.key, op.value
                ) else "failed"
            elif op.kind == INSERT:
                if self._leaf_key_count(leaf) >= self._slots:
                    outcome["retry_coarse"] = True  # would split
                    return
                outcome["counter"] = "inserted" if self._inplace_insert(
                    leaf, op.key, op.value
                ) else "failed"
            else:  # DELETE
                if self._leaf_key_count(leaf) <= self._min_leaf:
                    outcome["retry_coarse"] = True  # would merge
                    return
                outcome["counter"] = "deleted" if self._inplace_delete(
                    leaf, op.key
                ) else "failed"

        self.locks.fine_op(leaf, fine_body)
        if outcome["retry_coarse"]:
            self.locks.coarse_op(lambda: self._structural_op(leaf, op, outcome))
        if outcome["counter"]:
            self._bump(outcome["counter"])

    def _structural_op(self, leaf: int, op: Operation, outcome: Dict) -> None:
        """Split/merge path, runs with the coarse lock held and no fine ops
        in flight."""
        aux = self.aux.get(leaf)
        if aux is None:
            aux = AuxiliaryNode.from_row(
                self.layout.key_region[leaf],
                self.layout.leaf_values[leaf - self.layout.leaf_start],
            )
            self.aux[leaf] = aux
            self._bump("split_leaves")
        if op.kind == INSERT:
            outcome["counter"] = "inserted" if aux.insert(op.key, op.value) else "failed"
        elif op.kind == UPDATE:
            outcome["counter"] = "updated" if aux.update(op.key, op.value) else "failed"
        else:
            ok = aux.delete(op.key)
            outcome["counter"] = "deleted" if ok else "failed"
            if ok and len(aux.keys) < self._min_leaf:
                self.underflow.add(leaf)

    # -------------------------------------------------------------- batches

    #: Batches at or below this size run serially even with ``n_threads > 1``
    #: — ThreadPoolExecutor setup costs more than applying the ops, and the
    #: single-op conveniences (``tree.insert`` etc.) always land here.
    POOL_MIN_OPS = 64

    def apply_batch(self, ops: Sequence[Operation], n_threads: int = 4) -> None:
        """Apply all operations with a pool of ``n_threads`` workers."""
        if n_threads <= 1 or len(ops) <= self.POOL_MIN_OPS:
            for op in ops:
                self.apply_op(op)
            return
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(self.apply_op, ops, chunksize=64))

    # ------------------------------------------------------------- movement

    def leaf_content(self, leaf: int) -> Tuple[List[int], List[int]]:
        """Logical content of a leaf, honoring its auxiliary node."""
        aux = self.aux.get(leaf)
        if aux is not None:
            return list(aux.keys), list(aux.values)
        row = self.layout.key_region[leaf]
        vrow = self.layout.leaf_values[leaf - self.layout.leaf_start]
        mask = row != KEY_MAX
        return row[mask].tolist(), vrow[mask].tolist()

    def dirty_leaves(self) -> Set[int]:
        """Leaves whose content cannot be kept as-is: split-staged ones and
        those the batch drove below minimum occupancy in place."""
        dirty = set(self.aux)
        dirty.update(self.underflow)
        leaf_start = self.layout.leaf_start
        # Counted off the rows: this path edits them in place, so a fill
        # count cached on the layout is stale by now.
        key_counts = np.sum(self.layout.leaf_keys != KEY_MAX, axis=1)
        if self.layout.n_leaves > 1:
            under = np.nonzero(key_counts < self._min_leaf)[0] + leaf_start
            dirty.update(int(u) for u in under)
        # An aux'd leaf that still fits and meets occupancy is clean again
        # only if unsplit — keep it dirty regardless: the aux owns its state.
        return dirty

    def movement(self) -> Optional[HarmoniaLayout]:
        """The post-batch movement (§3.2.2): fold auxiliary nodes back into
        consecutive regions.  Returns the new layout, or ``None`` when every
        key was deleted.
        """
        layout = self.layout
        leaf_start = layout.leaf_start
        n_leaves = layout.n_leaves
        dirty = self.dirty_leaves()

        # Plan the new leaf level as a sequence of directives:
        #   ("keep", old_leaf_local_idx)  — row reused verbatim
        #   ("new", keys, values)         — rebuilt leaf
        plan: List[Tuple] = []
        i = 0
        while i < n_leaves:
            leaf = leaf_start + i
            if leaf not in dirty:
                plan.append(("keep", i))
                i += 1
                continue
            # Maximal dirty run [i, j).
            j = i
            run_keys: List[int] = []
            run_vals: List[int] = []
            while j < n_leaves and (leaf_start + j) in dirty:
                ks, vs = self.leaf_content(leaf_start + j)
                run_keys.extend(ks)
                run_vals.extend(vs)
                j += 1
            # Absorb clean neighbours while the run is too small to chunk
            # legally (mirrors borrow-from-sibling at movement time).
            while 0 < len(run_keys) < self._min_leaf and (
                j < n_leaves or plan
            ):
                if j < n_leaves:
                    ks, vs = self.leaf_content(leaf_start + j)
                    run_keys.extend(ks)
                    run_vals.extend(vs)
                    j += 1
                else:
                    prev = plan.pop()
                    if prev[0] == "keep":
                        ks, vs = self.leaf_content(leaf_start + prev[1])
                    else:
                        ks, vs = prev[1], prev[2]
                    run_keys = ks + run_keys
                    run_vals = vs + run_vals
            target = max(self._min_leaf, min(self._slots, round(self.fill * self._slots)))
            for size in _chunk_sizes(len(run_keys), target, self._min_leaf, self._slots):
                plan.append(("new", run_keys[:size], run_vals[:size]))
                run_keys = run_keys[size:]
                run_vals = run_vals[size:]
            i = j

        self.result.moved_clean = sum(1 for p in plan if p[0] == "keep")
        self.result.rebuilt_dirty = sum(1 for p in plan if p[0] == "new")
        self.result.underflow_leaves = len(self.underflow)

        if not plan:
            return None
        return _build_layout_from_leaf_plan(layout, plan, self.fill)


def scalar_apply(tree, ops: Sequence[Operation],
                 n_threads: int = 4) -> BatchResult:
    """Apply one batch to ``tree`` through the per-op Algorithm 1 reference.

    :class:`BatchUpdater` (two-grained locking, a pool of ``n_threads``
    workers) edits a private copy of the tree's derived layout, then its
    movement pass folds the auxiliary nodes back; the result becomes the
    tree's snapshot.  Accounting and contents equal the production merge
    (:meth:`~repro.core.tree.HarmoniaTree.apply_batch`, docs/update.md);
    only this path reports structural counters (split / underflow
    leaves).  A tree with no snapshot has no layout to edit, and a
    pinned read view takes no writes, so both go to ``apply_batch``
    (which merges the first batch and refuses the view).
    """
    snap = tree.snapshot
    if snap is None or tree.delta is not None:
        return tree.apply_batch(ops)
    updater = BatchUpdater(snap.layout.copy(), fill=tree._fill)
    with updater.result.timer.phase("apply"):
        updater.apply_batch(ops, n_threads=n_threads)
    with updater.result.timer.phase("movement"):
        new = updater.movement()
    tree._snap = (None if new is None else
                  Snapshot.of_layout(new, tree._fill, n_bulk=snap.n_bulk))
    return updater.result


def _build_layout_from_leaf_plan(
    old: HarmoniaLayout, plan: List[Tuple], fill: float
) -> HarmoniaLayout:
    """Materialize a new :class:`HarmoniaLayout` from a leaf plan.

    Clean rows are gathered with one vectorized fancy-index copy; internal
    levels (a ~1/fanout fraction of all nodes) are rebuilt bottom-up from
    the leaf minima by :func:`~repro.core.fastbuild.assemble_layout`.
    """
    slots = old.slots
    new_n_leaves = len(plan)

    leaf_keys = np.full((new_n_leaves, slots), KEY_MAX, dtype=KEY_DTYPE)
    leaf_vals = np.full((new_n_leaves, slots), NOT_FOUND, dtype=VALUE_DTYPE)

    keep_dst = [di for di, p in enumerate(plan) if p[0] == "keep"]
    keep_src = [p[1] for p in plan if p[0] == "keep"]
    if keep_dst:
        src = np.asarray(keep_src, dtype=np.int64)
        dst = np.asarray(keep_dst, dtype=np.int64)
        leaf_keys[dst] = old.key_region[old.leaf_start + src]
        leaf_vals[dst] = old.leaf_values[src]
    for di, p in enumerate(plan):
        if p[0] == "new":
            ks, vs = p[1], p[2]
            leaf_keys[di, : len(ks)] = ks
            leaf_vals[di, : len(vs)] = vs

    n_keys = int(np.sum(leaf_keys != KEY_MAX))
    return assemble_layout(old.fanout, fill, leaf_keys, leaf_vals, n_keys)


__all__ = [
    "INSERT",
    "UPDATE",
    "DELETE",
    "K_INSERT",
    "K_UPDATE",
    "K_DELETE",
    "KIND_CODE",
    "Operation",
    "OpBatch",
    "OpsLike",
    "BatchResult",
    "TwoGrainedLocks",
    "AuxiliaryNode",
    "BatchUpdater",
    "scalar_apply",
]
