"""Failure injection: corruption detection and crash consistency.

A production index must fail loudly on corrupt state and atomically on
interrupted maintenance.  These tests corrupt each structural component of
a layout and assert the invariant checker names it, and interrupt batch
machinery mid-flight to assert the published structure is never the
damaged one.
"""

import threading

import numpy as np
import pytest

from repro.constants import KEY_MAX, NOT_FOUND
from repro.core import EpochManager, HarmoniaTree
from repro.core.layout import HarmoniaLayout
from repro.core.update import BatchUpdater, Operation
from repro.errors import InvariantViolation


@pytest.fixture
def layout():
    keys = np.arange(0, 4_000, 2, dtype=np.int64)
    return HarmoniaLayout.from_sorted(keys, fanout=8, fill=0.8)


class TestCorruptionDetection:
    """Every class of structural damage is caught by check_invariants."""

    def test_swapped_keys_in_row(self, layout):
        layout.key_region[5, 0], layout.key_region[5, 1] = (
            int(layout.key_region[5, 1]), int(layout.key_region[5, 0]),
        )
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_prefix_sum_off_by_one(self, layout):
        layout.prefix_sum[3] += 1
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_prefix_sum_decreasing(self, layout):
        layout.prefix_sum[2] = layout.prefix_sum[3] + 5
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_level_starts_truncated(self, layout):
        layout.level_starts[-1] -= 1
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_leaf_key_duplicated_across_leaves(self, layout):
        a = layout.leaf_start
        layout.key_region[a + 1, 0] = layout.key_region[a, 0]
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_internal_key_count_mismatch(self, layout):
        # Blank an internal separator: key count no longer children-1.
        layout.key_region[0, 0] = KEY_MAX
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_phantom_key(self, layout):
        layout.n_keys -= 1
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_leaf_claiming_children(self, layout):
        layout.prefix_sum[layout.leaf_start + 1 :] += 1
        with pytest.raises(InvariantViolation):
            layout.check_invariants()


class TestCrashConsistency:
    def test_movement_failure_leaves_old_layout_usable(self):
        """Movement builds fresh arrays: an exception mid-movement must not
        damage the structure queries are using."""
        keys = np.arange(0, 2_000, 2, dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, fanout=8, fill=1.0)
        snapshot = tree.layout

        updater = BatchUpdater(snapshot.copy(), fill=1.0)
        for k in range(1, 400, 2):
            updater.apply_op(Operation("insert", k, k))

        # Sabotage the movement by corrupting the updater's aux bookkeeping.
        bad_leaf = next(iter(updater.aux))
        updater.aux[bad_leaf].keys = None  # type: ignore[assignment]
        with pytest.raises(TypeError):
            updater.movement()

        # The tree's own snapshot was never touched.
        snapshot.check_invariants()
        tree.check_invariants()
        assert tree.search(0) == 0

    @staticmethod
    def _manager_with_delta():
        """A manager whose visible state is a base plus a one-flush
        delta (insert 1, delete 0), with drains only on request."""
        keys = np.arange(0, 1_000, 2, dtype=np.int64)
        em = EpochManager(HarmoniaTree.from_sorted(keys, fanout=8, fill=0.8),
                          drain_threshold=1 << 30)
        em.submit_many([Operation("insert", 1, 1), Operation("delete", 0)])
        em.flush()
        return em, keys

    @pytest.mark.parametrize("target", [
        "repro.core.epoch.resolve_batch",
        "repro.core.delta.DeltaIndex.fold",
        "repro.core.delta.DeltaIndex.publish",
    ])
    def test_flush_failure_keeps_epoch_base_and_delta(self, monkeypatch,
                                                      target):
        """A fault while a flush resolves, folds or publishes its batch
        publishes nothing: the epoch, the base snapshot and the visible delta stay
        as they were."""
        em, keys = self._manager_with_delta()
        base, view = em._tree.snapshot, em.pin().delta

        def boom(*args, **kwargs):
            raise RuntimeError("injected flush failure")

        monkeypatch.setattr(target, boom)
        em.submit_many([Operation("insert", 3, 3), Operation("delete", 2)])
        with pytest.raises(RuntimeError):
            em.flush()
        assert em.epoch == 1
        assert em._tree.snapshot is base
        assert em.pin().delta is view
        assert em.delta_size == 2 and em.delta_runs == 1
        assert len(em) == keys.size
        assert em.search(1) == 1 and em.search(0) is None
        assert em.search(2) == 2 and em.search(3) is None

    def test_drain_failure_keeps_contents_and_surfaces_on_sync(
            self, monkeypatch):
        """A fault in the drain's merge leaves the base and the visible
        contents unchanged, and ``sync()`` raises it."""
        em, keys = self._manager_with_delta()
        base = em._tree.snapshot
        block = tuple(a.copy() for a in base.packed_leaves())
        visible = tuple(a.copy() for a in em.dump_items())

        def boom(*args, **kwargs):
            raise RuntimeError("injected drain failure")

        monkeypatch.setattr("repro.core.snapshot.Snapshot.merge", boom)
        em.drain(wait=False)  # the background thread meets the fault
        with pytest.raises(RuntimeError, match="injected drain failure"):
            em.sync()
        assert em._tree.snapshot is base
        for arr, saved in zip(base.packed_leaves(), block):
            assert arr.tobytes() == saved.tobytes()
        for arr, saved in zip(em.dump_items(), visible):
            assert arr.tobytes() == saved.tobytes()
        assert em.drains == 0 and em.delta_size == 2
        assert em.search(1) == 1 and em.search(0) is None
        monkeypatch.undo()
        em.sync()
        assert em.delta_size == 0 and em.search(1) == 1
        em._tree.check_invariants()

    def test_write_failure_in_merge_keeps_snapshot(self, monkeypatch):
        """A fault in the merge step of a tree write leaves the published
        snapshot, its block and ``len()`` exactly as they were."""
        keys = np.arange(0, 1_000, 2, dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, keys * 3, fanout=8, fill=0.8)
        before = tree.snapshot
        block = tuple(a.copy() for a in before.packed_leaves())

        def boom(*args, **kwargs):
            raise RuntimeError("injected merge failure")

        monkeypatch.setattr("repro.core.snapshot.Snapshot.merge", boom)
        with pytest.raises(RuntimeError):
            tree.apply_batch([Operation("insert", 1, 1),
                              Operation("delete", 0)])
        assert tree.snapshot is before
        for arr, saved in zip(before.packed_leaves(), block):
            assert arr.tobytes() == saved.tobytes()
        assert len(tree) == keys.size
        assert tree.search(0) == 0 and tree.search(1) is None

    def test_worker_exception_does_not_wedge_locks(self):
        """A fine-grained op that raises must not leave the global counter
        high (which would deadlock every structural op forever)."""
        keys = np.arange(0, 1_000, 2, dtype=np.int64)
        layout = HarmoniaLayout.from_sorted(keys, fanout=8, fill=1.0)
        up = BatchUpdater(layout, fill=1.0)

        original = up._inplace_update
        calls = {"n": 0}

        def flaky(leaf, key, value):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected")
            return original(leaf, key, value)

        up._inplace_update = flaky  # type: ignore[assignment]
        with pytest.raises(RuntimeError):
            up.apply_op(Operation("update", 0, 5))
        assert up.locks.global_count == 0
        # Structural ops still proceed afterwards.
        up.apply_op(Operation("insert", 1, 1))
        assert up.result.inserted == 1

    def test_concurrent_corruption_free_under_failures(self):
        """Threads racing updates with one poisoned op: the batch completes
        for the healthy ops and invariants hold after movement."""
        keys = np.arange(0, 20_000, 4, dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7)
        updater = BatchUpdater(tree.layout, fill=0.7)

        errors = []

        def worker(start):
            try:
                for k in range(start, start + 500, 4):
                    updater.apply_op(Operation("update", k, -1))
            except Exception as exc:  # pragma: no cover - should not happen
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in (0, 4_000, 8_000, 12_000)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        new = updater.movement()
        new.check_invariants()
        assert updater.result.updated == 4 * 125
