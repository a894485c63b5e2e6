"""Scalar ≡ gapped result equivalence for the batch-update pipeline.

The contract the production executor
(:class:`~repro.core.update_plan.GappedBatchUpdater`, the default
``UpdateConfig``) ships under (docs/update.md): for any batch it produces
the same :class:`~repro.core.update.BatchResult` accounting
(inserted/updated/deleted/failed), the same ``items()`` content and the
same ``search_batch`` answers as the Algorithm 1 reference
(``UpdateConfig(mode="scalar", n_threads=1)``), and a layout that passes
``check_invariants`` — the physical layout differs by design (gaps).
Hypothesis pins the contract over random trees and op mixes; directed
tests cover the structural extremes (split-heavy, merge-heavy,
delete-everything) and the executor's own guarantees (non-mutation of the
input snapshot, thread-count independence, the plan stage's ``(leaf,
key)`` buckets and the absorb-or-stage verdict).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EpochManager, HarmoniaTree, UpdateConfig
from repro.core.layout import HarmoniaLayout
from repro.core.search import locate_leaves_batch
from repro.core.update import Operation
from repro.core.update_plan import (
    K_DELETE,
    K_INSERT,
    K_UPDATE,
    GappedBatchUpdater,
)


def make_tree(n_keys, fanout, fill, stride=2):
    keys = np.arange(0, n_keys * stride, stride, dtype=np.int64)
    return HarmoniaTree.from_sorted(keys, fanout=fanout, fill=fill)


def run_both(n_keys, fanout, fill, ops, n_threads=1):
    """Apply ``ops`` through both executors on identical trees."""
    scalar_tree = make_tree(n_keys, fanout, fill)
    gapped_tree = make_tree(n_keys, fanout, fill)
    sres = scalar_tree.apply_batch(
        ops, UpdateConfig(mode="scalar", n_threads=1)
    )
    gres = gapped_tree.apply_batch(
        ops, UpdateConfig(mode="gapped", n_threads=n_threads)
    )
    return scalar_tree, sres, gapped_tree, gres


def assert_trees_equivalent(stree, gtree, probe_hi=1300):
    """Same visible state: emptiness, content, point answers; the gapped
    layout is a valid one."""
    assert (stree._layout is None) == (gtree._layout is None)
    assert len(stree) == len(gtree)
    assert list(stree.items()) == list(gtree.items())
    probe = np.arange(-1, probe_hi, dtype=np.int64)
    assert np.array_equal(stree.search_batch(probe),
                          gtree.search_batch(probe))
    gtree.check_invariants()


def assert_results_identical(sres, gres):
    for field in ("inserted", "updated", "deleted", "failed"):
        assert getattr(sres, field) == getattr(gres, field), field


def assert_layouts_identical(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert np.array_equal(a.key_region, b.key_region)
    assert np.array_equal(a.prefix_sum, b.prefix_sum)
    assert np.array_equal(a.leaf_values, b.leaf_values)
    assert np.array_equal(a.level_starts, b.level_starts)
    assert a.n_keys == b.n_keys


# --------------------------------------------------------------------------
# Property: random trees × random mixed batches
# --------------------------------------------------------------------------

op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(0, 400),
)


class TestEquivalenceProperty:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 200),
        fanout=st.sampled_from([4, 8, 16]),
        fill=st.sampled_from([0.5, 0.7, 1.0]),
        raw_ops=st.lists(op_strategy, min_size=0, max_size=120),
    )
    def test_random_mix(self, n_keys, fanout, fill, raw_ops):
        # Even keys populate the tree; op keys span odd (miss) and even
        # (hit) values, so inserts collide with existing keys, updates
        # and deletes miss, and repeated ops conflict on the same leaf.
        ops = [Operation(kind, key, key * 10 + 1)
               for kind, key in raw_ops]
        stree, sres, gtree, gres = run_both(n_keys, fanout, fill, ops)
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        fanout=st.sampled_from([4, 8]),
    )
    def test_structural_heavy(self, seed, fanout):
        """Mixes weighted towards splits and merges."""
        rng = np.random.default_rng(seed)
        n_keys = int(rng.integers(20, 300))
        kinds = rng.choice(["insert", "delete"], size=150,
                           p=[0.5, 0.5])
        keys = rng.integers(0, 2 * n_keys, size=150)
        ops = [Operation(str(k), int(key), int(key) + 7)
               for k, key in zip(kinds, keys)]
        stree, sres, gtree, gres = run_both(n_keys, fanout, 1.0, ops)
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)


# --------------------------------------------------------------------------
# Directed structural extremes
# --------------------------------------------------------------------------

class TestDirected:
    def test_split_heavy_full_leaves(self):
        """fill=1.0 tree: every odd-key insert overflows a full leaf."""
        ops = [Operation("insert", k, k) for k in range(1, 1200, 2)]
        stree, sres, gtree, gres = run_both(600, 8, 1.0, ops)
        assert sres.split_leaves > 0 and gres.split_leaves > 0
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_merge_heavy(self):
        """Deleting most keys forces underflow and a compaction epoch."""
        ops = [Operation("delete", k, 0) for k in range(0, 1800, 2)]
        stree, sres, gtree, gres = run_both(1000, 8, 0.7, ops)
        assert sres.deleted == gres.deleted == 900
        assert gres.underflow_leaves > 0
        # The epoch dropped the emptied leaves.
        assert gtree.layout.n_leaves < make_tree(1000, 8, 0.7).layout.n_leaves
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_delete_everything(self):
        ops = [Operation("delete", k, 0) for k in range(0, 200, 2)]
        stree, sres, gtree, gres = run_both(100, 8, 0.7, ops)
        assert stree._layout is None and gtree._layout is None
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_update_only_fast_path(self):
        """A pure-update batch absorbs entirely in place: nothing staged,
        no compaction epoch."""
        tree = make_tree(500, 16, 0.7)
        ops = ([Operation("update", k, -k) for k in range(0, 400, 2)]
               + [Operation("update", 3, 0)])  # one miss
        up = GappedBatchUpdater(tree.layout, fill=0.7)
        res = up.run(ops)
        assert up.absorbed_ops == len(ops)
        assert up.overflow_ops == 0 and up.movement_epochs == 0
        assert res.updated == 200
        assert res.failed == 1
        # Absorbed writes land in the new snapshot, not the old one.
        from repro.core.search import search_batch
        probe = np.array([4], dtype=np.int64)
        assert search_batch(up.new_layout, probe)[0] == -4
        assert search_batch(tree.layout, probe)[0] == 4
        stree, sres, gtree, gres = run_both(500, 16, 0.7, ops)
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_same_leaf_conflicts_last_wins(self):
        """Repeated updates of one key: arrival-order winner is kept."""
        ops = [Operation("update", 10, v) for v in (1, 2, 3)]
        stree, sres, gtree, gres = run_both(300, 8, 0.7, ops)
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)
        assert gtree.search(10) == 3

    def test_insert_delete_insert_same_key_full_leaf(self):
        """A key chain on a full leaf: every op's outcome follows its
        key's own history, whatever the leaf's capacity."""
        ops = [
            Operation("insert", 11, 1),
            Operation("delete", 11, 0),
            Operation("insert", 11, 2),
            Operation("update", 11, 3),
        ]
        stree, sres, gtree, gres = run_both(64, 8, 1.0, ops)
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)
        assert gtree.search(11) == 3

    def test_kept_leaves_with_changed_minima(self):
        """In-place deletes of leaf minima and inserts just below them:
        the leaves absorb the edits without any compaction epoch, and
        routing (unchanged separators) still finds every key."""
        tree = make_tree(4_000, 64, 0.7)
        layout = tree.layout
        mins = layout.key_region[layout.leaf_start :, 0]
        ops = []
        for m in mins[1::2]:
            ops.append(Operation("delete", int(m), 0))   # min leaves the leaf
        for m in mins[2::4]:
            ops.append(Operation("insert", int(m) - 1, -1))  # new, lower key
        stree, sres, gtree, gres = run_both(4_000, 64, 0.7, ops)
        assert gres.rebuilt_dirty == 0  # absorbed, no epoch
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree, probe_hi=8_100)

    def test_single_leaf_tree(self):
        ops = [Operation("insert", 1, 1), Operation("delete", 0, 0),
               Operation("update", 2, -2)]
        stree, sres, gtree, gres = run_both(3, 8, 1.0, ops)
        assert gtree.layout.n_leaves == 1
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_empty_batch(self):
        stree, sres, gtree, gres = run_both(100, 8, 0.7, [])
        assert_trees_equivalent(stree, gtree)
        assert gres.n_effective == 0

    def test_bootstrap_on_empty_tree(self):
        """Both modes share the bootstrap path on an empty tree."""
        for mode in ("scalar", "gapped"):
            tree = HarmoniaTree.empty(fanout=8)
            res = tree.apply_batch(
                [Operation("insert", k, k) for k in range(50)],
                UpdateConfig(mode=mode),
            )
            assert res.inserted == 50
            assert tree.search(17) == 17


# --------------------------------------------------------------------------
# Executor guarantees
# --------------------------------------------------------------------------

class TestPipelineGuarantees:
    def test_input_layout_never_mutated(self):
        tree = make_tree(400, 8, 0.7)
        layout = tree.layout
        before_keys = layout.key_region.copy()
        before_vals = layout.leaf_values.copy()
        before_prefix = layout.prefix_sum.copy()
        before_counts = layout.leaf_key_counts()
        ops = ([Operation("insert", k, k) for k in range(1, 200, 2)]
               + [Operation("update", k, -k) for k in range(0, 200, 4)]
               + [Operation("delete", k, 0) for k in range(200, 300, 2)])
        up = GappedBatchUpdater(layout, fill=0.7)
        up.run(ops)
        assert np.array_equal(layout.key_region, before_keys)
        assert np.array_equal(layout.leaf_values, before_vals)
        assert np.array_equal(layout.prefix_sum, before_prefix)
        assert np.array_equal(layout.leaf_key_counts(), before_counts)
        assert up.new_layout is not layout

    def test_thread_count_independence(self):
        """``n_threads`` does not change the gapped executor's output:
        same layout bytes, same accounting."""
        tree = make_tree(2_000, 8, 0.7)
        rng = np.random.default_rng(7)
        kinds = rng.choice(["insert", "update", "delete"], size=600)
        keys = rng.integers(0, 4_000, size=600)
        ops = [Operation(str(k), int(key), int(key))
               for k, key in zip(kinds, keys)]
        serial = GappedBatchUpdater(tree.layout, fill=0.7)
        serial.run(ops, n_threads=1)
        threaded = GappedBatchUpdater(tree.layout, fill=0.7)
        threaded.run(ops, n_threads=4)
        assert_layouts_identical(serial.new_layout, threaded.new_layout)
        assert_results_identical(serial.result, threaded.result)

    def test_timer_phases_present(self):
        tree = make_tree(100, 8, 0.7)
        res = tree.apply_batch(
            [Operation("insert", 1, 1)], UpdateConfig(mode="gapped")
        )
        for phase in ("plan", "apply", "movement"):
            assert res.timer.get(phase) >= 0.0

    def test_epoch_manager_skips_copy(self):
        """The default flush must not clone the outgoing snapshot, and
        readers pinned on the old epoch keep their data."""
        keys = np.arange(0, 2_000, 2, dtype=np.int64)
        em = EpochManager(
            HarmoniaTree.from_sorted(keys, fanout=8, fill=0.7),
            update_config=UpdateConfig(),
        )
        pinned = em._snapshot()
        old_layout = pinned._layout
        em.submit(Operation("insert", 1, 1))
        em.submit(Operation("delete", 0, 0))
        em.flush()
        assert em.epoch == 1
        # New epoch is a distinct object; the pinned snapshot is the very
        # same array-backed layout, untouched.
        assert em._tree._layout is not old_layout
        assert pinned.search(0) == 0
        assert pinned.search(1) is None
        assert em.search(1) == 1
        assert em.search(0) is None
        em._tree.check_invariants()


# --------------------------------------------------------------------------
# Plan stage (GappedBatchUpdater._window_plan) and the apply verdicts
# --------------------------------------------------------------------------

def window_plan(layout, ops):
    """Run the plan stage of one window over ``layout``."""
    up = GappedBatchUpdater(layout, fill=0.7)
    up._adopt(layout, copy=True)
    keys = np.asarray([op.key for op in ops], dtype=np.int64)
    return keys, up._window_plan(keys)


class TestPlanStage:
    def test_groups_partition_and_stay_in_arrival_order(self):
        layout = HarmoniaLayout.from_sorted(
            np.arange(0, 2_000, 2, dtype=np.int64), fanout=8, fill=0.7
        )
        rng = np.random.default_rng(3)
        ops = [Operation("update", int(k), 0)
               for k in rng.integers(0, 2_000, size=300)]
        keys, (srt, ustart, uleaf, ukey) = window_plan(layout, ops)
        bounds = np.concatenate((ustart, [srt.size]))
        # Routing by the cached bounds agrees with a full traversal.
        leaves = locate_leaves_batch(layout, keys)
        seen = set()
        for b in range(ustart.size):
            idx = srt[bounds[b]:bounds[b + 1]]
            # One (leaf, key) bucket, arrival order preserved inside it.
            assert np.all(leaves[idx] == uleaf[b])
            assert np.all(keys[idx] == ukey[b])
            assert np.all(np.diff(idx) > 0)
            seen.update(int(i) for i in idx)
        assert seen == set(range(300))
        # Buckets ascend by (leaf, key).
        assert np.all(np.diff(uleaf) >= 0)
        assert np.all(np.diff(ukey) > 0)

    def test_update_only_classification(self):
        """On full leaves, an update-only leaf is absorbed in place while
        a leaf an insert pushes past its row is staged for an epoch."""
        # 196 keys chunk into 28 leaves of exactly 7 (every row full).
        layout = HarmoniaLayout.from_sorted(
            np.arange(0, 392, 2, dtype=np.int64), fanout=8, fill=1.0
        )
        assert np.all(layout.leaf_key_counts() == layout.slots)
        ops = [Operation("update", 0, 1),   # leaf A: update-only
               Operation("update", 2, 1),
               Operation("update", 388, 1),  # leaf Z: poisoned by insert
               Operation("insert", 389, 1)]
        up = GappedBatchUpdater(layout, fill=1.0)
        res = up.run(ops)
        assert up.absorbed_ops == 2 and up.overflow_ops == 2
        assert res.split_leaves == 1 and up.movement_epochs == 1
        assert (res.updated, res.inserted) == (3, 1)
        up.new_layout.check_invariants()

    def test_empty_plan(self):
        """An empty batch plans no window and keeps the snapshot."""
        layout = HarmoniaLayout.from_sorted(
            np.arange(10, dtype=np.int64), fanout=4
        )
        up = GappedBatchUpdater(layout)
        res = up.run([])
        assert up.windows == 0
        assert up.new_layout is layout
        assert res.n_effective == 0

    def test_kind_codes(self):
        assert len({K_INSERT, K_UPDATE, K_DELETE}) == 3
        layout = HarmoniaLayout.from_sorted(
            np.arange(0, 20, 2, dtype=np.int64), fanout=4, fill=1.0
        )
        assert layout.leaf_key_counts()[0] == layout.slots
        # One update on a full leaf absorbs; one insert must be staged.
        up = GappedBatchUpdater(layout, fill=1.0)
        up.run([Operation("update", 2, 2)])
        assert up.movement_epochs == 0 and up.overflow_ops == 0
        up = GappedBatchUpdater(layout, fill=1.0)
        up.run([Operation("insert", 1, 2)])
        assert up.movement_epochs == 1 and up.overflow_ops == 1
