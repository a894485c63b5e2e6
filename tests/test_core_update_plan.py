"""Scalar ≡ merge result equivalence for the batch-update pipeline.

The contract the production write (:meth:`HarmoniaTree.apply_batch`:
resolve the batch against the packed leaf block, merge the resolved run
into the next block) ships under (docs/update.md): for any batch it
produces the same :class:`~repro.core.update.BatchResult` accounting
(inserted/updated/deleted/failed), the same ``items()`` content and the
same ``search_batch`` answers as the Algorithm 1 reference
(``scalar_apply(tree, ops, n_threads=1)``), and a derived layout that
passes ``check_invariants`` — only the reference reports structural
counters.  Hypothesis pins the contract over random trees and op mixes;
directed tests cover the structural extremes (split-heavy, merge-heavy,
delete-everything) and the write's own guarantees (non-mutation of the
input snapshot, the timer phases, the op-kind codes).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EpochManager, HarmoniaTree
from repro.core.delta import resolve_batch
from repro.core.update import (
    K_DELETE,
    K_INSERT,
    K_UPDATE,
    KIND_CODE,
    Operation,
    scalar_apply,
)
from repro.errors import ConfigError


def make_tree(n_keys, fanout, fill, stride=2):
    keys = np.arange(0, n_keys * stride, stride, dtype=np.int64)
    return HarmoniaTree.from_sorted(keys, fanout=fanout, fill=fill)


def run_both(n_keys, fanout, fill, ops):
    """Apply ``ops`` through both executors on identical trees."""
    scalar_tree = make_tree(n_keys, fanout, fill)
    gapped_tree = make_tree(n_keys, fanout, fill)
    sres = scalar_apply(scalar_tree, ops, n_threads=1)
    gres = gapped_tree.apply_batch(ops)
    return scalar_tree, sres, gapped_tree, gres


def assert_trees_equivalent(stree, gtree, probe_hi=1300):
    """Same visible state: emptiness, content, point answers; the merge
    tree's derived layout is a valid one."""
    assert (stree.snapshot is None) == (gtree.snapshot is None)
    assert len(stree) == len(gtree)
    assert list(stree.items()) == list(gtree.items())
    probe = np.arange(-1, probe_hi, dtype=np.int64)
    assert np.array_equal(stree.search_batch(probe),
                          gtree.search_batch(probe))
    gtree.check_invariants()


def assert_results_identical(sres, gres):
    for field in ("inserted", "updated", "deleted", "failed"):
        assert getattr(sres, field) == getattr(gres, field), field


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
        # Only the reference splits leaves; the merge has none to split.
        assert sres.split_leaves > 0 and gres.split_leaves == 0
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_merge_heavy(self):
        """Deleting most keys underflows the reference's leaves."""
        ops = [Operation("delete", k, 0) for k in range(0, 1800, 2)]
        stree, sres, gtree, gres = run_both(1000, 8, 0.7, ops)
        assert sres.deleted == gres.deleted == 900
        assert sres.underflow_leaves > 0
        # The derived layout holds only the survivors' leaves.
        assert gtree.layout.n_leaves < make_tree(1000, 8, 0.7).layout.n_leaves
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_delete_everything(self):
        ops = [Operation("delete", k, 0) for k in range(0, 200, 2)]
        stree, sres, gtree, gres = run_both(100, 8, 0.7, ops)
        assert stree.snapshot is None and gtree.snapshot is None
        assert_results_identical(sres, gres)
        assert_trees_equivalent(stree, gtree)

    def test_update_only_fast_path(self):
        """A pure-update batch keeps the key set: the next block holds
        the same keys with the new values."""
        tree = make_tree(500, 16, 0.7)
        old = tree.snapshot
        ops = ([Operation("update", k, -k) for k in range(0, 400, 2)]
               + [Operation("update", 3, 0)])  # one miss
        res = tree.apply_batch(ops)
        assert res.updated == 200
        assert res.failed == 1
        assert np.array_equal(tree.snapshot.keys, old.keys)
        # The writes land in the new snapshot, not the old one.
        assert tree.search(4) == -4
        assert int(old.values[2]) == 4
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
        """Deletes of leaf minima and inserts just below them: the
        derived layout's separators follow the new minima, so routing
        still finds every key."""
        tree = make_tree(4_000, 64, 0.7)
        layout = tree.layout
        mins = layout.key_region[layout.leaf_start :, 0]
        ops = []
        for m in mins[1::2]:
            ops.append(Operation("delete", int(m), 0))   # min leaves the leaf
        for m in mins[2::4]:
            ops.append(Operation("insert", int(m) - 1, -1))  # new, lower key
        stree, sres, gtree, gres = run_both(4_000, 64, 0.7, ops)
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
        """Both executors share the bootstrap path on an empty tree."""
        ops = [Operation("insert", k, k) for k in range(50)]
        for write in (HarmoniaTree.apply_batch, scalar_apply):
            tree = HarmoniaTree.empty(fanout=8)
            res = write(tree, ops)
            assert res.inserted == 50
            assert tree.search(17) == 17


# --------------------------------------------------------------------------
# Executor guarantees
# --------------------------------------------------------------------------

class TestPipelineGuarantees:
    def test_input_layout_never_mutated(self):
        tree = make_tree(400, 8, 0.7)
        snap = tree.snapshot
        layout = tree.layout
        before_keys = layout.key_region.copy()
        before_vals = layout.leaf_values.copy()
        before_prefix = layout.prefix_sum.copy()
        before_counts = layout.leaf_key_counts()
        before_block = tuple(a.copy() for a in snap.packed_leaves())
        ops = ([Operation("insert", k, k) for k in range(1, 200, 2)]
               + [Operation("update", k, -k) for k in range(0, 200, 4)]
               + [Operation("delete", k, 0) for k in range(200, 300, 2)])
        tree.apply_batch(ops)
        assert np.array_equal(layout.key_region, before_keys)
        assert np.array_equal(layout.leaf_values, before_vals)
        assert np.array_equal(layout.prefix_sum, before_prefix)
        assert np.array_equal(layout.leaf_key_counts(), before_counts)
        for arr, saved in zip(snap.packed_leaves(), before_block):
            assert arr.tobytes() == saved.tobytes()
        assert tree.snapshot is not snap

    def test_apply_batch_takes_only_ops(self):
        """The merge has no options: a second argument is an error."""
        tree = make_tree(10, 8, 0.7)
        with pytest.raises(TypeError):
            tree.apply_batch([Operation("insert", 1, 1)], 4)
        assert len(tree) == 10

    def test_scalar_apply_refuses_a_pinned_view(self):
        """The reference, like the merge, takes no writes on a pinned
        snapshot+delta view."""
        em = EpochManager(make_tree(50, 8, 0.7))
        em.submit(Operation("insert", 1, 1))
        em.flush()
        view = em.pin()
        with pytest.raises(ConfigError):
            scalar_apply(view, [Operation("insert", 3, 3)])
        assert view.search(3) is None and em.search(3) is None

    def test_timer_phases_present(self):
        tree = make_tree(100, 8, 0.7)
        res = tree.apply_batch([Operation("insert", 1, 1)])
        # Resolution is the apply phase, the merge the movement phase.
        assert set(res.timer.seconds) == {"apply", "movement"}
        for phase in ("apply", "movement"):
            assert res.timer.get(phase) >= 0.0

    def test_epoch_manager_skips_copy(self):
        """A flush does not touch the outgoing snapshot, the drain swaps
        in a new block, and readers pinned on the old epoch keep their
        data throughout."""
        keys = np.arange(0, 2_000, 2, dtype=np.int64)
        em = EpochManager(HarmoniaTree.from_sorted(keys, fanout=8, fill=0.7))
        pinned = em._snapshot()
        old_snap = pinned.snapshot
        assert old_snap is em._tree.snapshot
        em.submit(Operation("insert", 1, 1))
        em.submit(Operation("delete", 0, 0))
        em.flush()
        assert em.epoch == 1
        # The flush published into the delta: the base is the very same
        # array-backed block until the drain replaces it.
        assert em._tree.snapshot is old_snap
        em.sync()
        assert em._tree.snapshot is not old_snap
        assert pinned.snapshot is old_snap
        assert pinned.search(0) == 0
        assert pinned.search(1) is None
        assert em.search(1) == 1
        assert em.search(0) is None
        em._tree.check_invariants()


# --------------------------------------------------------------------------
# The resolution stage (core.delta.resolve_batch): the merge's plan
# --------------------------------------------------------------------------

class TestPlanStage:
    def test_groups_partition_and_stay_in_arrival_order(self):
        """Resolution groups the ops per key and replays each group in
        arrival order: every op is counted once, and the run holds each
        touched key's final state — a per-key dict replay's."""
        rng = np.random.default_rng(3)
        present = np.arange(0, 2_000, 2, dtype=np.int64)
        kinds = rng.choice(["insert", "update", "delete"], size=300)
        keys = rng.integers(0, 200, size=300)  # many repeats per key
        ops = [Operation(str(k), int(key), i)
               for i, (k, key) in enumerate(zip(kinds, keys))]
        run, res = resolve_batch(ops, lambda u: np.isin(u, present))
        assert res.inserted + res.updated + res.deleted + res.failed == 300
        state = {int(k): -1 for k in present if k < 200}
        for op in ops:  # arrival order
            if op.kind == "insert" and op.key not in state:
                state[op.key] = op.value
            elif op.kind == "update" and op.key in state:
                state[op.key] = op.value
            elif op.kind == "delete":
                state.pop(op.key, None)
        assert np.all(np.diff(run.keys) > 0)
        for k, v, tomb in zip(run.keys.tolist(), run.values.tolist(),
                              run.tombstones.tolist()):
            assert (k not in state) if tomb else state[k] == v

    def test_empty_plan(self):
        """An empty batch resolves to an empty run and keeps the
        snapshot."""
        run, res = resolve_batch([], lambda u: np.zeros(u.size, bool))
        assert run.n == 0 and res.n_effective == 0
        tree = make_tree(10, 4, 1.0)
        snap = tree.snapshot
        tree.apply_batch([])
        assert tree.snapshot is snap

    def test_kind_codes(self):
        """One distinct code per kind, shared by batch resolution and the
        shard wire; resolution reads each op's outcome by its code."""
        assert len({K_INSERT, K_UPDATE, K_DELETE}) == 3
        assert KIND_CODE == {"insert": K_INSERT, "update": K_UPDATE,
                             "delete": K_DELETE}
        present = np.array([2], dtype=np.int64)

        def exists(ukeys):
            return np.isin(ukeys, present)

        run, res = resolve_batch(
            [Operation("update", 2, 5), Operation("insert", 1, 7),
             Operation("delete", 2), Operation("update", 9, 1)], exists)
        assert (res.inserted, res.updated, res.deleted, res.failed) \
            == (1, 1, 1, 1)
        assert run.keys.tolist() == [1, 2]
        assert run.tombstones.tolist() == [False, True]
        assert int(run.values[0]) == 7
