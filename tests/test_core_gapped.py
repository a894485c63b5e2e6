"""Merge ≡ scalar *result* equivalence for the production write.

The contract :meth:`~repro.core.tree.HarmoniaTree.apply_batch` ships
under (docs/update.md): for any batch, the merge — resolve the batch
against the packed leaf block, merge the resolved run into the next
block — produces identical accounting (inserted/updated/deleted/failed),
identical query results and identical logical ``(key, value)`` content
to ``scalar_apply(tree, ops, n_threads=1)``, the Algorithm 1 reference.  Hypothesis pins the contract
over random trees and op mixes, including through
:class:`~repro.core.epoch.EpochManager`; directed tests cover emptying the
tree, the non-mutation guarantee, the measured spans, and the state each
snapshot holds after bulk loads, writes, drains and shard applies: a
block equal to a dict oracle, a layout derived only on demand and equal
to a fresh bulk build at the derived fill.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import EpochManager, HarmoniaTree
from repro.core.layout import HarmoniaLayout
from repro.core.update import Operation, scalar_apply


def make_tree(n_keys, fanout, fill, stride=2):
    keys = np.arange(0, n_keys * stride, stride, dtype=np.int64)
    return HarmoniaTree.from_sorted(keys, fanout=fanout, fill=fill)


def run_both(n_keys, fanout, fill, ops):
    scalar_tree = make_tree(n_keys, fanout, fill)
    merge_tree = make_tree(n_keys, fanout, fill)
    sres = scalar_apply(scalar_tree, ops, n_threads=1)
    mres = merge_tree.apply_batch(ops)
    return scalar_tree, sres, merge_tree, mres


def assert_results_equivalent(scalar_tree, sres, merge_tree, mres,
                              probe_hi=500):
    """The contract: accounting, membership and values match; the
    physical layout is free to differ."""
    for field in ("inserted", "updated", "deleted", "failed"):
        assert getattr(sres, field) == getattr(mres, field), field
    # An emptied tree holds no snapshot in either mode.
    assert (scalar_tree.snapshot is None) == (merge_tree.snapshot is None)
    assert len(scalar_tree) == len(merge_tree)
    assert list(scalar_tree.items()) == list(merge_tree.items())
    probe = np.arange(probe_hi, dtype=np.int64)
    assert np.array_equal(
        scalar_tree.search_batch(probe), merge_tree.search_batch(probe)
    )
    merge_tree.check_invariants()


op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(0, 400),
)


def to_ops(raw):
    return [Operation(kind, key, key * 7 + 1) for kind, key in raw]


class TestEquivalenceProperty:
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 200),
        fanout=st.sampled_from([4, 8, 16]),
        fill=st.sampled_from([0.6, 0.7, 1.0]),
        raw=st.lists(op_strategy, min_size=0, max_size=120),
    )
    # A one-leaf tree emptied by its batch: must end with no snapshot.
    @example(n_keys=1, fanout=4, fill=0.6, raw=[("delete", 0)])
    def test_mixed_batches(self, n_keys, fanout, fill, raw):
        run = run_both(n_keys, fanout, fill, to_ops(raw))
        assert_results_equivalent(*run)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 150),
        raws=st.lists(
            st.lists(op_strategy, min_size=0, max_size=40),
            min_size=2, max_size=4,
        ),
    )
    def test_sequential_batches(self, n_keys, raws):
        """Every batch must stay equivalent to the scalar path applied to
        the same history."""
        scalar_tree = make_tree(n_keys, 8, 0.7)
        merge_tree = make_tree(n_keys, 8, 0.7)
        for raw in raws:
            ops = to_ops(raw)
            sres = scalar_apply(scalar_tree, ops, n_threads=1)
            mres = merge_tree.apply_batch(ops)
            assert_results_equivalent(scalar_tree, sres, merge_tree, mres)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 120),
        raw=st.lists(op_strategy, min_size=1, max_size=80),
    )
    def test_through_epoch_manager(self, n_keys, raw):
        """A flush (published into the delta) and the drain after it
        both match the scalar reference."""
        ops = to_ops(raw)
        scalar_tree = make_tree(n_keys, 8, 0.7)
        mgr = EpochManager(make_tree(n_keys, 8, 0.7))
        sres = scalar_apply(scalar_tree, ops, n_threads=1)
        mgr.submit_many(ops)
        mres = mgr.flush()
        for field in ("inserted", "updated", "deleted", "failed"):
            assert getattr(sres, field) == getattr(mres, field), field
        probe = np.arange(500, dtype=np.int64)
        for _ in range(2):
            assert np.array_equal(
                scalar_tree.search_batch(probe), mgr.search_batch(probe)
            )
            assert len(scalar_tree) == len(mgr)
            mgr.sync()


class TestMovementTriggers:
    """Edge cases of the movement step — the merge that builds the next
    block."""

    def test_emptying_the_tree_mid_batch_bootstraps(self):
        tree = make_tree(10, 4, 1.0)
        ops = [Operation("delete", k) for k in range(0, 20, 2)]
        ops += [Operation("insert", 5, 55), Operation("insert", 7, 77)]
        res = tree.apply_batch(ops)
        assert res.deleted == 10 and res.inserted == 2
        assert list(tree.items()) == [(5, 55), (7, 77)]

    def test_emptying_the_tree_entirely_yields_empty(self):
        tree = make_tree(8, 4, 1.0)
        ops = [Operation("delete", k) for k in range(0, 16, 2)]
        res = tree.apply_batch(ops)
        assert res.deleted == 8
        assert len(tree) == 0
        assert tree.search(0) is None
        assert tree.snapshot is None
        probe = np.arange(-1, 17, dtype=np.int64)
        assert np.all(tree.search_batch(probe) == tree.search_many(probe))


class TestExecutorGuarantees:
    def test_input_layout_never_mutated(self):
        tree = make_tree(300, 8, 0.7)
        snapshot = tree.snapshot
        before_k = tree.layout.key_region.copy()
        before_v = tree.layout.leaf_values.copy()
        block = tuple(a.copy() for a in snapshot.packed_leaves())
        ops = [Operation("insert", k, k) for k in range(1, 100, 2)]
        ops += [Operation("delete", k) for k in range(0, 100, 4)]
        ops += [Operation("update", k, 0) for k in range(100, 200, 2)]
        tree.apply_batch(ops)
        assert tree.snapshot is not snapshot
        assert np.array_equal(snapshot.layout.key_region, before_k)
        assert np.array_equal(snapshot.layout.leaf_values, before_v)
        for arr, saved in zip(snapshot.packed_leaves(), block):
            assert not arr.flags.writeable
            assert arr.tobytes() == saved.tobytes()

    def test_empty_batch_returns_same_snapshot(self):
        tree = make_tree(50, 8, 0.7)
        snapshot = tree.snapshot
        res = tree.apply_batch([])
        assert tree.snapshot is snapshot
        assert res.n_effective == 0
        # A batch whose every op fails changes nothing either.
        tree.apply_batch([Operation("delete", 1), Operation("insert", 0, 9)])
        assert tree.snapshot is snapshot

    def test_last_wins_within_a_key_chain(self):
        tree = make_tree(50, 8, 0.7)
        ops = [
            Operation("insert", 7, 1),
            Operation("update", 7, 2),
            Operation("delete", 7),
            Operation("insert", 7, 3),
            Operation("update", 7, 4),
        ]
        res = tree.apply_batch(ops)
        assert (res.inserted, res.updated, res.deleted, res.failed) \
            == (2, 2, 1, 0)
        assert tree.search(7) == 4

    def test_spans_are_real_intervals(self):
        import repro.obs as obs
        from repro.obs.schema import validate_snapshot

        tree = make_tree(400, 8, 0.7)
        ops = [Operation("insert", 801 + 2 * i, i) for i in range(20)]
        ops += [Operation("update", k, 1) for k in range(0, 200, 2)]
        with obs.recording() as reg:
            t0 = time.perf_counter()
            tree.apply_batch(ops)
            t1 = time.perf_counter()
        spans = {s[0]: s for s in reg.spans() if s[0].startswith("update.")}
        assert set(spans) == {"update.apply", "update.resolve",
                              "update.merge"}
        apply, resolve, merge = (spans[n] for n in (
            "update.apply", "update.resolve", "update.merge"))
        # Back-to-back measured stages that exactly tile the parent,
        # inside the call: measured intervals, not back-dated sums.
        assert t0 <= apply[2] == resolve[2] <= resolve[3] == merge[2]
        assert merge[2] <= merge[3] == apply[3] <= t1
        snap = reg.snapshot()
        assert validate_snapshot(snap) == []
        assert snap["counters"]["update.ops"] == len(ops)


def assert_snapshot_state(snap, items, derived=None):
    """``snap``'s block equals the oracle ``items`` (a dict); when its
    layout is built, it equals a fresh bulk build of the block at the
    derived fill."""
    keys, values = snap.packed_leaves()
    assert keys.tolist() == sorted(items)
    assert values.tolist() == [items[k] for k in sorted(items)]
    assert not keys.flags.writeable and not values.flags.writeable
    if derived is not None:
        assert snap.derived is derived
    want = HarmoniaLayout.from_sorted(keys, values, fanout=snap.fanout,
                                      fill=snap.derived_fill)
    got = snap.layout
    for name in ("key_region", "prefix_sum", "leaf_values", "level_starts"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    got.check_invariants()


def apply_to_oracle(oracle, ops):
    for op in ops:
        if op.kind == "insert":
            oracle.setdefault(op.key, op.value)
        elif op.kind == "update":
            if op.key in oracle:
                oracle[op.key] = op.value
        else:
            oracle.pop(op.key, None)


#: Delete-weighted ops: tombstone-heavy deltas and drained-away keys.
tomb_strategy = st.tuples(
    st.sampled_from(["delete", "delete", "delete", "insert", "update"]),
    st.integers(0, 400),
)


class TestHandedOverArrays:
    """Each snapshot's block equals a dict oracle after bulk loads, merge
    writes, drains and shard applies; its layout is built only on demand
    and then equals a fresh bulk build at the derived fill."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 200),
        fanout=st.sampled_from([4, 8, 16]),
        fill=st.sampled_from([0.6, 1.0]),
        raws=st.lists(
            st.lists(st.one_of(op_strategy, tomb_strategy), max_size=60),
            min_size=1, max_size=3,
        ),
    )
    # A one-leaf tree that grows, then is emptied by its second batch.
    @example(n_keys=2, fanout=16, fill=1.0,
             raws=[[("insert", 1)], [("delete", 0), ("delete", 1),
                                     ("delete", 2)]])
    def test_plain_written_and_drained_blocks(self, n_keys, fanout, fill,
                                              raws):
        tree = make_tree(n_keys, fanout, fill)
        oracle = {k: k for k in range(0, 2 * n_keys, 2)}
        assert_snapshot_state(tree.snapshot, oracle, derived=False)
        mgr = EpochManager(make_tree(n_keys, fanout, fill),
                           drain_threshold=1 << 30)
        for raw in raws:
            ops = to_ops(raw)
            apply_to_oracle(oracle, ops)
            tree.apply_batch(ops)
            mgr.submit_many(ops)
            mgr.flush()
            mgr.drain(wait=True)
            for snap in (tree.snapshot, mgr._tree.snapshot):
                assert (snap is None) == (not oracle)
                if snap is not None:
                    assert_snapshot_state(snap, oracle)

    def test_derived_fill_tracks_growth(self):
        keys = np.arange(0, 2000, 2, dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7)
        snap = tree.snapshot
        assert snap.derived_fill == 0.7
        tree.apply_batch([Operation("insert", k, k) for k in range(1, 501, 2)])
        assert tree.snapshot.n_bulk == keys.size
        assert tree.snapshot.derived_fill == pytest.approx(0.7 * 1250 / 1000)
        # Growth fills the bulk load's slack: no more leaves than it had.
        assert tree.layout.n_leaves <= snap.layout.n_leaves
        tree.apply_batch([Operation("delete", k) for k in range(0, 1600, 2)])
        assert tree.snapshot.derived_fill == 0.7  # shrunk: clamped at fill
        tree.apply_batch([Operation("insert", k, k)
                          for k in range(2001, 20001, 2)])
        assert tree.snapshot.derived_fill == 1.0  # clamped at 1

    def test_reads_writes_and_drains_leave_the_layout_underived(self):
        from repro.join import merge_join

        keys = np.arange(0, 4000, 2, dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, keys * 3, fanout=16, fill=0.7)
        other = HarmoniaTree.from_sorted(keys[::3], fanout=16, fill=0.7)
        ops = [Operation("insert", k, k) for k in range(1, 400, 4)]
        ops += [Operation("delete", k) for k in range(400, 800, 4)]
        tree.apply_batch(ops)
        q = np.arange(-3, 4100, 5, dtype=np.int64)
        tree.search(6)
        tree.search_many(q)
        tree.search_sorted_many(np.sort(q))
        tree.range_search_batch(q[:50], q[:50] + 40)
        list(tree.items(start=100))
        merge_join(tree, other)
        assert not tree.snapshot.derived and not other.snapshot.derived
        mgr = EpochManager(tree, drain_threshold=1 << 30)
        before = tree.snapshot
        mgr.submit_many([Operation("insert", k, k) for k in range(3, 90, 4)])
        mgr.flush()
        mgr.search_many(q)
        mgr.range_search_batch(q[:50], q[:50] + 40)
        mgr.drain(wait=True)
        snap = tree.snapshot
        assert snap is not before and not snap.derived
        # Until then a snapshot holds its block alone: 16 B per key.
        assert snap.resident_bytes() == 16 * snap.n_keys
        # The layout users derive it on demand, and it adds its regions.
        pinned = mgr.pin()
        pinned.search_many(q)
        assert not snap.derived
        pinned.last_engine_stats
        assert snap.derived
        lay = snap.layout
        assert snap.resident_bytes() == 16 * snap.n_keys + (
            lay.key_region_bytes() + lay.child_region_bytes()
            + lay.values_bytes())

    def test_shard_worker_block_matches_oracle(self):
        from repro.shard import ShardedTree
        from repro.shard.worker import _WorkerState

        keys = np.arange(0, 3000, 3, dtype=np.int64)
        oracle = {int(k): int(k) * 5 for k in keys}
        batches = [
            [Operation("insert", k, k) for k in range(1, 900, 7)]
            + [Operation("delete", k) for k in range(0, 600, 9)],
            [Operation("update", k, -k) for k in range(0, 3000, 6)]
            + [Operation("delete", k) for k in range(1, 300, 7)],
        ]
        # The worker's own state: one epoch manager per shard.
        state = _WorkerState(8, 0.7, None)
        state.load(keys, keys * 5)
        for ops in batches:
            state.manager.submit_many(ops)
            state.manager.flush()
            apply_to_oracle(oracle, ops)
        # Writes land in the delta; the drain merges it into the block.
        state.manager.drain()
        snap = state.manager._tree.snapshot
        assert not snap.derived
        assert_snapshot_state(snap, oracle)
        # Real worker processes: the dumped blocks join to the oracle.
        with ShardedTree.from_sorted(keys, keys * 5, n_shards=2, fanout=8,
                                     fill=0.7) as st_:
            for ops in batches:
                st_.apply_batch(ops)
            dumps = [st_._dump(s) for s in range(st_.n_shards)]
        got_k = np.concatenate([k for k, _ in dumps])
        got_v = np.concatenate([v for _, v in dumps])
        assert got_k.tolist() == sorted(oracle)
        assert got_v.tolist() == [oracle[k] for k in sorted(oracle)]


class TestShardedMerge:
    def test_sharded_tree_inherits_merge_mode(self):
        """Shard workers write through the delta; their accounting and
        reads equal the scalar reference's."""
        pytest.importorskip("multiprocessing")
        from repro.shard import ShardedTree

        keys = np.arange(0, 4000, 2, dtype=np.int64)
        ops = [Operation("insert", k, k) for k in range(1, 400, 8)]
        ops += [Operation("update", k, 5) for k in range(0, 400, 2)]
        ops += [Operation("delete", k) for k in range(400, 500, 4)]

        ref = HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7)
        sref = scalar_apply(ref, ops, n_threads=1)

        with ShardedTree.from_sorted(
            keys, n_shards=2, fanout=16, fill=0.7,
        ) as sharded:
            mres = sharded.apply_batch(ops)
            for field in ("inserted", "updated", "deleted", "failed"):
                assert getattr(sref, field) == getattr(mres, field), field
            probe = np.arange(600, dtype=np.int64)
            assert np.array_equal(
                ref.search_batch(probe), sharded.search_many(probe)
            )
