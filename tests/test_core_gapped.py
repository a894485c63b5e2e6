"""Gapped ≡ scalar *result* equivalence for the in-place update executor.

The contract :class:`~repro.core.update_plan.GappedBatchUpdater` ships
under (docs/update.md): for any batch, ``UpdateConfig(mode="gapped")``
produces identical accounting (inserted/updated/deleted/failed), identical
query results and identical logical ``(key, value)`` content to
``UpdateConfig(mode="scalar", n_threads=1)`` — **not** byte-identical
layouts (gaps change the physical layout by design).  Hypothesis pins the
contract over random trees and op mixes, including through
:class:`~repro.core.epoch.EpochManager`; directed tests cover the movement
-epoch triggers (overflow, watermark, occupancy), windowed streaming,
emptying the tree mid-batch, the non-mutation guarantee, and the
derived arrays each snapshot is handed (routing bounds, leaf counts,
packed leaf block) against freshly derived ones.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.constants import KEY_MAX
from repro.core import EpochManager, HarmoniaTree, UpdateConfig
from repro.core.layout import HarmoniaLayout
from repro.core.update import Operation
from repro.core.update_plan import GappedBatchUpdater


def make_tree(n_keys, fanout, fill, stride=2):
    keys = np.arange(0, n_keys * stride, stride, dtype=np.int64)
    return HarmoniaTree.from_sorted(keys, fanout=fanout, fill=fill)


def run_both(n_keys, fanout, fill, ops, config=None):
    scalar_tree = make_tree(n_keys, fanout, fill)
    gapped_tree = make_tree(n_keys, fanout, fill)
    sres = scalar_tree.apply_batch(
        ops, UpdateConfig(mode="scalar", n_threads=1)
    )
    gres = gapped_tree.apply_batch(
        ops, config or UpdateConfig(mode="gapped")
    )
    return scalar_tree, sres, gapped_tree, gres


def assert_results_equivalent(scalar_tree, sres, gapped_tree, gres,
                              probe_hi=500):
    """The gapped contract: accounting, membership and values match; the
    physical layout is free to differ."""
    for field in ("inserted", "updated", "deleted", "failed"):
        assert getattr(sres, field) == getattr(gres, field), field
    # An emptied tree holds no layout in either mode.
    assert (scalar_tree._layout is None) == (gapped_tree._layout is None)
    assert len(scalar_tree) == len(gapped_tree)
    assert list(scalar_tree.items()) == list(gapped_tree.items())
    probe = np.arange(probe_hi, dtype=np.int64)
    assert np.array_equal(
        scalar_tree.search_batch(probe), gapped_tree.search_batch(probe)
    )
    if gapped_tree._layout is not None:
        gapped_tree._layout.check_invariants()


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
    # A one-leaf tree emptied by its batch: must end with no layout.
    @example(n_keys=1, fanout=4, fill=0.6, raw=[("delete", 0)])
    def test_mixed_batches(self, n_keys, fanout, fill, raw):
        run = run_both(n_keys, fanout, fill, to_ops(raw))
        assert_results_equivalent(*run)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 150),
        raw=st.lists(op_strategy, min_size=1, max_size=100),
        window=st.sampled_from([1, 3, 17]),
    )
    def test_windowed_streaming(self, n_keys, raw, window):
        """Tiny plan windows (down to one op per window) stream the batch
        through many plan/apply rounds — results must not depend on the
        window size."""
        cfg = UpdateConfig(mode="gapped", plan_window=window)
        run = run_both(n_keys, 8, 0.7, to_ops(raw), config=cfg)
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
        """Gaps accumulate across batches; every batch must stay
        equivalent to the scalar path applied to the same history."""
        scalar_tree = make_tree(n_keys, 8, 0.7)
        gapped_tree = make_tree(n_keys, 8, 0.7)
        for raw in raws:
            ops = to_ops(raw)
            sres = scalar_tree.apply_batch(
                ops, UpdateConfig(mode="scalar", n_threads=1)
            )
            gres = gapped_tree.apply_batch(ops, UpdateConfig(mode="gapped"))
            assert_results_equivalent(scalar_tree, sres, gapped_tree, gres)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 120),
        raw=st.lists(op_strategy, min_size=1, max_size=80),
    )
    def test_through_epoch_manager(self, n_keys, raw):
        ops = to_ops(raw)
        scalar_mgr = EpochManager(
            make_tree(n_keys, 8, 0.7),
            update_config=UpdateConfig(mode="scalar", n_threads=1),
        )
        gapped_mgr = EpochManager(
            make_tree(n_keys, 8, 0.7),
            update_config=UpdateConfig(mode="gapped"),
        )
        scalar_mgr.submit_many(ops)
        gapped_mgr.submit_many(ops)
        sres = scalar_mgr.flush()
        gres = gapped_mgr.flush()
        for field in ("inserted", "updated", "deleted", "failed"):
            assert getattr(sres, field) == getattr(gres, field), field
        probe = np.arange(500, dtype=np.int64)
        assert np.array_equal(
            scalar_mgr.search_batch(probe), gapped_mgr.search_batch(probe)
        )
        assert 0.0 <= gapped_mgr.occupancy() <= 1.0
        assert 0.0 <= gapped_mgr.compaction_pending() <= 1.0


class TestMovementTriggers:
    def test_pure_updates_never_run_an_epoch(self):
        tree = make_tree(400, 8, 0.7)
        ops = [Operation("update", k, k + 1) for k in range(0, 800, 2)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.failed == 0 and res.updated == 400
        assert updater.movement_epochs == 0
        assert updater.absorbed_ops == 400

    def test_light_inserts_absorb_without_an_epoch(self):
        tree = make_tree(400, 8, 0.7)
        # One insert per distinct leaf region; fill 0.7 of 7 slots leaves
        # slack everywhere, so nothing overflows and the watermark holds.
        ops = [Operation("insert", k, k) for k in range(1, 40, 8)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.inserted == len(ops)
        assert updater.movement_epochs == 0
        assert updater.new_layout.leaf_counts is not None

    def test_overflowing_one_leaf_forces_an_epoch(self):
        tree = make_tree(400, 8, 0.7)
        # 20 inserts into one leaf's key range cannot fit in its slack.
        ops = [Operation("insert", 801 + 2 * i, i) for i in range(20)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.inserted == 20
        assert updater.movement_epochs >= 1
        assert updater.overflow_ops > 0
        updater.new_layout.check_invariants()

    def test_delete_heavy_drift_triggers_occupancy_epoch(self):
        tree = make_tree(512, 8, 0.7)
        # Delete ~80% of the keys: occupancy sinks far below the default
        # 0.35 watermark, so a compaction epoch must re-chunk the leaves.
        ops = [Operation("delete", k) for k in range(0, 820, 2)]
        updater = GappedBatchUpdater(tree.layout, fill=0.7)
        res = updater.run(ops)
        assert res.deleted == 410
        assert updater.movement_epochs >= 1
        new = updater.new_layout
        new.check_invariants()
        assert new.occupancy() >= 0.35

    def test_watermark_knob_controls_epoch_frequency(self):
        # With watermark 1.0 and occupancy_low 0, only hard overflow can
        # force movement — deletes just leave gaps behind.
        tree = make_tree(256, 8, 0.7)
        ops = [Operation("delete", k) for k in range(0, 200, 2)]
        lax = UpdateConfig(mode="gapped", gap_watermark=1.0,
                           occupancy_low=0.0)
        updater = GappedBatchUpdater(tree.layout, fill=0.7, config=lax)
        updater.run(ops)
        assert updater.movement_epochs == 0
        counts = updater.new_layout.leaf_key_counts()
        assert counts.min() >= 0  # gaps, even empty leaves, are legal
        assert updater.new_layout.n_keys == 256 - 100

    def test_run_chunking_matches_the_bulk_build(self):
        """The epoch cuts every dirty run exactly as the bulk build cuts
        a sorted key array."""
        from repro.core.fastbuild import _chunk_sizes_fast
        from repro.core.update_plan import _chunk_runs

        for slots in (3, 7, 63):
            minimum = (slots + 1) // 2
            for target in sorted({minimum, (minimum + slots) // 2, slots}):
                totals = np.arange(0, 5 * slots + 3)
                sizes, n_rows = _chunk_runs(totals, target, minimum, slots)
                parts = np.split(sizes, np.cumsum(n_rows)[:-1])
                for t, got in zip(totals.tolist(), parts):
                    want = _chunk_sizes_fast(t, target, minimum, slots)
                    assert got.tolist() == want.tolist(), (slots, target, t)

    def test_emptying_the_tree_mid_batch_bootstraps(self):
        tree = make_tree(10, 4, 1.0)
        ops = [Operation("delete", k) for k in range(0, 20, 2)]
        ops += [Operation("insert", 5, 55), Operation("insert", 7, 77)]
        cfg = UpdateConfig(mode="gapped", plan_window=10)
        res = tree.apply_batch(ops, cfg)
        assert res.deleted == 10 and res.inserted == 2
        assert list(tree.items()) == [(5, 55), (7, 77)]

    def test_emptying_the_tree_entirely_yields_empty(self):
        tree = make_tree(8, 4, 1.0)
        ops = [Operation("delete", k) for k in range(0, 16, 2)]
        res = tree.apply_batch(ops, UpdateConfig(mode="gapped"))
        assert res.deleted == 8
        assert len(tree) == 0
        assert tree.search(0) is None
        assert tree._layout is None
        probe = np.arange(-1, 17, dtype=np.int64)
        assert np.all(tree.search_batch(probe) == tree.search_many(probe))


class TestExecutorGuarantees:
    def test_input_layout_never_mutated(self):
        tree = make_tree(300, 8, 0.7)
        before_k = tree.layout.key_region.copy()
        before_v = tree.layout.leaf_values.copy()
        snapshot = tree.layout
        ops = [Operation("insert", k, k) for k in range(1, 100, 2)]
        ops += [Operation("delete", k) for k in range(0, 100, 4)]
        ops += [Operation("update", k, 0) for k in range(100, 200, 2)]
        updater = GappedBatchUpdater(snapshot, fill=0.7)
        updater.run(ops)
        assert np.array_equal(snapshot.key_region, before_k)
        assert np.array_equal(snapshot.leaf_values, before_v)

    def test_empty_batch_returns_same_snapshot(self):
        tree = make_tree(50, 8, 0.7)
        snapshot = tree.layout
        updater = GappedBatchUpdater(snapshot, fill=0.7)
        res = updater.run([])
        assert updater.new_layout is snapshot
        assert res.n_effective == 0

    def test_last_wins_within_a_key_chain(self):
        tree = make_tree(50, 8, 0.7)
        ops = [
            Operation("insert", 7, 1),
            Operation("update", 7, 2),
            Operation("delete", 7),
            Operation("insert", 7, 3),
            Operation("update", 7, 4),
        ]
        res = tree.apply_batch(ops, UpdateConfig(mode="gapped"))
        assert (res.inserted, res.updated, res.deleted, res.failed) \
            == (2, 2, 1, 0)
        assert tree.search(7) == 4

    def test_n_threads_accepted_and_ignored(self):
        tree = make_tree(100, 8, 0.7)
        ops = [Operation("update", k, 9) for k in range(0, 100, 2)]
        res = tree.apply_batch(ops, UpdateConfig(mode="gapped", n_threads=8))
        assert res.updated == 50

    def test_gap_absorption_reported(self):
        import repro.obs as obs
        from repro.obs.schema import validate_snapshot

        tree = make_tree(400, 16, 0.7)
        ops = [Operation("update", k, 1) for k in range(0, 700, 2)]
        ops += [Operation("insert", k, 1) for k in range(1, 40, 8)]
        with obs.recording() as reg:
            tree.apply_batch(ops, UpdateConfig(mode="gapped"))
        snap = reg.snapshot()
        validate_snapshot(snap)
        assert snap["gauges"]["update.gap_absorption"] == 1.0
        assert snap["counters"]["update.movement_epochs"] == 0
        assert 0.0 < snap["gauges"]["layout.occupancy"] <= 1.0


    def test_spans_are_real_per_window_intervals(self):
        import repro.obs as obs
        from repro.obs.schema import validate_snapshot

        tree = make_tree(400, 8, 0.7)
        ops = [Operation("insert", 801 + 2 * i, i) for i in range(20)]
        ops += [Operation("update", k, 1) for k in range(0, 200, 2)]
        cfg = UpdateConfig(mode="gapped", plan_window=32)
        with obs.recording() as reg:
            t0 = __import__("time").perf_counter()
            tree.apply_batch(ops, cfg)
            t1 = __import__("time").perf_counter()
        spans = [s for s in reg.spans() if s[0].startswith("update.")]
        n_windows = -(-len(ops) // 32)
        assert [s[0] for s in spans] == [
            "update.plan", "update.apply", "update.movement"
        ] * n_windows
        # Back-to-back stages of consecutive windows, in time order,
        # inside the call: measured intervals, not back-dated sums.
        for a, b in zip(spans, spans[1:]):
            assert a[2] <= a[3] <= b[2] <= b[3]
        assert t0 <= spans[0][2] and spans[-1][3] <= t1
        snap = reg.snapshot()
        assert validate_snapshot(snap) == []
        assert snap["counters"]["update.windows"] == n_windows


def fresh_derived(layout):
    """Routing bounds, leaf counts and packed block recomputed from a
    cache-free copy of the layout's arrays."""
    clean = HarmoniaLayout(
        fanout=layout.fanout, height=layout.height,
        key_region=layout.key_region.copy(),
        prefix_sum=layout.prefix_sum.copy(),
        leaf_values=layout.leaf_values.copy(),
        level_starts=layout.level_starts.copy(),
        n_keys=layout.n_keys,
    )
    lk = clean.leaf_keys.ravel()
    live = lk != KEY_MAX
    packed = (lk[live], clean.leaf_values.ravel()[live])
    return clean.leaf_bounds(), clean.leaf_key_counts(), packed


def assert_handed_over(layout, bounds=False, counts=False, packed=False):
    """Every array a producer handed ``layout`` equals the fresh one; the
    flags name the arrays that must have been handed over."""
    want_bounds, want_counts, want_packed = fresh_derived(layout)
    if bounds:
        assert layout._leaf_bounds is not None
    if counts:
        assert layout.leaf_counts is not None
    if packed:
        assert layout._packed is not None
    if layout._leaf_bounds is not None:
        assert layout._leaf_bounds.tobytes() == want_bounds.tobytes()
    if layout.leaf_counts is not None:
        assert np.array_equal(layout.leaf_counts, want_counts)
    if layout._packed is not None:
        for got, want in zip(layout._packed, want_packed):
            assert not got.flags.writeable
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
    layout.check_invariants()


#: Delete-weighted ops: tombstone-heavy deltas and drained-away leaves.
tomb_strategy = st.tuples(
    st.sampled_from(["delete", "delete", "delete", "insert", "update"]),
    st.integers(0, 400),
)


class TestHandedOverArrays:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(1, 200),
        fanout=st.sampled_from([4, 8, 16]),
        fill=st.sampled_from([0.6, 1.0]),
        window=st.sampled_from([7, 1 << 16]),
        raws=st.lists(
            st.lists(st.one_of(op_strategy, tomb_strategy), max_size=60),
            min_size=1, max_size=3,
        ),
    )
    # A one-leaf tree that grows, then is emptied by its second batch.
    @example(n_keys=2, fanout=16, fill=1.0, window=1 << 16,
             raws=[[("insert", 1)], [("delete", 0), ("delete", 1),
                                     ("delete", 2)]])
    def test_plain_gapped_and_drained_layouts(self, n_keys, fanout, fill,
                                              window, raws):
        # Plain: the bulk build hands over its leaf chunk sizes.
        tree = make_tree(n_keys, fanout, fill)
        assert_handed_over(tree.layout, counts=True)
        # Gapped: counts and carried routing bounds, batch after batch.
        cfg = UpdateConfig(mode="gapped", plan_window=window)
        for raw in raws:
            # An empty batch keeps the snapshot; an empty tree bootstraps
            # through the bulk build.
            absorbed = bool(raw) and tree._layout is not None
            tree.apply_batch(to_ops(raw), cfg)
            if tree._layout is not None:
                assert_handed_over(tree.layout, bounds=absorbed, counts=True)
        # Drained: the merged arrays are the new snapshot's packed block.
        mgr = EpochManager(make_tree(n_keys, fanout, fill), concurrent=True,
                           drain_threshold=1 << 30)
        ref = make_tree(n_keys, fanout, fill)
        for raw in raws:
            mgr.submit_many(to_ops(raw))
            mgr.flush()
            ref.apply_batch(to_ops(raw), UpdateConfig(mode="scalar"))
            drains = mgr.drains
            mgr.drain(wait=True)
            layout = mgr._tree._layout
            assert (layout is None) == (ref._layout is None)
            if layout is not None:
                # A batch that changed nothing leaves no delta to drain.
                assert_handed_over(layout, counts=True,
                                   packed=mgr.drains > drains)
            assert list(mgr.pin().items()) == list(ref.items())


class TestShardedGapped:
    def test_sharded_tree_inherits_gapped_mode(self):
        pytest.importorskip("multiprocessing")
        from repro.shard import ShardedTree

        keys = np.arange(0, 4000, 2, dtype=np.int64)
        ops = [Operation("insert", k, k) for k in range(1, 400, 8)]
        ops += [Operation("update", k, 5) for k in range(0, 400, 2)]
        ops += [Operation("delete", k) for k in range(400, 500, 4)]

        ref = HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7)
        sref = ref.apply_batch(ops, UpdateConfig(mode="scalar", n_threads=1))

        with ShardedTree.from_sorted(
            keys, n_shards=2, fanout=16, fill=0.7,
            update_config=UpdateConfig(mode="gapped"),
        ) as sharded:
            gres = sharded.apply_batch(ops)
            for field in ("inserted", "updated", "deleted", "failed"):
                assert getattr(sref, field) == getattr(gres, field), field
            probe = np.arange(600, dtype=np.int64)
            assert np.array_equal(
                ref.search_batch(probe), sharded.search_many(probe)
            )
