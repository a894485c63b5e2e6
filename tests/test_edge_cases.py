"""Deep edge cases across the stack: extreme fanouts, negative keys,
degenerate trees, boundary batch shapes."""

import numpy as np
import pytest

from repro import HarmoniaTree, NOT_FOUND, SearchConfig
from repro.core.layout import HarmoniaLayout
from repro.core.search import search_batch, traverse_batch
from repro.core.update import Operation
from repro.gpusim import simulate_harmonia_search


class TestNegativeKeys:
    """Keys are signed int64 end to end — including through PSA's radix
    sort (order-preserving sign-flip) and Equation 2's bit selection."""

    @pytest.fixture(scope="class")
    def tree(self):
        keys = np.arange(-10_000, 10_000, 4, dtype=np.int64)
        return HarmoniaTree.from_sorted(keys, keys * 3, fanout=16, fill=0.7)

    def test_scalar_search(self, tree):
        assert tree.search(-10_000) == -30_000
        assert tree.search(-4) == -12
        assert tree.search(-3) is None

    def test_batch_with_full_pipeline(self, tree, rng):
        q = rng.integers(-10_000, 10_000, size=2_000)
        full = tree.search_batch(q, SearchConfig.full())
        plain = tree.search_batch(q, SearchConfig.baseline_tree())
        assert np.array_equal(full, plain)
        hits = (q % 4 == 0) & (q >= -10_000)
        assert np.array_equal(full[hits], q[hits] * 3)

    def test_key_space_bits_is_full_width(self, tree):
        assert tree.layout.key_space_bits() == 64
        assert tree.layout.min_key() == -10_000

    def test_range_across_zero(self, tree):
        k, v = tree.range_search(-10, 10)
        assert k.tolist() == [-8, -4, 0, 4, 8]

    def test_updates_with_negative_keys(self, tree):
        t = HarmoniaTree.from_sorted(
            np.arange(-100, 100, 2, dtype=np.int64), fanout=8, fill=0.7
        )
        res = t.apply_batch([
            Operation("insert", -99, 1),
            Operation("update", -100, 2),
            Operation("delete", -98),
        ])
        assert res.n_effective == 3
        t.check_invariants()
        assert t.search(-99) == 1
        assert t.search(-100) == 2
        assert t.search(-98) is None

    def test_simulation_with_negative_keys(self, tree, rng):
        q = rng.choice(tree.layout.all_keys(), 512)
        prep = tree.prepare_queries(q, SearchConfig.full())
        m = simulate_harmonia_search(tree.layout, prep.queries, prep.group_size)
        assert m.gld_transactions > 0


class TestExtremeFanouts:
    def test_minimum_fanout_tree(self, rng):
        keys = np.sort(rng.choice(1 << 20, 2_000, replace=False)).astype(np.int64)
        layout = HarmoniaLayout.from_sorted(keys, fanout=3, fill=1.0)
        layout.check_invariants()
        assert layout.slots == 2
        out = search_batch(layout, keys[:200])
        assert np.array_equal(out, keys[:200])

    def test_huge_fanout_single_level(self):
        # 200 keys fit one 255-slot leaf: the root *is* the leaf.
        keys = np.arange(200, dtype=np.int64)
        layout = HarmoniaLayout.from_sorted(keys, fanout=256, fill=1.0)
        assert layout.height == 1
        layout.check_invariants()
        assert search_batch(layout, keys).tolist() == keys.tolist()
        # One more key level: force two levels.
        keys2 = np.arange(600, dtype=np.int64)
        layout2 = HarmoniaLayout.from_sorted(keys2, fanout=256, fill=1.0)
        assert layout2.height == 2
        layout2.check_invariants()
        assert search_batch(layout2, keys2[:50]).tolist() == keys2[:50].tolist()

    def test_fanout_larger_than_data(self):
        keys = np.arange(5, dtype=np.int64)
        layout = HarmoniaLayout.from_sorted(keys, fanout=512)
        assert layout.height == 1
        assert layout.n_nodes == 1

    def test_non_power_of_two_fanout(self, rng):
        keys = np.sort(rng.choice(1 << 20, 3_000, replace=False)).astype(np.int64)
        layout = HarmoniaLayout.from_sorted(keys, fanout=7, fill=0.8)
        layout.check_invariants()
        tr = traverse_batch(layout, keys[:100])
        assert np.all(tr.found)


class TestDegenerateBatches:
    @pytest.fixture(scope="class")
    def tree(self):
        return HarmoniaTree.from_sorted(
            np.arange(0, 1_000, 2, dtype=np.int64), fanout=8, fill=0.7
        )

    def test_single_query_batch(self, tree):
        out = tree.search_batch(np.array([4], dtype=np.int64),
                                SearchConfig.full())
        assert out.tolist() == [4]

    def test_batch_of_identical_queries(self, tree):
        q = np.full(1_000, 500, dtype=np.int64)
        out = tree.search_batch(q, SearchConfig.full())
        assert np.all(out == 500)

    def test_batch_all_misses(self, tree):
        q = np.arange(1, 1_000, 2, dtype=np.int64)  # all odd => absent
        out = tree.search_batch(q, SearchConfig.full())
        assert np.all(out == NOT_FOUND)

    def test_batch_smaller_than_warp(self, tree):
        q = np.array([0, 2, 4], dtype=np.int64)
        prep = tree.prepare_queries(q, SearchConfig.full())
        m = simulate_harmonia_search(tree.layout, prep.queries, prep.group_size)
        assert m.n_queries == 3
        assert m.n_warps >= 1

    def test_boundary_key_values(self):
        info = np.iinfo(np.int64)
        keys = np.array([info.min, -1, 0, 1, info.max - 1], dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, fanout=4)
        for k in keys:
            assert tree.search(int(k)) == int(k)
        assert tree.search(info.max - 2) is None

    def test_single_op_batches_every_kind(self):
        tree = HarmoniaTree.from_sorted(np.array([10], dtype=np.int64), fanout=4)
        assert tree.insert(5, 55)
        assert tree.update(5, 56)
        assert tree.delete(10)
        assert tree.search(5) == 56
        assert len(tree) == 1
        tree.check_invariants()


class TestUpdateEdgeCases:
    def test_batch_with_conflicting_duplicate_inserts(self):
        tree = HarmoniaTree.from_sorted(
            np.arange(0, 100, 2, dtype=np.int64), fanout=8, fill=0.6
        )
        ops = [Operation("insert", 1, i) for i in range(5)]
        res = tree.apply_batch(ops)
        assert res.inserted == 1
        assert res.failed == 4
        assert tree.search(1) in range(5)  # exactly one landed
        tree.check_invariants()

    def test_insert_then_delete_same_key_in_batch(self):
        tree = HarmoniaTree.from_sorted(
            np.arange(0, 100, 2, dtype=np.int64), fanout=8, fill=0.6
        )
        # Each key's ops apply in submission order.
        res = tree.apply_batch(
            [Operation("insert", 1, 1), Operation("delete", 1)]
        )
        assert res.inserted == 1 and res.deleted == 1
        assert tree.search(1) is None
        assert len(tree) == 50

    def test_grow_by_an_order_of_magnitude(self):
        tree = HarmoniaTree.from_sorted(
            np.arange(0, 100, 10, dtype=np.int64), fanout=8, fill=1.0
        )
        h0 = tree.height
        ops = [Operation("insert", k, k) for k in range(1_000, 3_000)]
        res = tree.apply_batch(ops)
        assert res.inserted == 2_000
        tree.check_invariants()
        assert tree.height > h0
        assert len(tree) == 2_010


#: Bulk input every surface must refuse before any state exists:
#: (keys, values) — unsorted, duplicate, the KEY_MAX sentinel, and values
#: that do not fit int64 (a Python int and a uint64 above its range).
BAD_BULK = {
    "unsorted": (np.array([4, 2, 6], dtype=np.int64), None),
    "duplicate": (np.array([2, 4, 4, 6], dtype=np.int64), None),
    "sentinel": (np.array([1, np.iinfo(np.int64).max], dtype=np.int64),
                 None),
    "value_overflow": (np.array([1, 2], dtype=np.int64), [5, 2 ** 64]),
    "uint_overflow": (np.array([1, 2], dtype=np.int64),
                      np.array([5, 2 ** 63], dtype=np.uint64)),
}


class TestEagerBulkRejections:
    """The bulk load only stores a validated block now (the layout is
    derived later), so every rejection must still happen at construction,
    on each surface, and leave existing state untouched."""

    @pytest.mark.parametrize("case", sorted(BAD_BULK))
    def test_tree_rejects_and_leaves_input_unchanged(self, case):
        keys, values = BAD_BULK[case]
        saved = keys.copy()
        with pytest.raises(ValueError):
            HarmoniaTree.from_sorted(keys, values, fanout=8, fill=0.7)
        assert keys.tobytes() == saved.tobytes()

    @pytest.mark.parametrize("case", sorted(BAD_BULK))
    def test_epoch_manager_reload_rejects_and_keeps_state(self, case):
        from repro.shard.worker import _WorkerState

        # A shard worker's load builds a fresh EpochManager over the bulk
        # input; a rejected load must keep the manager it had.
        state = _WorkerState(8, 0.7, None)
        good = np.arange(0, 100, 2, dtype=np.int64)
        state.load(good, good * 3)
        mgr = state.manager
        mgr.submit(Operation("insert", 1, 1))
        mgr.flush()
        keys, values = BAD_BULK[case]
        with pytest.raises(ValueError):
            state.load(keys, values)
        assert state.manager is mgr
        assert mgr.epoch == 1 and len(mgr) == good.size + 1
        assert mgr.search(1) == 1 and mgr.search(4) == 12

    @pytest.mark.parametrize("case", sorted(BAD_BULK))
    def test_sharded_tree_rejects_before_spawning(self, case):
        import multiprocessing as mp

        from repro.shard import ShardedTree

        before = set(mp.active_children())
        keys, values = BAD_BULK[case]
        with pytest.raises(ValueError):
            ShardedTree.from_sorted(keys, values, n_shards=2, fanout=8)
        assert set(mp.active_children()) == before
