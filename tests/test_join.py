"""Dual-tree merge-join: equivalence with a sort-merge reference.

The join subsystem's contract is *byte-identity*: whatever combination
of gapped layouts, concurrent-epoch overlays, and sharding carries the
probe stream, ``merge_join`` must return exactly the numpy sort-merge
join of the two trees' visible items.  The hypothesis suites here pin
that contract on every surface (mirroring
``tests/test_ntg_perlevel.py``'s equivalence style); the directed
classes pin the hinted engine walk.

Values are drawn >= 1 throughout: a stored value equal to the
``NOT_FOUND`` sentinel is indistinguishable from a miss by design
(documented in ``repro/join/mergejoin.py``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import NOT_FOUND
from repro.core.engine import BatchQueryEngine, traversal_profile
from repro.core.epoch import EpochManager
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.errors import ConfigError
from repro.join import (
    JOIN_MODES,
    JoinResult,
    merge_join,
    sort_merge_reference,
)
from repro.workloads.generators import make_key_set, uniform_queries

join_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _items(keys, seed):
    """Sorted-unique keys with values in [1, 2**40) — never the sentinel."""
    rng = np.random.default_rng(seed)
    values = rng.integers(1, 1 << 40, size=keys.size, dtype=np.int64)
    return np.asarray(keys, dtype=np.int64), values


def _tree(keys, seed, fanout=16, keep_every=1):
    keys, values = _items(keys, seed)
    fill = 1.0 if keep_every > 1 else 0.7
    tree = HarmoniaTree.from_sorted(keys, values, fanout=fanout, fill=fill)
    if keep_every > 1:
        doomed = keys[np.arange(keys.size) % keep_every != 0]
        tree.apply_batch([Operation("delete", int(k)) for k in doomed])
    return tree


def _assert_matches_reference(tree_a, tree_b, items_a, items_b):
    for mode in JOIN_MODES:
        res = merge_join(tree_a, tree_b, mode=mode)
        ref = sort_merge_reference(items_a, items_b, mode)
        assert res.mode == mode
        assert np.array_equal(res.keys, ref.keys)
        assert np.array_equal(res.values_a, ref.values_a)
        if mode == "inner":
            assert np.array_equal(res.values_b, ref.values_b)
        else:
            assert res.values_b is None
        assert res.n_probes == ref.n_probes
        assert res.n_matches == ref.n_matches


@st.composite
def two_key_sets(draw):
    """Two sorted-unique key sets with tunable overlap, plus seeds."""
    n_a = draw(st.integers(min_value=0, max_value=512))
    n_b = draw(st.integers(min_value=1, max_value=512))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    overlap = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(seed)
    keys_b = np.unique(rng.integers(0, 4096, size=n_b, dtype=np.int64))
    shared = keys_b[rng.random(keys_b.size) < overlap]
    own = np.unique(rng.integers(0, 8192, size=n_a, dtype=np.int64))
    keys_a = np.unique(np.concatenate([shared, own]))
    return keys_a, keys_b, seed


# ------------------------------------------------- reference equivalence


class TestMergeJoinEquivalence:
    @join_settings
    @given(two_key_sets(), st.sampled_from([1, 1, 4, 8]))
    def test_plain_and_gapped_trees(self, sets, keep_every):
        keys_a, keys_b, seed = sets
        tree_a = _tree(keys_a, seed)
        tree_b = _tree(keys_b, seed + 1, keep_every=keep_every)
        _assert_matches_reference(
            tree_a, tree_b, tree_a._merged_items(), tree_b._merged_items()
        )

    def test_empty_probe_side(self):
        tree_a = _tree(np.empty(0, dtype=np.int64), 1)
        tree_b = _tree(np.arange(100, dtype=np.int64), 2)
        res = merge_join(tree_a, tree_b, mode="inner")
        assert res.n_probes == 0 and res.keys.size == 0
        assert res.selectivity == 0.0

    def test_invalid_mode_rejected(self):
        tree = _tree(np.arange(10, dtype=np.int64), 3)
        with pytest.raises(ConfigError):
            merge_join(tree, tree, mode="outer")
        with pytest.raises(ConfigError):
            sort_merge_reference(
                tree._merged_items(), tree._merged_items(), "outer"
            )

    def test_selectivity(self):
        r = JoinResult("inner", np.arange(3), np.arange(3), np.arange(3),
                       n_probes=12, n_matches=3)
        assert r.selectivity == 0.25


class TestJoinConcurrentEpoch:
    def test_epoch_build_side_with_pending_delta(self):
        keys_b = np.arange(0, 2000, 2, dtype=np.int64)
        mgr = EpochManager(_tree(keys_b, 41))
        mgr.submit_many(
            [Operation("insert", 2001 + 2 * i, 7 + i) for i in range(50)]
        )
        mgr.flush()  # publish a delta run, base snapshot stays behind
        mgr.submit(Operation("insert", 5001, 9))  # pending, unflushed
        tree_a = _tree(np.arange(0, 6000, 3, dtype=np.int64), 42)
        _assert_matches_reference(
            tree_a, mgr, tree_a._merged_items(), mgr.dump_items()
        )
        mgr.close()

    def test_epoch_probe_side(self):
        mgr = EpochManager(
            _tree(np.arange(0, 1000, 3, dtype=np.int64), 43),
        )
        mgr.submit_many([Operation("insert", 1 + 3 * i, 5) for i in range(40)])
        mgr.flush()
        tree_b = _tree(np.arange(0, 1200, 2, dtype=np.int64), 44)
        _assert_matches_reference(
            mgr, tree_b, mgr.dump_items(), tree_b._merged_items()
        )
        mgr.close()


class TestJoinSharded:
    def test_sharded_both_sides(self):
        from repro.shard import ShardedTree

        keys_b = make_key_set(4096, rng=51)
        vals_b = (np.arange(keys_b.size, dtype=np.int64) % 997) + 1
        rng = np.random.default_rng(52)
        keys_a = np.unique(np.concatenate([
            keys_b[rng.random(keys_b.size) < 0.4],
            np.unique(rng.integers(0, int(keys_b.max()) + 500, 1000)),
        ]))
        vals_a = (keys_a % 991) + 1
        tree_a = HarmoniaTree.from_sorted(keys_a, vals_a, fanout=16)
        with ShardedTree.from_sorted(
            keys_b, vals_b, n_shards=3, fanout=16
        ) as st_b:
            _assert_matches_reference(
                tree_a, st_b, tree_a._merged_items(), (keys_b, vals_b)
            )
            with ShardedTree.from_sorted(
                keys_a, vals_a, n_shards=2, fanout=16
            ) as st_a:
                res = merge_join(st_a, st_b, mode="inner")
                ref = sort_merge_reference((keys_a, vals_a), (keys_b, vals_b))
                assert np.array_equal(res.keys, ref.keys)
                assert np.array_equal(res.values_b, ref.values_b)


# ------------------------------------------------------ hinted engine walk


class TestExecuteHinted:
    @join_settings
    @given(st.integers(min_value=1, max_value=2048),
           st.integers(min_value=0, max_value=2**16),
           st.sampled_from([8, 16, 64]))
    def test_byte_identical_to_execute(self, n_keys, seed, fanout):
        keys = make_key_set(n_keys, rng=seed)
        tree = _tree(keys, seed + 1, fanout=fanout)
        q = np.sort(np.concatenate([
            uniform_queries(keys, 256, rng=seed + 2),
            uniform_queries(keys, 64, rng=seed + 3) + 1,  # misses
        ]))
        eng = BatchQueryEngine(tree.layout)
        assert np.array_equal(
            eng.execute_hinted(q), eng.execute(q, issue_sorted=True)
        )

    def test_rejects_unsorted(self):
        tree = _tree(np.arange(200, dtype=np.int64), 61)
        eng = BatchQueryEngine(tree.layout)
        with pytest.raises(ConfigError):
            eng.execute_hinted(np.array([5, 3, 9], dtype=np.int64))

    def test_stats_flag_and_frontier(self):
        tree = _tree(np.arange(0, 20000, 2, dtype=np.int64), 62)
        q = np.arange(0, 20000, 7, dtype=np.int64)
        eng = BatchQueryEngine(tree.layout)
        eng.execute_hinted(q)
        stats = eng.last_stats
        assert stats.hinted
        assert stats.unique_nodes_per_level[0] == 1  # root
        # Frontier counts never exceed the execute() compaction counts.
        eng2 = BatchQueryEngine(tree.layout)
        eng2.execute(q, issue_sorted=True)
        assert stats.total_node_reads <= eng2.last_stats.total_node_reads
        # Both are the work model of the batch, computed on demand.
        ref = traversal_profile(tree.layout, q, hinted=True)
        assert np.array_equal(stats.unique_nodes_per_level,
                              ref.unique_nodes_per_level)
        assert stats.grouped_levels == tree.layout.height - 1
        assert stats.broadcast_levels == 0
        with pytest.raises(ConfigError):
            traversal_profile(tree.layout, q[::-1], hinted=True)

    def test_out_of_range_probes_prune(self):
        # Probes past every key ride the KEY_MAX-padded rightmost path:
        # one node per level, all misses.
        tree = _tree(np.arange(1000, dtype=np.int64), 63)
        q = np.arange(10_000, 10_064, dtype=np.int64)
        eng = BatchQueryEngine(tree.layout)
        out = eng.execute_hinted(q)
        assert np.all(out == NOT_FOUND)
        assert np.all(eng.last_stats.unique_nodes_per_level == 1)


class TestSearchSortedMany:
    def test_matches_search_many_with_delta_overlay(self):
        mgr = EpochManager(
            _tree(np.arange(0, 3000, 2, dtype=np.int64), 71),
        )
        mgr.submit_many(
            [Operation("insert", 1 + 2 * i, 3 + i) for i in range(100)]
        )
        mgr.flush()
        tree = mgr.pin()  # snapshot + pinned delta overlay
        q = np.sort(uniform_queries(np.arange(0, 3100, dtype=np.int64),
                                    2048, rng=72))
        expect = tree.search_many(q)
        assert np.array_equal(tree.search_sorted_many(q), expect)


# ------------------------------------------------------------ observability


class TestJoinObservability:
    def test_join_metrics_recorded_and_valid(self):
        import repro.obs as obs
        from repro.obs.report import render_report
        from repro.obs.schema import validate_snapshot

        tree_a = _tree(np.arange(0, 2000, 3, dtype=np.int64), 91)
        tree_b = _tree(np.arange(0, 2000, 2, dtype=np.int64), 92)
        with obs.recording() as rec:
            merge_join(tree_a, tree_b, mode="inner")
        snap = rec.snapshot()
        assert validate_snapshot(snap) == []
        assert snap["counters"]["join.joins"] == 1
        assert snap["counters"]["join.probes"] == tree_a._merged_items()[0].size
        assert snap["counters"]["engine.hinted_batches"] == 1
        report = render_report(snap)
        assert "dual-tree joins" in report
