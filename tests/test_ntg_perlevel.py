"""Per-level NTG: degree vector, scan widths, caching depth, equivalence.

The per-level path (``SearchConfig.ntg_per_level=True``, the default) is a
*kernel-shape* optimization — it changes which lanes compare which slots
in the simulated kernel and work model, never what a query returns.  The
hypothesis suites here pin that contract byte-identical against the
global single-width ablation across every read surface (point, range,
stream) and through the snapshot wrappers (EpochManager, ShardedTree);
the directed classes pin the degree DP, the scan-width derivation, the
per-level work model, and the caching-depth memory split.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SearchConfig
from repro.core.layout import HarmoniaLayout
from repro.core.ntg import (
    NTGSelection,
    SelectionCache,
    choose_group_size,
    choose_level_degrees,
    level_scan_widths,
)
from repro.core.tree import HarmoniaTree, _profile_sample
from repro.core.update import Operation
from repro.errors import ConfigError
from repro.gpusim import simulate_harmonia_search
from repro.gpusim.device import TITAN_V
from repro.workloads.generators import make_key_set, uniform_queries


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def make_skewed_tree(n_keys=4096, fanout=16, keep_every=8, seed=3):
    """Dense internals over gap-thinned leaves: the occupancy skew the
    per-level degrees exist for."""
    keys = make_key_set(n_keys, rng=seed)
    survivors = keys[np.arange(keys.size) % keep_every == 0]
    layout = HarmoniaLayout.from_sorted(keys, fanout=fanout, fill=1.0)
    return HarmoniaTree(layout.thinned(survivors), fill=1.0), survivors


# --------------------------------------------------------------- degree DP


class TestChooseLevelDegrees:
    def test_non_increasing_and_power_of_two(self):
        rng = np.random.default_rng(1)
        full = rng.integers(1, 15, size=(4, 256)).astype(np.int64)
        early = np.maximum(full - rng.integers(0, 5, size=full.shape), 1)
        degrees = choose_level_degrees(full, early, warp_size=32,
                                       fanout_gs=16)
        assert len(degrees) == 4
        assert all(_is_pow2(d) and d <= 16 for d in degrees)
        assert all(a >= b for a, b in zip(degrees, degrees[1:]))

    def test_skewed_leaf_narrower_than_internal(self):
        # Dense internals (8 comparisons — every halving below 8 costs
        # the same warp-step slots, so the wide tie-break keeps 8) over
        # gap-thinned leaves that resolve in one comparison (degree 1 is
        # strictly cheapest).  The DP must narrow only the leaf.
        full = np.full((3, 512), 15, dtype=np.int64)
        early = np.vstack([
            np.full(512, 8, dtype=np.int64),    # root: dense
            np.full(512, 8, dtype=np.int64),    # mid: dense
            np.full(512, 1, dtype=np.int64),    # leaf: thin
        ])
        degrees = choose_level_degrees(full, early, warp_size=32,
                                       fanout_gs=16)
        assert degrees[-1] < degrees[0]
        assert degrees[0] == 8

    def test_wide_tie_break(self):
        # One comparison everywhere: every degree costs the same number
        # of warp step-slots... except that narrower degrees pack more
        # queries per warp, so the widest choice is only kept on real
        # ties.  With a single query there is exactly one warp whatever
        # the degree — a true tie — and the DP must keep the fanout
        # width (fewer splits, better locality).
        full = np.ones((3, 1), dtype=np.int64)
        early = np.ones((3, 1), dtype=np.int64)
        degrees = choose_level_degrees(full, early, warp_size=32,
                                       fanout_gs=8)
        assert degrees == (8, 8, 8)

    def test_min_gs_floor(self):
        full = np.full((2, 128), 1, dtype=np.int64)
        early = full.copy()
        degrees = choose_level_degrees(full, early, warp_size=32,
                                       min_gs=4, fanout_gs=16)
        assert all(d >= 4 for d in degrees)

    def test_min_gs_above_fanout_rejected(self):
        full = np.ones((1, 8), dtype=np.int64)
        with pytest.raises(ConfigError):
            choose_level_degrees(full, full, warp_size=32,
                                 min_gs=32, fanout_gs=8)

    def test_empty_trace(self):
        empty = np.empty((0, 0), dtype=np.int64)
        assert choose_level_degrees(empty, empty) == ()


class TestLevelScanWidths:
    def test_width_is_degree_multiple_covering_quantile(self):
        early = np.array([[3, 3, 3, 3, 3, 3, 3, 9]], dtype=np.int64)
        (w,) = level_scan_widths(early, (4,), slots=15, quantile=0.8)
        # 80th percentile is 3 → smallest multiple of 4 covering it.
        assert w == 4
        (w,) = level_scan_widths(early, (4,), slots=15, quantile=1.0)
        assert w == 12  # must cover the 9-comparison tail

    def test_capped_at_slots(self):
        early = np.full((1, 32), 60, dtype=np.int64)
        (w,) = level_scan_widths(early, (8,), slots=15)
        assert w == 15

    def test_empty_row_falls_back_to_slots(self):
        early = np.empty((1, 0), dtype=np.int64)
        (w,) = level_scan_widths(early, (4,), slots=15)
        assert w == 15

    def test_mismatched_degrees_rejected(self):
        early = np.ones((2, 4), dtype=np.int64)
        with pytest.raises(ConfigError):
            level_scan_widths(early, (4,), slots=15)

    def test_bad_quantile_rejected(self):
        early = np.ones((1, 4), dtype=np.int64)
        with pytest.raises(ConfigError):
            level_scan_widths(early, (4,), slots=15, quantile=0.0)


# ---------------------------------------------------- vector-valued cache


class TestSelectionCacheVectors:
    def test_cached_selection_preserves_vectors(self):
        keys = make_key_set(2_000, rng=5)
        layout = HarmoniaLayout.from_sorted(keys, fanout=16, fill=0.7)
        sel = choose_group_size(layout, keys[:512], warp_size=32)
        assert sel.ntg_degrees and sel.scan_widths
        assert len(sel.ntg_degrees) == layout.height
        cache = SelectionCache(capacity=2)
        cache.put(layout, 32, 2, sel)
        hit = cache.get(layout, 32, 2)
        assert hit is sel
        assert hit.ntg_degrees == sel.ntg_degrees
        assert hit.scan_widths == sel.scan_widths

    def test_eviction_drops_vector_entries_in_lru_order(self):
        keys = make_key_set(1_000, rng=6)
        layouts = [
            HarmoniaLayout.from_sorted(keys, fanout=8, fill=0.7 + 0.1 * i)
            for i in range(3)
        ]
        sels = [
            NTGSelection(group_size=4, ntg_degrees=(4,) * lay.height,
                         scan_widths=(lay.slots,) * lay.height)
            for lay in layouts
        ]
        cache = SelectionCache(capacity=2)
        for lay, sel in zip(layouts, sels):
            cache.put(lay, 32, 2, sel)
        assert cache.get(layouts[0], 32, 2) is None  # evicted
        assert cache.get(layouts[1], 32, 2) is sels[1]
        assert cache.get(layouts[2], 32, 2) is sels[2]

    def test_prepare_queries_returns_cached_vector(self):
        tree, survivors = make_skewed_tree(n_keys=2048)
        q = uniform_queries(survivors, 1024, rng=7)
        cfg = SearchConfig.full()
        p1 = tree.prepare_queries(q, cfg)
        p2 = tree.prepare_queries(q, cfg)
        assert p1.ntg_degrees == p2.ntg_degrees
        assert p1.scan_widths == p2.scan_widths
        assert p1.ntg_selection is p2.ntg_selection  # cache hit


# ---------------------------------------------- per-level work model


class TestChunkQuantum:
    def test_skewed_tree_uses_narrowest_level_cohort(self):
        # The narrow levels pack more queries per warp than the aggregate
        # width (warp_size // min(ntg_degrees) >= group_size), and the
        # work model the engine reports for the batch is traversal_profile
        # under the batch's per-level scan windows.
        from repro.core.engine import traversal_profile

        tree, survivors = make_skewed_tree()
        q = uniform_queries(survivors, 2048, rng=9)
        cfg = SearchConfig.full().with_(use_psa=False)
        prep = tree.prepare_queries(q, cfg)
        assert prep.ntg_degrees, "skewed tree must profile per level"
        assert prep.warp_size // min(prep.ntg_degrees) >= prep.group_size
        tree.search_many(q, cfg)
        stats = tree.last_engine_stats
        ref = traversal_profile(tree.layout, prep.queries,
                                scan_widths=prep.scan_widths)
        assert np.array_equal(stats.unique_nodes_per_level,
                              ref.unique_nodes_per_level)
        assert stats.capped_levels == ref.capped_levels
        # an arrival-order batch broadcasts, and the per-level windows
        # narrow at least one of those sweeps
        assert ref.broadcast_levels >= 1 and ref.capped_levels >= 1

    def test_global_fallback_keeps_legacy_quantum(self):
        # Without per-level NTG there are no scan windows, so the work
        # model never caps a broadcast sweep.
        from repro.core.engine import traversal_profile

        tree, survivors = make_skewed_tree()
        q = uniform_queries(survivors, 2048, rng=9)
        cfg = SearchConfig.full().with_(ntg_per_level=False, use_psa=False)
        prep = tree.prepare_queries(q, cfg)
        assert prep.ntg_degrees == () and prep.scan_widths == ()
        tree.search_many(q, cfg)
        stats = tree.last_engine_stats
        assert stats.broadcast_levels >= 1
        assert stats.capped_levels == 0
        assert stats.capped_levels == traversal_profile(
            tree.layout, prep.queries, scan_widths=None
        ).capped_levels


# ------------------------------------------------ caching-depth memory model


class TestCachingDepthModel:
    def test_tiny_budget_lowers_depth_and_costs_transactions(self):
        tree, survivors = make_skewed_tree()
        lay = tree.layout
        q = np.sort(uniform_queries(survivors, 2048, rng=11))
        prep = tree.prepare_queries(q, SearchConfig.full())
        from dataclasses import replace
        tiny_dev = replace(TITAN_V, const_budget_bytes=64)
        assert lay.caching_depth(64) < lay.caching_depth()
        m_full = simulate_harmonia_search(lay, prep.queries, prep.group_size)
        m_tiny = simulate_harmonia_search(
            lay, prep.queries, prep.group_size, device=tiny_dev
        )
        assert m_tiny.caching_depth == lay.caching_depth(64)
        assert m_tiny.gld_transactions > m_full.gld_transactions

    def test_uniform_degrees_identical_to_legacy_kernel(self):
        # A per-level vector of all-equal degrees must be bit-for-bit the
        # single-width kernel: same transactions at every level, same
        # summary counters.
        tree, survivors = make_skewed_tree()
        lay = tree.layout
        q = np.sort(uniform_queries(survivors, 2048, rng=12))
        gs = 4
        legacy = simulate_harmonia_search(lay, q, gs)
        uniform = simulate_harmonia_search(
            lay, q, gs, ntg_degrees=(gs,) * lay.height
        )
        assert np.array_equal(legacy.key_transactions,
                              uniform.key_transactions)
        assert legacy.summary() == uniform.summary()


# -------------------------------------------------------- profiling sample


class TestProfileSample:
    def test_small_batch_passthrough(self):
        q = np.arange(100, dtype=np.int64)
        assert _profile_sample(q, 1000, 32) is q

    def test_sorted_stays_sorted_and_spans_range(self):
        q = np.arange(100_000, dtype=np.int64)
        s = _profile_sample(q, 1000, 32)
        assert s.size <= 1000
        assert np.all(np.diff(s) > 0)
        # Blocks must reach both ends of the stream, not just the prefix
        # (the bias that mis-profiled upper levels).
        assert s[0] == 0 and s[-1] == q[-1]

    def test_blocks_are_contiguous_warp_multiples(self):
        q = np.arange(50_000, dtype=np.int64)
        s = _profile_sample(q, 1024, 32)
        block = 4 * 32
        assert s.size % block == 0
        runs = s.reshape(-1, block)
        assert np.all(np.diff(runs, axis=1) == 1)  # contiguous inside


# ------------------------------------------------ byte-identical contract


def _equiv_trees(n_keys, fanout, keep_every, seed):
    keys = make_key_set(n_keys, rng=seed)
    layout = HarmoniaLayout.from_sorted(keys, fanout=fanout, fill=1.0)
    if keep_every > 1:
        keys = keys[np.arange(keys.size) % keep_every == 0]
        layout = layout.thinned(keys)
    return HarmoniaTree(layout, fill=1.0), keys


CFG_PL = SearchConfig.full()
CFG_GL = SearchConfig.full().with_(ntg_per_level=False)

equiv_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tree_and_queries(draw):
    n_keys = draw(st.integers(min_value=64, max_value=2048))
    fanout = draw(st.sampled_from([8, 16, 64]))
    keep_every = draw(st.sampled_from([1, 1, 4, 8]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    nq = draw(st.integers(min_value=1, max_value=1024))
    return n_keys, fanout, keep_every, seed, nq


class TestPerLevelEquivalence:
    @equiv_settings
    @given(tree_and_queries())
    def test_point_lookups_byte_identical(self, params):
        n_keys, fanout, keep_every, seed, nq = params
        tree, keys = _equiv_trees(n_keys, fanout, keep_every, seed)
        q = uniform_queries(keys, nq, rng=seed + 1)
        # include guaranteed misses
        q = np.concatenate([q, q + 1])
        assert np.array_equal(
            tree.search_many(q, CFG_PL), tree.search_many(q, CFG_GL)
        )

    @equiv_settings
    @given(tree_and_queries())
    def test_range_scans_byte_identical(self, params):
        n_keys, fanout, keep_every, seed, nq = params
        tree, keys = _equiv_trees(n_keys, fanout, keep_every, seed)
        rng = np.random.default_rng(seed + 2)
        lo = rng.integers(0, keys.max() + 1, size=min(nq, 64))
        hi = lo + rng.integers(0, keys.max() // 4 + 1, size=lo.size)
        tree.search_config = CFG_PL
        a = tree.range_search_batch(lo, hi)
        tree.search_config = CFG_GL
        b = tree.range_search_batch(lo, hi)
        for (ka, va), (kb, vb) in zip(a, b):
            assert np.array_equal(ka, kb) and np.array_equal(va, vb)

    @equiv_settings
    @given(tree_and_queries())
    def test_large_batch_byte_identical(self, params):
        # One search_many batch of 2^15 + nq queries, whole.
        n_keys, fanout, keep_every, seed, nq = params
        tree, keys = _equiv_trees(n_keys, fanout, keep_every, seed)
        q = uniform_queries(keys, (1 << 15) + nq, rng=seed + 3)
        assert np.array_equal(
            tree.search_many(q, CFG_PL), tree.search_many(q, CFG_GL)
        )

    def test_epoch_manager_byte_identical(self):
        from repro.core.epoch import EpochManager

        tree_pl, keys = _equiv_trees(2048, 16, 8, seed=21)
        tree_gl, _ = _equiv_trees(2048, 16, 8, seed=21)
        q = uniform_queries(keys, 4096, rng=22)
        mgr_pl = EpochManager(tree_pl)
        mgr_gl = EpochManager(tree_gl)
        # interleave updates so both managers publish fresh epochs
        ops = [Operation("insert", int(keys[-1]) + 10 + i, i)
               for i in range(64)]
        mgr_pl.submit_many(ops)
        mgr_pl.flush()
        mgr_gl.submit_many(ops)
        mgr_gl.flush()
        assert np.array_equal(
            mgr_pl.search_many(q, CFG_PL), mgr_gl.search_many(q, CFG_GL)
        )
        assert np.array_equal(
            mgr_pl.search_many(q[:512], CFG_PL),
            mgr_gl.search_many(q[:512], CFG_GL),
        )

    def test_sharded_tree_byte_identical(self):
        from repro.shard import ShardedTree

        keys = make_key_set(4096, rng=31)
        q = np.concatenate([
            uniform_queries(keys, 2048, rng=32),
            uniform_queries(keys, 64, rng=33) + 1,  # misses
        ])
        with ShardedTree.from_sorted(
            keys, n_shards=2, fanout=16, search_config=CFG_PL
        ) as st_pl, ShardedTree.from_sorted(
            keys, n_shards=2, fanout=16, search_config=CFG_GL
        ) as st_gl:
            assert np.array_equal(
                st_pl.search_many(q), st_gl.search_many(q)
            )
