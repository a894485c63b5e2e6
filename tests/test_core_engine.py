"""Tests for the batch lookup engine and its GPU work model.

Three layers of assurance:

* unit behaviour — stats, sharding, config wiring;
* property-based equivalence — :class:`BatchQueryEngine` vs
  :func:`search_batch` vs :func:`search_scalar` on random trees (fanout,
  fill, duplicate-at-separator edge cases) and on PSA-sorted vs unsorted
  batches, results bit-identical including restore-to-issue-order;
* the tier-1 smoke test pinning the ``unique_nodes_per_level`` counter's
  monotonicity (the Equation 1 disjoint-children property).

The work model itself (:func:`traversal_profile`) is pinned against
golden values in ``tests/test_traversal_profile.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import NOT_FOUND
from repro.core import BatchQueryEngine, HarmoniaTree, SearchConfig
from repro.core.engine import GROUP_THRESHOLD, traversal_profile
from repro.core.layout import HarmoniaLayout
from repro.core.psa import fully_sorted_batch, identity_batch, prepare_batch
from repro.core.search import search_batch, search_scalar
from repro.errors import ConfigError
from repro.workloads.generators import make_key_set

key_strategy = st.integers(min_value=0, max_value=(1 << 48) - 1)
fanout_strategy = st.sampled_from([3, 4, 8, 16, 64])

common_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ------------------------------------------------------------------ units


class TestEngineUnits:
    def test_invalid_config(self, small_layout):
        with pytest.raises(ConfigError):
            BatchQueryEngine("not a layout")
        # The engine takes only a layout: it has no thread pool to size.
        with pytest.raises(TypeError):
            BatchQueryEngine(small_layout, n_workers=2)

    def test_group_threshold_splits_levels(self, medium_layout, medium_keys,
                                           rng):
        # The grouped/broadcast split is a property of the work model:
        # an internal level is grouped exactly when its frontier runs
        # average at least GROUP_THRESHOLD queries.
        for q in (rng.choice(medium_keys, 4_000), np.sort(medium_keys[:4_000])):
            st_ = traversal_profile(medium_layout, q)
            runs = st_.unique_nodes_per_level[:-1]
            want = int(np.count_nonzero(runs * GROUP_THRESHOLD <= q.size))
            assert st_.grouped_levels == want
            assert st_.broadcast_levels == medium_layout.height - 1 - want
        # arrival order breaks the runs up; sorted order never does
        assert traversal_profile(
            medium_layout, rng.choice(medium_keys, 4_000)
        ).broadcast_levels > 0
        assert traversal_profile(
            medium_layout, np.sort(medium_keys[:4_000])
        ).broadcast_levels == 0

    def test_empty_batch(self, small_layout):
        eng = BatchQueryEngine(small_layout)
        out = eng.execute(np.array([], dtype=np.int64))
        assert out.size == 0
        assert eng.last_stats.n_queries == 0
        assert eng.last_stats.unique_nodes_per_level.size == small_layout.height

    def test_matches_naive_on_fixture(self, medium_layout, medium_keys, rng):
        q = np.concatenate([
            rng.choice(medium_keys, 3_000),
            rng.integers(0, 1 << 34, 3_000),
        ]).astype(np.int64)
        eng = BatchQueryEngine(medium_layout)
        assert np.array_equal(eng.execute(q), search_batch(medium_layout, q))

    def test_stats_shape_and_ratio(self, medium_layout, medium_keys):
        q = np.sort(medium_keys[:4_000])
        eng = BatchQueryEngine(medium_layout)
        eng.execute(q, issue_sorted=True)
        st_ = eng.last_stats
        assert st_.unique_nodes_per_level.shape == (medium_layout.height,)
        assert st_.unique_nodes_per_level[0] == 1  # single root run
        assert st_.issue_sorted is True
        assert st_.total_node_reads < st_.naive_node_reads
        assert st_.compaction_ratio > 1.0
        assert st_.grouped_levels + st_.broadcast_levels == (
            medium_layout.height - 1
        )

    def test_single_key_tree(self):
        layout = HarmoniaLayout.from_sorted(np.array([42], dtype=np.int64))
        eng = BatchQueryEngine(layout)
        out = eng.execute(np.array([41, 42, 43], dtype=np.int64))
        assert list(out) == [NOT_FOUND, 42, NOT_FOUND]


class TestTreeWiring:
    def test_search_many_default_is_compacted(self, small_tree, small_keys):
        out = small_tree.search_many(small_keys[:100])
        assert np.array_equal(out, small_keys[:100])
        assert small_tree.last_engine_stats is not None

    def test_engine_rebound_after_update(self, small_tree, small_keys):
        small_tree.search_many(small_keys[:10])
        eng_before = small_tree._engine
        from repro.core.update import Operation

        new_key = int(small_keys[-1]) + 1000
        small_tree.apply_batch([Operation("insert", new_key, 7)])
        small_tree.search_many(np.array([new_key]))
        assert small_tree._engine is not eng_before
        assert small_tree.search_many(np.array([new_key]))[0] == 7

    def test_empty_tree(self):
        tree = HarmoniaTree.empty()
        out = tree.search_many(np.array([1, 2], dtype=np.int64))
        assert np.all(out == NOT_FOUND)

    def test_config_rejects_bad_engine(self):
        # search_many has one executor; search_batch is the oracle.  The
        # executor and thread-count knobs are gone, not ignored.
        for knob in ({"engine": "naive"}, {"engine_workers": 2},
                     {"engine_min_parallel": 16}):
            with pytest.raises(TypeError):
                SearchConfig(**knob)


# ------------------------------------------------- property-based equivalence


@common_settings
@given(
    keys=st.sets(key_strategy, min_size=1, max_size=400),
    fanout=fanout_strategy,
    fill=st.sampled_from([0.5, 0.7, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_equals_batch_and_scalar(keys, fanout, fill, seed):
    """Engine vs search_batch vs search_scalar on random trees, with hit,
    miss, below-min, above-max, and duplicate-at-separator probes."""
    karr = np.array(sorted(keys), dtype=np.int64)
    layout = HarmoniaLayout.from_sorted(karr, fanout=fanout, fill=fill)
    rng = np.random.default_rng(seed)
    # Separator keys are the internal rows' real entries: querying exactly
    # those values exercises the equal-keys-route-right edge.
    separators = layout.key_region[: layout.leaf_start].ravel()
    separators = separators[separators != np.iinfo(np.int64).max]
    q = np.concatenate([
        rng.choice(karr, 50),
        rng.integers(0, 1 << 48, 50),
        karr[:1] - 1,
        karr[-1:] + 1,
        separators[:50],
        np.repeat(rng.choice(karr, 5), 8),  # duplicated queries
    ]).astype(np.int64)
    q = np.maximum(q, 0)
    eng = BatchQueryEngine(layout)
    oracle = search_batch(layout, q)
    assert np.array_equal(eng.execute(q), oracle)
    assert np.array_equal(eng.execute(np.sort(q)), search_batch(layout, np.sort(q)))
    for i in rng.choice(q.size, 20, replace=False):
        scalar = search_scalar(layout, int(q[i]))
        assert (scalar is None and oracle[i] == NOT_FOUND) or scalar == oracle[i]


@common_settings
@given(
    keys=st.sets(key_strategy, min_size=2, max_size=300),
    fanout=fanout_strategy,
    bits=st.sampled_from([0, 4, 11, 48, None]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_psa_sorted_vs_unsorted(keys, fanout, bits, seed):
    """PSA-sorted, fully-sorted, and arrival-order batches all agree with
    the oracle, and restore-to-issue-order round-trips exactly."""
    karr = np.array(sorted(keys), dtype=np.int64)
    layout = HarmoniaLayout.from_sorted(karr, fanout=fanout)
    rng = np.random.default_rng(seed)
    q = rng.choice(karr, 120).astype(np.int64)
    if bits is None:
        psa = fully_sorted_batch(q, key_bits=48)
    elif bits == 0:
        psa = identity_batch(q)
    else:
        psa = prepare_batch(q, bits=bits, key_bits=48)
    eng = BatchQueryEngine(layout)
    issue_vals = eng.execute(psa.queries, issue_sorted=psa.issue_sorted)
    assert np.array_equal(
        issue_vals, search_batch(layout, psa.queries)
    )
    # Restore-to-arrival-order must reproduce the unpermuted execution.
    assert np.array_equal(issue_vals[psa.restore], search_batch(layout, q))
    assert eng.last_stats.issue_sorted == psa.issue_sorted
    if bits is None:
        assert psa.issue_sorted  # a full sort is by definition issue-sorted


@common_settings
@given(
    keys=st.sets(key_strategy, min_size=1, max_size=300),
    fanout=fanout_strategy,
    use_psa=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_search_many_equals_search_batch(keys, fanout, use_psa, seed):
    """End-to-end: HarmoniaTree.search_many is bit-identical to the
    search_batch oracle under every config combination."""
    karr = np.array(sorted(keys), dtype=np.int64)
    tree = HarmoniaTree.from_sorted(karr, fanout=fanout)
    rng = np.random.default_rng(seed)
    q = np.concatenate([
        rng.choice(karr, 60),
        rng.integers(0, 1 << 48, 60),
    ]).astype(np.int64)
    cfg = SearchConfig(use_psa=use_psa)
    assert np.array_equal(tree.search_many(q, cfg), tree.search_batch(q, cfg))


# ------------------------------------------------------------ tier-1 smoke


def test_engine_smoke_counter_monotone(medium_layout, medium_keys, rng):
    """Tier-1 smoke: a small compacted batch runs in well under a second
    and its unique_nodes_per_level counter is monotonically non-decreasing
    down the tree (disjoint children can only split runs, never merge
    them) — the host-side analog of the simulator's per-level
    gld_transactions growth."""
    q = np.sort(rng.choice(medium_keys, 2_048))
    eng = BatchQueryEngine(medium_layout)
    out = eng.execute(q, issue_sorted=True)
    assert np.array_equal(out, q)  # fixture values == keys, all hits
    counter = eng.last_stats.unique_nodes_per_level
    assert counter.size == medium_layout.height
    assert np.all(np.diff(counter) >= 0)
    assert counter[0] == 1 and counter[-1] <= q.size


# ------------------------------------------------------- the packed block


def test_share_packed_leaves(medium_layout, medium_keys, rng):
    # Every engine over one snapshot reads the snapshot's one packed
    # block, built once; another snapshot has its own.
    first = BatchQueryEngine(medium_layout)
    second = BatchQueryEngine(medium_layout)
    q = rng.choice(medium_keys, 500).astype(np.int64)
    assert np.array_equal(first.execute(q), second.execute(q))
    keys, values = medium_layout.packed_leaves()
    assert medium_layout.packed_leaves()[0] is keys
    assert np.array_equal(keys, medium_layout.all_keys())
    assert np.array_equal(values, medium_layout.iter_leaf_items()[:, 1])
    other = HarmoniaLayout.from_sorted(make_key_set(100, rng=3), fanout=8)
    assert other.packed_leaves()[0] is not keys


def test_packed_leaves_lazy(medium_keys):
    # Built on the first read, never at construction.
    layout = HarmoniaLayout.from_sorted(medium_keys[:1000], fanout=16)
    assert layout._packed is None
    BatchQueryEngine(layout).execute(medium_keys[:10])
    assert layout._packed is not None
    assert layout.copy()._packed is None


def test_last_stats_lazy_equals_profile(medium_layout, medium_keys, rng):
    q = rng.choice(medium_keys, 3_000).astype(np.int64)
    eng = BatchQueryEngine(medium_layout)
    eng.execute(q)
    assert "stats" not in vars(eng._last)  # nothing profiled yet
    stats = eng.last_stats
    assert "stats" in vars(eng._last)
    ref = traversal_profile(medium_layout, q)
    assert np.array_equal(stats.unique_nodes_per_level,
                          ref.unique_nodes_per_level)
    assert (stats.grouped_levels, stats.broadcast_levels) == (
        ref.grouped_levels, ref.broadcast_levels)
    assert eng.last_stats is stats  # computed once
