"""ShardedTree ≡ HarmoniaTree: the sharded service's results contract.

The sharded tier must be invisible to callers: for any shard count
(including 1) and any mixed search/insert/delete/range workload, the
front-end returns byte-identical results to a single HarmoniaTree
holding the same data.  Hypothesis pins the contract over random key
sets, shard counts and op batches; a directed crash test pins that
restart-and-rebuild preserves it mid-workload.

Why the contract holds (and what we compare): per-key op outcomes
depend only on same-key history, which routing by key preserves, so the
inserted/updated/deleted/failed accounting sums across shards to the
unsharded batch's values.  Structural counters (split_leaves,
moved_clean …) are per-shard layout quantities and are *not* part of
the contract.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.shard import ShardedTree

FANOUT = 16


def make_pair(keys, n_shards):
    ref = HarmoniaTree.from_sorted(keys, fanout=FANOUT)
    sharded = ShardedTree.from_sorted(keys, n_shards=n_shards, fanout=FANOUT)
    return ref, sharded


def assert_batch_results_equal(a, b):
    assert (a.inserted, a.updated, a.deleted, a.failed) == \
        (b.inserted, b.updated, b.deleted, b.failed)


def assert_full_contents_equal(ref, sharded, lo=-1, hi=1 << 48):
    rk, rv = ref.range_search(lo, hi)
    sk, sv = sharded.range_search(lo, hi)
    assert np.array_equal(rk, sk)
    assert np.array_equal(rv, sv)


@st.composite
def workload(draw):
    n_keys = draw(st.integers(min_value=0, max_value=400))
    stride = draw(st.integers(min_value=1, max_value=3))
    keys = np.arange(0, n_keys * stride, stride, dtype=np.int64)
    n_shards = draw(st.integers(min_value=1, max_value=3))
    space = max(int(n_keys * stride), 8)
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.integers(min_value=0, max_value=space),
            st.integers(min_value=0, max_value=1 << 20),
        ),
        max_size=120,
    ))
    queries = draw(st.lists(
        st.integers(min_value=-2, max_value=space + 2), max_size=60
    ))
    ranges = draw(st.lists(
        st.tuples(
            st.integers(min_value=-2, max_value=space + 2),
            st.integers(min_value=-2, max_value=space + 2),
        ),
        max_size=10,
    ))
    return keys, n_shards, ops, queries, ranges


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(workload())
def test_sharded_equals_unsharded(wl):
    keys, n_shards, ops, queries, ranges = wl
    ref, sharded = make_pair(keys, n_shards)
    try:
        q = np.asarray(queries, dtype=np.int64)
        assert np.array_equal(sharded.search_many(q), ref.search_many(q))

        batch = [Operation(kind, key, value) for kind, key, value in ops]
        assert_batch_results_equal(
            sharded.apply_batch(batch), ref.apply_batch(batch)
        )
        assert np.array_equal(sharded.search_many(q), ref.search_many(q))

        los = [lo for lo, _ in ranges]
        his = [hi for _, hi in ranges]
        got = sharded.range_search_batch(los, his)
        want = ref.range_search_batch(los, his)
        assert len(got) == len(want)
        for (gk, gv), (wk, wv) in zip(got, want):
            assert np.array_equal(gk, wk)
            assert np.array_equal(gv, wv)

        assert_full_contents_equal(ref, sharded)
        assert len(sharded) == len(ref)
    finally:
        sharded.close()


@settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    n_shards=st.integers(min_value=2, max_value=3),
)
def test_sequential_batches_equal(seed, n_shards):
    """Multiple dependent batches: each one runs against the state the
    previous ones left, exercising the workers' epoch turnover."""
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(2000, size=300, replace=False)).astype(np.int64)
    ref, sharded = make_pair(keys, n_shards)
    try:
        for _ in range(3):
            kinds = rng.choice(["insert", "update", "delete"], size=60)
            targets = rng.integers(0, 2200, size=60)
            vals = rng.integers(0, 1 << 20, size=60)
            batch = [
                Operation(str(k), int(t), int(v))
                for k, t, v in zip(kinds, targets, vals)
            ]
            assert_batch_results_equal(
                sharded.apply_batch(batch), ref.apply_batch(batch)
            )
            q = rng.integers(0, 2200, size=80)
            assert np.array_equal(
                sharded.search_many(q), ref.search_many(q)
            )
        assert_full_contents_equal(ref, sharded)
    finally:
        sharded.close()


@pytest.mark.parametrize("n_keys", [8, 200])
def test_delete_all_on_two_shards(n_keys):
    """A batch that deletes every key empties both shards' trees (with 8
    keys each shard is a single leaf); the workers must survive it, serve
    the empty state, and bootstrap again from the next inserts — exactly
    as the unsharded tree does."""
    keys = np.arange(0, 3 * n_keys, 3, dtype=np.int64)
    ref, sharded = make_pair(keys, 2)
    try:
        batch = [Operation("delete", int(k)) for k in keys]
        assert_batch_results_equal(
            sharded.apply_batch(batch), ref.apply_batch(batch)
        )
        assert ref.snapshot is None
        assert len(sharded) == len(ref) == 0
        q = np.arange(-2, 610, dtype=np.int64)
        assert np.array_equal(sharded.search_many(q), ref.search_many(q))
        assert_full_contents_equal(ref, sharded)

        batch = [Operation("insert", int(k), int(k) + 1)
                 for k in (5, 299, 301, 598)]
        assert_batch_results_equal(
            sharded.apply_batch(batch), ref.apply_batch(batch)
        )
        assert np.array_equal(sharded.search_many(q), ref.search_many(q))
        assert_full_contents_equal(ref, sharded)
    finally:
        sharded.close()


@pytest.mark.parametrize("crash_shard", [0, 1])
def test_worker_crash_preserves_results(crash_shard):
    """Restart-and-rebuild mid-workload: kill a worker after applied
    batches, then verify every result is still identical to the
    reference (base snapshot + op-log replay reconstructs the state)."""
    keys = np.arange(0, 3000, 2)
    ref, sharded = make_pair(keys, 2)
    try:
        rng = np.random.default_rng(7)
        for _ in range(2):
            kinds = rng.choice(["insert", "update", "delete"], size=80)
            targets = rng.integers(0, 3300, size=80)
            vals = rng.integers(0, 1 << 20, size=80)
            batch = [
                Operation(str(k), int(t), int(v))
                for k, t, v in zip(kinds, targets, vals)
            ]
            assert_batch_results_equal(
                sharded.apply_batch(batch), ref.apply_batch(batch)
            )

        shard = sharded._shards[crash_shard]
        shard.channel.send("crash")
        shard.proc.join(timeout=10)
        assert not shard.proc.is_alive()

        q = rng.integers(0, 3300, size=200)
        assert np.array_equal(sharded.search_many(q), ref.search_many(q))
        assert sharded._shards[crash_shard].restarts == 1
        assert_full_contents_equal(ref, sharded)

        # And the revived worker keeps serving updates correctly.
        batch = [Operation("insert", 3301, 1), Operation("delete", 0)]
        assert_batch_results_equal(
            sharded.apply_batch(batch), ref.apply_batch(batch)
        )
        assert_full_contents_equal(ref, sharded)
    finally:
        sharded.close()


def test_crash_during_rebalance_state():
    """Crash after a rebalance: the rebuild base is the rebalanced slice,
    so recovery must still match."""
    keys = np.arange(0, 2000, 2)
    ref, sharded = make_pair(keys, 2)
    try:
        ops = [Operation("insert", int(k), 2) for k in range(2001, 4001, 2)]
        ref.apply_batch(ops)
        sharded.apply_batch(ops)
        sharded.rebalance(force=True)
        sharded._shards[0].channel.send("crash")
        sharded._shards[0].proc.join(timeout=10)
        assert_full_contents_equal(ref, sharded)
    finally:
        sharded.close()
