"""The one range path: every surface returns the same CSR result.

``range_search_batch`` on a tree, an ``EpochManager`` drained after
every flush ("sync") and one with an undrained delta holding tombstones
("concurrent"), and a 2-shard ``ShardedTree`` returns one :class:`RangeBatch`, equal window by
window to a plain dict oracle.  The geometry covers gapped layouts after
inserts, deletes that empty whole leaves, inverted windows, windows
outside the key span, windows straddling the shard boundary and an
empty shard.  A wire test pins a worker's ``ranged`` reply to exactly
three arrays.
"""

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SearchConfig
from repro.core.epoch import EpochManager
from repro.core.search import RangeBatch
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.errors import ConfigError
from repro.shard import ShardChannel, ShardedTree
from repro.shard.worker import worker_main

FANOUT = 8
FILL = 0.7

def assert_matches_oracle(res, model, los, his):
    assert isinstance(res, RangeBatch)
    assert len(res) == len(los)
    off = res.offsets
    assert off[0] == 0 and np.all(np.diff(off) >= 0)
    assert off[-1] == res.keys.size == res.values.size
    stored = sorted(model)
    for i, (lo, hi) in enumerate(zip(los, his)):
        want = [k for k in stored if lo <= k <= hi]
        k, v = res[i]
        assert k.tolist() == want, (lo, hi)
        assert v.tolist() == [model[x] for x in want], (lo, hi)
    assert [k.tolist() for k, _ in res] == [
        k.tolist() for k, _ in (res[i] for i in range(len(res)))]


@st.composite
def scenario(draw):
    """Base keys, two write batches (inserts into gaps, then deletes
    with one contiguous hole that empties whole leaves) and windows."""
    n = draw(st.integers(min_value=0, max_value=240))
    base = {10 + 3 * i: 7 * i for i in range(n)}
    span = 10 + 3 * n + 10
    ins = draw(st.lists(st.integers(0, span), max_size=40, unique=True))
    inserts = [Operation("insert", k, -k) for k in ins if k not in base]
    start = draw(st.integers(0, max(n - 1, 0)))
    width = draw(st.integers(0, 30))
    hole = [10 + 3 * i for i in range(start, min(start + width, n))]
    extra = draw(st.lists(st.integers(0, span), max_size=20, unique=True))
    deletes = [Operation("delete", k) for k in sorted(set(hole) | set(extra))]
    windows = draw(st.lists(
        st.tuples(st.integers(-5, span + 5), st.integers(-5, span + 5)),
        max_size=25,
    ))
    # Below the first key, above the last, and one inverted row.
    windows += [(0, 9), (span - 5, span + 50), (span, 0)]
    los = [max(a, 0) for a, _ in windows]
    his = [max(b, 0) for _, b in windows]
    return base, inserts, deletes, los, his


def expected(base, inserts, deletes):
    model = dict(base)
    for op in inserts:
        model.setdefault(op.key, op.value)
    for op in deletes:
        model.pop(op.key, None)
    return model


def build_tree(base):
    keys = np.asarray(sorted(base), dtype=np.int64)
    if not keys.size:
        return HarmoniaTree.empty(fanout=FANOUT, fill=FILL)
    values = np.asarray([base[k] for k in keys.tolist()], dtype=np.int64)
    return HarmoniaTree.from_sorted(keys, values, fanout=FANOUT, fill=FILL)


class TestEverySurfaceMatchesOracle:
    @pytest.mark.parametrize("surface", ["tree", "sync", "concurrent"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(case=scenario())
    def test_in_process(self, surface, case):
        base, inserts, deletes, los, his = case
        tree = build_tree(base)
        if surface == "tree":
            for batch in (inserts, deletes):
                if batch:
                    tree.apply_batch(batch)
            res = tree.range_search_batch(los, his)
        else:
            # A drain threshold no flush reaches keeps the delta
            # undrained ("concurrent": inserts and tombstones are read
            # through the overlay); "sync" drains after every flush, so
            # reads go to the merged base.
            em = EpochManager(tree, drain_threshold=1 << 30)
            try:
                for batch in (inserts, deletes):
                    em.submit_many(batch)
                    em.flush()
                    if surface == "sync":
                        em.sync()
                if surface == "concurrent" and any(
                        op.key in base for op in deletes):
                    view = em.pin().delta
                    assert view is not None and view.run.tombstones.any()
                res = em.range_search_batch(los, his)
            finally:
                em.close()
        assert_matches_oracle(res, expected(base, inserts, deletes),
                              los, his)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=scenario(), empty_upper=st.booleans())
    def test_two_shards(self, case, empty_upper):
        base, inserts, deletes, los, his = case
        if len(base) < 4:
            base = {10 + 3 * i: 7 * i for i in range(4)}
        keys = np.asarray(sorted(base), dtype=np.int64)
        values = np.asarray([base[k] for k in keys.tolist()], dtype=np.int64)
        with ShardedTree.from_sorted(keys, values, n_shards=2,
                                     fanout=FANOUT, fill=FILL) as sh:
            cut = int(sh.partitioner.boundaries[0])
            if empty_upper:  # delete the upper shard's every key
                upper = set(keys[keys > cut].tolist())
                upper |= {op.key for op in inserts if op.key > cut}
                deletes = deletes + [Operation("delete", k)
                                     for k in sorted(upper)]
            for batch in (inserts, deletes):
                if batch:
                    sh.apply_batch(batch)
            # Windows straddling the shard boundary.
            los = los + [cut - 4, cut, cut + 1, 0]
            his = his + [cut + 4, cut + 1, cut + 1, 1 << 40]
            res = sh.range_search_batch(los, his)
            model = expected(base, inserts, deletes)
            if empty_upper:
                assert all(k <= cut for k in model)
            assert_matches_oracle(res, model, los, his)


def _surface(kind):
    keys = np.arange(0, 400, 2, dtype=np.int64)
    if kind == "shards":
        return ShardedTree.from_sorted(keys, n_shards=2, fanout=FANOUT)
    tree = HarmoniaTree.from_sorted(keys, fanout=FANOUT)
    if kind == "tree":
        return tree
    # An EpochManager holding one flushed write: in its delta
    # ("concurrent") or drained into the base ("sync").
    em = EpochManager(tree)
    em.submit(Operation("insert", 1, 1))
    em.flush()
    if kind == "sync":
        em.sync()
    return em


@pytest.mark.parametrize("kind", ["tree", "sync", "concurrent", "shards"])
def test_misaligned_bounds_raise_config_error(kind):
    surf = _surface(kind)
    try:
        with pytest.raises(ConfigError):
            surf.range_search_batch([1, 2], [3])
    finally:
        if kind != "tree":
            surf.close()


@pytest.mark.parametrize("kind", ["tree", "sync", "concurrent", "shards"])
def test_empty_input_is_an_empty_range_batch(kind):
    surf = _surface(kind)
    try:
        res = surf.range_search_batch([], [])
        assert isinstance(res, RangeBatch) and len(res) == 0
        assert res.offsets.tolist() == [0]
    finally:
        if kind != "tree":
            surf.close()


def test_range_batch_indexing():
    res = RangeBatch(np.asarray([0, 2, 2, 3]), np.asarray([1, 2, 9]),
                     np.asarray([10, 20, 90]))
    assert res.counts.tolist() == [2, 0, 1]
    assert res[0][0].tolist() == [1, 2] and res[1][0].size == 0
    assert res[-1][1].tolist() == [90]
    with pytest.raises(IndexError):
        res[3]
    (a, _), (b, _), (c, _) = res
    assert (a.size, b.size, c.size) == (2, 0, 1)


def test_worker_range_reply_is_three_arrays():
    router_side, worker_side = ShardChannel.pair()
    proc = mp.Process(target=worker_main, daemon=True,
                      args=(worker_side, FANOUT, 1.0, SearchConfig(), 0))
    proc.start()
    worker_side.conn.close()
    ch = router_side
    try:
        keys = np.arange(0, 200, 2, dtype=np.int64)
        ch.send("load")
        ch.send_array(keys)
        ch.send_array(keys * 5)
        assert ch.recv(timeout=30)[0] == "loaded"
        ch.send("range")
        ch.send_array(np.asarray([0, 50, 9], dtype=np.int64))
        ch.send_array(np.asarray([10, 53, 1], dtype=np.int64))
        assert ch.recv(timeout=30) == ("ranged",)
        counts, got_k, got_v = (ch.recv_array() for _ in range(3))
        assert counts.tolist() == [6, 2, 0]
        assert got_k.tolist() == [0, 2, 4, 6, 8, 10, 50, 52]
        assert np.array_equal(got_v, got_k * 5)
        assert not ch.conn.poll(0.2)  # nothing follows the three arrays
        ch.send("ping")
        assert ch.recv(timeout=30)[0] == "pong"
        ch.send("stop")
        assert ch.recv(timeout=30)[0] == "stopped"
    finally:
        ch.close()
        proc.join(timeout=10)
        if proc.is_alive():
            proc.terminate()
