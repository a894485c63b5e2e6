"""The range splice: delta entries spliced into block windows ≡ a dict.

Every delta-backed range read — a pinned concurrent
:class:`~repro.core.epoch.EpochManager` and the workers of a
:class:`~repro.shard.ShardedTree` — splices each window's delta entries
into its block slice (:func:`repro.core.search.range_search_batch`)
instead of sorting the returned rows.  Hypothesis drives both surfaces
against a plain dict replayed op by op, over:

* overlapping windows and inverted windows (``lo > hi``);
* windows past either end of the block;
* delta keys outside the base range;
* tombstones of base keys and of keys held only in the delta (inserted
  by one flush, deleted by a later one);
* updates of base keys;
* an empty base.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.epoch import EpochManager
from repro.core.search import RangeBatch
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.shard import ShardedTree

FANOUT = 8
#: Base keys sit in [BASE_LO, BASE_LO + 3 * n); op keys and window
#: ends reach well past both ends.
BASE_LO = 100
KEY_SPAN = 400


@st.composite
def splice_case(draw):
    n = draw(st.integers(0, 60))
    base = {BASE_LO + 3 * i: i for i in range(n)}
    # Half the ops hit base keys (updates, base tombstones); the rest
    # land anywhere, outside the base range too.
    key = (st.one_of(st.sampled_from(sorted(base)), st.integers(0, KEY_SPAN))
           if base else st.integers(0, KEY_SPAN))
    op = st.tuples(st.sampled_from(["insert", "update", "delete"]), key,
                   st.integers(-99, 99))
    batches = draw(st.lists(st.lists(op, max_size=30), min_size=1,
                            max_size=4))
    window = st.tuples(st.integers(-50, KEY_SPAN + 50), st.integers(-30, 200))
    windows = draw(st.lists(window, min_size=1, max_size=12))
    los = np.asarray([lo for lo, _ in windows], dtype=np.int64)
    his = np.asarray([lo + span for lo, span in windows], dtype=np.int64)
    return base, batches, los, his


def to_ops(raw):
    return [Operation(kind, key, val) for kind, key, val in raw]


def replay(model, ops):
    """Apply ``ops`` to the dict ``model`` one at a time, with the
    scalar reference's rules."""
    for op in ops:
        present = op.key in model
        if op.kind == "insert" and not present:
            model[op.key] = op.value
        elif op.kind == "update" and present:
            model[op.key] = op.value
        elif op.kind == "delete" and present:
            del model[op.key]


def assert_windows(res, model, los, his):
    assert isinstance(res, RangeBatch) and len(res) == los.size
    assert res.offsets[0] == 0 and np.all(np.diff(res.offsets) >= 0)
    assert res.offsets[-1] == res.keys.size == res.values.size
    stored = sorted(model)
    for i, (lo, hi) in enumerate(zip(los.tolist(), his.tolist())):
        want = [k for k in stored if lo <= k <= hi]
        keys, values = res[i]
        assert keys.tolist() == want, (lo, hi)
        assert values.tolist() == [model[k] for k in want], (lo, hi)


def block(base):
    keys = np.asarray(sorted(base), dtype=np.int64)
    return keys, np.asarray([base[k] for k in keys.tolist()], dtype=np.int64)


class TestPinnedEpoch:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=splice_case(), drain_after=st.integers(0, 4))
    def test_splice_matches_dict(self, case, drain_after):
        """Flushes publish into the delta; one optional drain moves what
        was published so far into the base, so later flushes splice over
        a grown base."""
        base, batches, los, his = case
        keys, values = block(base)
        tree = (HarmoniaTree.from_sorted(keys, values, fanout=FANOUT)
                if keys.size else HarmoniaTree.empty(fanout=FANOUT))
        em = EpochManager(tree, drain_threshold=1 << 30)
        model = dict(base)
        for b, raw in enumerate(batches):
            if b == drain_after:
                em.drain()
            ops = to_ops(raw)
            em.submit_many(ops)
            em.flush()
            replay(model, ops)
        pinned = em.pin()
        assert (pinned.delta is not None) == (em.delta_size > 0)
        assert_windows(pinned.range_search_batch(los, his), model, los, his)
        em.drain()
        assert_windows(em.range_search_batch(los, his), model, los, his)


class TestTwoShards:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=splice_case())
    def test_splice_matches_dict(self, case):
        """Each worker splices its own delta; windows straddling the
        shard boundary stitch the two shards' parts."""
        base, batches, los, his = case
        keys, values = block(base)
        model = dict(base)
        with ShardedTree.from_sorted(keys, values, n_shards=2,
                                     fanout=FANOUT) as sh:
            for raw in batches:
                ops = to_ops(raw)
                sh.apply_batch(ops)
                replay(model, ops)
            assert_windows(sh.range_search_batch(los, his), model, los, his)
