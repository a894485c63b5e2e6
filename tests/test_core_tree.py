"""Tests for the user-facing HarmoniaTree API."""

import numpy as np
import pytest

from repro.constants import NOT_FOUND
from repro.core import HarmoniaTree, SearchConfig
from repro.core.update import Operation
from repro.errors import EmptyTreeError


class TestConstruction:
    def test_from_sorted(self, small_keys):
        t = HarmoniaTree.from_sorted(small_keys, fanout=8)
        assert len(t) == small_keys.size
        assert t.fanout == 8
        t.check_invariants()

    def test_empty(self):
        t = HarmoniaTree.empty(fanout=16)
        assert len(t) == 0
        assert t.height == 0
        assert t.search(1) is None
        with pytest.raises(EmptyTreeError):
            _ = t.layout

    def test_from_empty_sequence(self):
        t = HarmoniaTree.from_sorted([])
        assert len(t) == 0

    def test_doctest_example(self):
        t = HarmoniaTree.from_sorted(range(0, 1000, 2))
        assert int(t.search(4)) == 4
        assert t.search(5) is None


class TestSearchPipeline:
    @pytest.fixture(scope="class")
    def tree(self, medium_keys):
        return HarmoniaTree.from_sorted(medium_keys, fanout=64, fill=0.7)

    def test_configs_agree_on_results(self, tree, medium_keys, rng):
        q = np.concatenate([
            rng.choice(medium_keys, 2_000),
            rng.integers(0, 1 << 34, 2_000),
        ])
        expected = tree.search_batch(q, SearchConfig.baseline_tree())
        for cfg in (SearchConfig.tree_psa(), SearchConfig.full(),
                    SearchConfig(ntg=4), SearchConfig(psa_bits=6)):
            assert np.array_equal(tree.search_batch(q, cfg), expected)

    def test_results_in_input_order(self, tree, medium_keys):
        q = medium_keys[[5, 3, 9, 3]]
        out = tree.search_batch(q, SearchConfig.full())
        assert np.array_equal(out, q)

    def test_membership(self, tree, medium_keys):
        assert int(medium_keys[0]) in tree
        assert (int(medium_keys[-1]) + 1) not in tree

    def test_empty_tree_batch(self):
        t = HarmoniaTree.empty()
        out = t.search_batch(np.array([1, 2, 3]))
        assert np.all(out == NOT_FOUND)

    def test_range_search(self, tree, medium_keys):
        lo, hi = int(medium_keys[10]), int(medium_keys[60])
        k, v = tree.range_search(lo, hi)
        assert np.array_equal(k, medium_keys[10:61])

    def test_range_on_empty(self):
        t = HarmoniaTree.empty()
        k, v = t.range_search(0, 10)
        assert k.size == 0

    def test_prepare_queries_metadata(self, tree, medium_keys, rng):
        q = rng.choice(medium_keys, 4_000)
        prep = tree.prepare_queries(q, SearchConfig.full())
        assert prep.group_size >= 1
        assert prep.psa.n == q.size
        assert prep.ntg_selection is not None
        prep2 = tree.prepare_queries(q, SearchConfig(ntg=8, use_psa=False))
        assert prep2.group_size == 8
        assert prep2.ntg_selection is None


class TestUpdateAPI:
    def test_single_ops(self):
        t = HarmoniaTree.from_sorted(np.arange(0, 100, 2), fanout=8, fill=0.7)
        assert t.insert(1, 11)
        assert not t.insert(1, 12)
        assert t.search(1) == 11
        assert t.update(1, 13)
        assert t.search(1) == 13
        assert t.delete(1)
        assert not t.delete(1)
        t.check_invariants()

    def test_batch_accounting(self):
        t = HarmoniaTree.from_sorted(np.arange(0, 1_000, 2), fanout=8, fill=0.8)
        ops = [Operation("insert", k, k) for k in range(1, 100, 2)]
        ops += [Operation("update", k, 7) for k in range(0, 100, 2)]
        ops += [Operation("delete", k) for k in range(500, 600, 2)]
        res = t.apply_batch(ops)
        assert res.inserted == 50
        assert res.updated == 50
        assert res.deleted == 50
        assert res.n_effective == 150
        assert res.timer.get("apply") >= 0
        assert res.timer.get("movement") >= 0
        t.check_invariants()

    def test_bootstrap_from_empty(self):
        t = HarmoniaTree.empty(fanout=8)
        ops = [Operation("insert", k, k * 2) for k in range(100)]
        ops += [Operation("update", 5, 99), Operation("delete", 7)]
        res = t.apply_batch(ops)
        assert res.inserted == 100
        assert res.updated == 1
        assert res.deleted == 1
        assert len(t) == 99
        assert t.search(5) == 99
        assert t.search(7) is None
        assert t.fanout == 8
        t.check_invariants()

    def test_delete_everything_then_reinsert(self):
        t = HarmoniaTree.from_sorted(np.arange(10), fanout=8)
        res = t.apply_batch([Operation("delete", k) for k in range(10)])
        assert res.deleted == 10
        assert len(t) == 0
        assert t.insert(3, 33)
        assert t.search(3) == 33
        assert t.fanout == 8  # configuration survives emptiness

    def test_repeated_batches_stay_consistent(self, rng):
        t = HarmoniaTree.from_sorted(np.arange(0, 5_000, 5), fanout=16, fill=0.7)
        ref = {int(k): int(k) for k in np.arange(0, 5_000, 5)}
        for round_ in range(5):
            ops = []
            for k in rng.choice(5_000, 200, replace=False):
                k = int(k)
                if k in ref:
                    if rng.random() < 0.5:
                        ops.append(Operation("update", k, round_))
                        ref[k] = round_
                    else:
                        ops.append(Operation("delete", k))
                        del ref[k]
                else:
                    ops.append(Operation("insert", k, k + round_))
                    ref[k] = k + round_
            t.apply_batch(ops)
            t.check_invariants()
            assert len(t) == len(ref)
        items = sorted(ref.items())
        got = t.search_batch(np.array([k for k, _ in items]))
        assert np.array_equal(got, np.array([v for _, v in items]))
