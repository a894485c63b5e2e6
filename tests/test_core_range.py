"""Tests for range queries over the Harmonia layout."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.layout import HarmoniaLayout
from repro.core.search import RangeBatch, range_search, range_search_batch


@pytest.fixture(scope="module")
def setup():
    keys = np.arange(0, 10_000, 3, dtype=np.int64)  # 0,3,6,...
    layout = HarmoniaLayout.from_sorted(keys, values=keys * 2, fanout=8, fill=0.6)
    return layout, keys


class TestRangeSearch:
    def test_inclusive_both_ends(self, setup):
        layout, keys = setup
        k, v = range_search(layout, 3, 12)
        assert k.tolist() == [3, 6, 9, 12]
        assert v.tolist() == [6, 12, 18, 24]

    def test_bounds_between_keys(self, setup):
        layout, _ = setup
        k, _ = range_search(layout, 4, 11)
        assert k.tolist() == [6, 9]

    def test_full_span(self, setup):
        layout, keys = setup
        k, v = range_search(layout, -5, 10**6)
        assert np.array_equal(k, keys)
        assert np.array_equal(v, keys * 2)

    def test_empty_window(self, setup):
        layout, _ = setup
        k, v = range_search(layout, 4, 5)
        assert k.size == 0 and v.size == 0

    def test_inverted(self, setup):
        layout, _ = setup
        k, v = range_search(layout, 10, 5)
        assert k.size == 0

    def test_single_key_window(self, setup):
        layout, _ = setup
        k, v = range_search(layout, 9, 9)
        assert k.tolist() == [9] and v.tolist() == [18]

    def test_crosses_many_leaves(self, setup):
        layout, keys = setup
        lo, hi = int(keys[100]), int(keys[800])
        k, _ = range_search(layout, lo, hi)
        assert np.array_equal(k, keys[100:801])

    def test_matches_bruteforce(self, setup, rng):
        layout, keys = setup
        for _ in range(25):
            lo, hi = sorted(rng.integers(0, 10_100, size=2).tolist())
            k, v = range_search(layout, lo, hi)
            ref = keys[(keys >= lo) & (keys <= hi)]
            assert np.array_equal(k, ref)
            assert np.array_equal(v, ref * 2)

    def test_padding_never_leaks(self, rng):
        # Half-full leaves put KEY_MAX padding inside the scan window.
        keys = np.sort(rng.choice(1 << 20, 4_000, replace=False)).astype(np.int64)
        layout = HarmoniaLayout.from_sorted(keys, fanout=16, fill=0.5)
        k, _ = range_search(layout, int(keys[10]), int(keys[-10]))
        assert np.array_equal(k, keys[10:-9])


class TestRangeBatch:
    def test_batch_matches_single(self, setup):
        layout, keys = setup
        los = [0, 100, 5_000]
        his = [30, 200, 5_100]
        batch = range_search_batch(layout, los, his)
        for (bk, bv), lo, hi in zip(batch, los, his):
            sk, sv = range_search(layout, lo, hi)
            assert np.array_equal(bk, sk)
            assert np.array_equal(bv, sv)

    def test_misaligned_bounds_rejected(self, setup):
        layout, _ = setup
        with pytest.raises(ValueError):
            range_search_batch(layout, [1, 2], [3])


class TestRangeBatchVectorized:
    """The batched-traversal rewrite: one level-synchronous pass locates
    every lo/hi leaf; outputs stay bit-identical to scalar range_search."""

    def test_random_bounds_match_scalar(self, setup, rng=None):
        layout, keys = setup
        gen = np.random.default_rng(99)
        los = gen.integers(-5, 10_500, 200).astype(np.int64)
        his = los + gen.integers(0, 2_000, 200).astype(np.int64)
        his[::5] = los[::5] - 1  # inverted bounds -> empty results
        los = np.maximum(los, 0)
        his = np.maximum(his, 0)
        batch = range_search_batch(layout, los, his)
        assert len(batch) == los.size
        for (bk, bv), lo, hi in zip(batch, los, his):
            sk, sv = range_search(layout, int(lo), int(hi))
            assert np.array_equal(bk, sk)
            assert np.array_equal(bv, sv)

    def test_empty_batch(self, setup):
        layout, _ = setup
        out = range_search_batch(layout, [], [])
        assert isinstance(out, RangeBatch)
        assert len(out) == 0 and list(out) == []
        assert out.offsets.tolist() == [0]
        assert out.keys.size == 0 and out.values.size == 0

    def test_locate_leaves_batch_agrees_with_traversal(self, setup):
        from repro.core.search import locate_leaves_batch, traverse_batch

        layout, keys = setup
        targets = np.array([0, 1, 4_999, 9_999, 20_000], dtype=np.int64)
        leaves = locate_leaves_batch(layout, targets)
        trace = traverse_batch(layout, targets)
        assert np.array_equal(leaves, trace.node_idx[-1] - layout.leaf_start)

    def test_locate_leaves_bounds_agrees_with_traversal(self, setup):
        from repro.core.search import locate_leaves_batch, locate_leaves_bounds

        layout, _ = setup
        gen = np.random.default_rng(7)
        targets = gen.integers(-100, 11_000, 500).astype(np.int64)
        targets = np.maximum(targets, 0)
        assert np.array_equal(
            locate_leaves_bounds(layout, targets),
            locate_leaves_batch(layout, targets),
        )


class TestRangeBatchEdgeCases:
    """Hypothesis coverage of the edge geometry: empty/inverted/duplicate
    bounds, bound pairs that collapse to one leaf, and windows spanning
    gapped leaves (slack, empty rows) produced by the gapped executor."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        bounds=st.lists(
            st.tuples(st.integers(-50, 10_200), st.integers(-50, 10_200)),
            min_size=1, max_size=30,
        )
    )
    def test_arbitrary_bound_pairs_match_bruteforce(self, setup, bounds):
        layout, keys = setup
        los = np.asarray([max(a, 0) for a, _ in bounds], dtype=np.int64)
        his = np.asarray([max(b, 0) for _, b in bounds], dtype=np.int64)
        out = range_search_batch(layout, los, his)
        for (bk, bv), lo, hi in zip(out, los, his):
            ref = keys[(keys >= lo) & (keys <= hi)]
            assert np.array_equal(bk, ref)
            assert np.array_equal(bv, ref * 2)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(lo=st.integers(0, 10_200))
    def test_duplicate_and_inverted_bounds(self, setup, lo):
        layout, keys = setup
        los = np.asarray([lo, lo, lo + 1], dtype=np.int64)
        his = np.asarray([lo, lo - 1, lo], dtype=np.int64)  # point/inverted
        point, inverted, backwards = range_search_batch(layout, los, his)
        ref = keys[(keys >= lo) & (keys <= lo)]
        assert np.array_equal(point[0], ref)
        assert inverted[0].size == 0
        assert backwards[0].size == 0

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        dels=st.lists(st.integers(0, 199), min_size=0, max_size=120,
                      unique=True),
        ins=st.lists(st.integers(0, 420), min_size=0, max_size=40,
                     unique=True),
        lo=st.integers(-5, 430),
        width=st.integers(0, 430),
    )
    def test_windows_spanning_gapped_leaves(self, dels, ins, lo, width):
        """Windows over a layout whose rows carry slack and possibly
        emptied leaves (the bulk layout with the deletes cut out in place)
        and over the tree the same batch was written to: sentinel pads
        and empty rows inside the window must never leak."""
        from repro.core import HarmoniaTree
        from repro.core.update import Operation

        keys = np.arange(0, 400, 2, dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, values=keys * 3,
                                        fanout=8, fill=0.7)
        lo = max(lo, 0)
        hi = lo + width
        survivors = np.setdiff1d(keys, 2 * np.asarray(dels, dtype=np.int64))
        if survivors.size:
            thin = tree.layout.thinned(survivors)
            (k, v), = range_search_batch(thin, [lo], [hi])
            ref = survivors[(survivors >= lo) & (survivors <= hi)]
            assert np.array_equal(k, ref)
            assert np.array_equal(v, ref * 3)
        ops = [Operation("delete", 2 * d) for d in dels]
        ops += [Operation("insert", 2 * i + 1, (2 * i + 1) * 3)
                for i in ins]
        tree.apply_batch(ops)
        if tree.snapshot is None:
            return
        stored = np.asarray([k for k, _ in tree.items()], dtype=np.int64)
        (k, v), = range_search_batch(
            tree.snapshot, np.asarray([lo]), np.asarray([hi])
        )
        ref = stored[(stored >= lo) & (stored <= hi)]
        assert np.array_equal(k, ref)
        assert np.array_equal(v, ref * 3)
