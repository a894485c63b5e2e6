"""Tests for HarmoniaLayout — the two-region structure (§3.1)."""

import numpy as np
import pytest

from repro.btree.bulk import bulk_load
from repro.constants import KEY_MAX
from repro.core.layout import HarmoniaLayout
from repro.errors import EmptyTreeError, InvariantViolation


class TestConstruction:
    def test_from_regular_roundtrips_keys(self, small_keys):
        tree = bulk_load(small_keys, fanout=8, fill=0.8)
        layout = HarmoniaLayout.from_regular(tree)
        layout.check_invariants()
        assert np.array_equal(layout.all_keys(), small_keys)
        assert layout.n_keys == small_keys.size
        assert layout.height == tree.height

    def test_from_sorted_equals_from_regular(self, small_keys):
        a = HarmoniaLayout.from_sorted(small_keys, fanout=8, fill=0.8)
        b = HarmoniaLayout.from_regular(bulk_load(small_keys, fanout=8, fill=0.8))
        assert np.array_equal(a.key_region, b.key_region)
        assert np.array_equal(a.prefix_sum, b.prefix_sum)

    def test_empty_rejected(self):
        with pytest.raises(EmptyTreeError):
            HarmoniaLayout.from_sorted([], fanout=8)

    def test_single_key(self):
        layout = HarmoniaLayout.from_sorted([42], fanout=8)
        layout.check_invariants()
        assert layout.height == 1
        assert layout.n_nodes == 1
        assert layout.leaf_start == 0

    def test_values_follow_leaves(self):
        keys = np.arange(0, 100, 2)
        layout = HarmoniaLayout.from_sorted(keys, values=keys * 7, fanout=4)
        flat = layout.iter_leaf_items()
        assert np.array_equal(flat[:, 0] * 7, flat[:, 1])


class TestPrefixSumSemantics:
    @pytest.fixture(scope="class")
    def layout(self):
        return HarmoniaLayout.from_sorted(np.arange(2_000), fanout=8, fill=0.8)

    def test_root_first_child_is_one(self, layout):
        assert layout.prefix_sum[0] == 1

    def test_equation_1(self, layout):
        # child_idx = PrefixSum[node] + i  (0-based i)
        for node in range(layout.leaf_start):
            n = layout.children_count(node)
            for i in (0, n - 1):
                ci = layout.child_index(node, i)
                assert ci == layout.prefix_sum[node] + i
                assert 0 < ci < layout.n_nodes

    def test_child_index_bounds_checked(self, layout):
        n = layout.children_count(0)
        with pytest.raises(IndexError):
            layout.child_index(0, n)
        with pytest.raises(IndexError):
            layout.child_index(0, -1)

    def test_children_counts_match_key_counts(self, layout):
        for node in range(layout.leaf_start):
            assert layout.children_count(node) == layout.key_count(node) + 1

    def test_leaves_have_no_children(self, layout):
        for node in range(layout.leaf_start, layout.n_nodes):
            assert layout.children_count(node) == 0
            assert layout.is_leaf(node)

    def test_levels_partition_nodes(self, layout):
        for node in range(layout.n_nodes):
            lvl = layout.level_of(node)
            assert layout.level_starts[lvl] <= node < layout.level_starts[lvl + 1]


class TestFootprints:
    def test_child_region_is_small(self):
        # §3.1: "for a 64-fanout 4-level B+tree, the size of its prefix-sum
        # array at most is only about 16KB".  4 full levels at fanout 64
        # hold 64^0+..+64^3 nodes ≈ 266k... the paper means the *child*
        # region of a 4-level tree with ~2k internal nodes; check the
        # general property instead: child region ≈ key region / (8·slots).
        layout = HarmoniaLayout.from_sorted(np.arange(100_000), fanout=64)
        ratio = layout.child_region_bytes() / layout.key_region_bytes()
        assert ratio < 1 / (layout.slots / 2)

    def test_bytes_accessors(self, small_layout):
        assert small_layout.key_region_bytes() == small_layout.key_region.nbytes
        assert small_layout.child_region_bytes() == small_layout.prefix_sum.nbytes
        assert small_layout.values_bytes() == small_layout.leaf_values.nbytes


class TestKeySpace:
    def test_max_key(self, small_keys, small_layout):
        assert small_layout.max_key() == int(small_keys[-1])

    def test_key_space_bits(self, small_layout):
        bits = small_layout.key_space_bits()
        assert (1 << bits) > small_layout.max_key() >= (1 << (bits - 1)) - 1


class TestInvariantChecker:
    def test_detects_unsorted_row(self, small_keys):
        layout = HarmoniaLayout.from_sorted(small_keys, fanout=8)
        layout.key_region = layout.key_region.copy()
        layout.key_region[0, 0], layout.key_region[0, 1] = (
            layout.key_region[0, 1],
            layout.key_region[0, 0],
        )
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_detects_bad_prefix(self, small_keys):
        layout = HarmoniaLayout.from_sorted(small_keys, fanout=8)
        layout.prefix_sum = layout.prefix_sum.copy()
        layout.prefix_sum[1] += 1
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_detects_wrong_n_keys(self, small_keys):
        layout = HarmoniaLayout.from_sorted(small_keys, fanout=8)
        layout.n_keys += 1
        with pytest.raises(InvariantViolation):
            layout.check_invariants()


class TestGappedAccessors:
    """Per-leaf fill counts, routing bounds and occupancy — the layout
    surface the gapped update executor builds on."""

    def _gapped(self, n=500, fanout=8, fill=0.7):
        keys = np.arange(0, n * 2, 2, dtype=np.int64)
        return HarmoniaLayout.from_sorted(keys, values=keys,
                                          fanout=fanout, fill=fill), keys

    def test_leaf_key_counts_match_rows(self):
        layout, _ = self._gapped()
        counts = layout.leaf_key_counts()
        ref = np.sum(layout.key_region[layout.leaf_start:] != KEY_MAX, axis=1)
        assert np.array_equal(counts, ref)
        assert counts.sum() == layout.n_keys

    def test_leaf_key_counts_copy_semantics(self):
        layout, _ = self._gapped()
        a = layout.leaf_key_counts()
        a[0] = -99  # callers may scribble on the default copy
        assert layout.leaf_key_counts()[0] != -99
        b = layout.leaf_key_counts(copy=False)
        assert b is layout.leaf_key_counts(copy=False)  # cached view

    def test_occupancy(self):
        layout, _ = self._gapped(fill=0.7)
        occ = layout.occupancy()
        assert 0.6 <= occ <= 0.85
        full, _ = self._gapped(fill=1.0)
        assert full.occupancy() > occ

    def test_leaf_bounds_route_like_traversal(self):
        from repro.core.search import locate_leaves_batch

        layout, keys = self._gapped(fanout=16, fill=0.6)
        bounds = layout.leaf_bounds()
        assert bounds.size == layout.n_leaves
        assert bounds[0] == np.iinfo(np.int64).min  # leaf 0 catches all
        assert np.all(np.diff(bounds[1:]) >= 0)  # (diff over the sentinel
        # would overflow int64, so sortedness is checked past it)
        targets = np.concatenate([keys, keys + 1, [0, 10**9]])
        via_bounds = np.searchsorted(bounds, targets, side="right") - 1
        assert np.array_equal(via_bounds,
                              locate_leaves_batch(layout, targets))

    def test_min_max_key_skip_emptied_leaves(self):
        keys = np.arange(0, 200, 2, dtype=np.int64)
        full = HarmoniaLayout.from_sorted(keys, fanout=8, fill=0.7)
        # Empty the first and last leaves in place.
        layout = full.thinned(keys[(keys >= 12) & (keys < 188)])
        counts = layout.leaf_key_counts()
        assert counts[0] == 0 or counts[-1] == 0  # gaps really exist
        assert layout.min_key() == 12
        assert layout.max_key() == 186

    def test_invariants_reject_stale_leaf_counts(self):
        layout, _ = self._gapped()
        layout.leaf_counts = layout.leaf_key_counts()
        layout.check_invariants()
        layout.leaf_counts[0] += 1
        with pytest.raises(InvariantViolation):
            layout.check_invariants()

    def test_copy_preserves_leaf_counts(self):
        layout, _ = self._gapped()
        layout.leaf_counts = layout.leaf_key_counts()
        dup = layout.copy()
        assert np.array_equal(dup.leaf_counts, layout.leaf_counts)
        assert dup.leaf_counts is not layout.leaf_counts
