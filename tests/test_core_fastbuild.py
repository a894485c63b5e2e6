"""Tests for the vectorized layout builder (equivalence with the object
path is the contract)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.bulk import _chunk_sizes, bulk_load
from repro.core.fastbuild import (
    _chunk_sizes_fast,
    build_layout_fast,
    layout_height,
)
from repro.core.layout import HarmoniaLayout
from repro.errors import ConfigError, EmptyTreeError


class TestChunkSizesFast:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(0, 100_000),
        fanout=st.integers(3, 128),
        fill=st.floats(0.01, 1.0),
    )
    def test_matches_loop(self, n, fanout, fill):
        """The closed form reproduces the greedy loop exactly — over the
        same (target, minimum, maximum) space build_layout_fast uses for
        leaves and internal levels."""
        slots = fanout - 1
        for minimum, maximum in (
            ((slots + 1) // 2, slots),          # leaf chunking
            ((fanout + 1) // 2, fanout),        # internal chunking
        ):
            target = max(minimum, min(maximum, round(fill * maximum)))
            assert (
                _chunk_sizes_fast(n, target, minimum, maximum).tolist()
                == _chunk_sizes(n, target, minimum, maximum)
            )


def via_objects(keys, values, fanout, fill):
    return HarmoniaLayout.from_regular(
        bulk_load(keys, values, fanout=fanout, fill=fill)
    )


class TestEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 63, 64, 1_000, 4_097])
    @pytest.mark.parametrize("fanout,fill", [(4, 1.0), (8, 0.7), (64, 0.5)])
    def test_byte_identical(self, n, fanout, fill):
        keys = np.arange(n, dtype=np.int64) * 5
        values = keys + 1
        fast = build_layout_fast(keys, values, fanout=fanout, fill=fill)
        slow = via_objects(keys, values, fanout=fanout, fill=fill)
        assert np.array_equal(fast.key_region, slow.key_region)
        assert np.array_equal(fast.prefix_sum, slow.prefix_sum)
        assert np.array_equal(fast.leaf_values, slow.leaf_values)
        assert np.array_equal(fast.level_starts, slow.level_starts)
        assert fast.height == slow.height

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        keys=st.sets(st.integers(0, (1 << 40) - 1), min_size=1, max_size=300),
        fanout=st.sampled_from([4, 8, 16, 64]),
        fill=st.sampled_from([0.5, 0.8, 1.0]),
    )
    def test_byte_identical_property(self, keys, fanout, fill):
        arr = np.array(sorted(keys), dtype=np.int64)
        fast = build_layout_fast(arr, fanout=fanout, fill=fill)
        slow = via_objects(arr, None, fanout=fanout, fill=fill)
        assert np.array_equal(fast.key_region, slow.key_region)
        assert np.array_equal(fast.prefix_sum, slow.prefix_sum)


class TestValidationAndScale:
    def test_empty_rejected(self):
        with pytest.raises(EmptyTreeError):
            build_layout_fast(np.array([], dtype=np.int64))

    def test_misaligned_values(self):
        with pytest.raises(ConfigError):
            build_layout_fast(np.arange(5), values=np.arange(4))

    def test_bad_fill(self):
        with pytest.raises(ConfigError):
            build_layout_fast(np.arange(5), fill=0.0)

    def test_large_tree_fast_and_sound(self):
        keys = np.arange(1 << 19, dtype=np.int64) * 7
        layout = build_layout_fast(keys, fanout=64, fill=0.7)
        layout.check_invariants()
        from repro.core.search import search_batch

        probe = keys[:: 1 << 10]
        assert np.array_equal(search_batch(layout, probe), probe)

    def test_from_sorted_now_delegates(self):
        keys = np.arange(1_000, dtype=np.int64)
        a = HarmoniaLayout.from_sorted(keys, fanout=8, fill=0.7)
        b = build_layout_fast(keys, fanout=8, fill=0.7)
        assert np.array_equal(a.key_region, b.key_region)


class TestLayoutHeight:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n=st.integers(1, 40_000),
        fanout=st.sampled_from([3, 4, 8, 16, 64]),
        fill=st.floats(0.05, 1.0),
    )
    def test_matches_the_built_layout(self, n, fanout, fill):
        keys = np.arange(n, dtype=np.int64) * 3
        assert layout_height(n, fanout, fill) == build_layout_fast(
            keys, fanout=fanout, fill=fill).height

    @pytest.mark.parametrize("fill", [0.5, 0.7, 1.0])
    @pytest.mark.parametrize("n", [1, 7, 63, 64, 4_095, 65_536, 300_001])
    def test_tree_height_derives_nothing(self, n, fill):
        """Reading the height of a fresh tree, or of one whose writes
        moved its derived fill, builds no layout."""
        from repro.core.tree import HarmoniaTree
        from repro.core.update import Operation

        tree = HarmoniaTree.from_sorted(np.arange(n, dtype=np.int64) * 4,
                                        fanout=64, fill=fill)
        tree.apply_batch([Operation("insert", 4 * k + 1, k)
                          for k in range(0, n, 3)])
        height = tree.height
        assert not tree.snapshot.derived
        assert height == tree.layout.height
        assert tree.snapshot.derived and tree.height == height

    def test_empty_is_zero(self):
        from repro.core.tree import HarmoniaTree

        assert layout_height(0, 8, 0.7) == 0
        assert HarmoniaTree.empty(fanout=8).height == 0
