"""Tests for tree cursors and the sorted-run merges (last-wins and
k-way)."""

import numpy as np
import pytest

from repro.core import HarmoniaTree
from repro.core.layout import HarmoniaLayout
from repro.errors import ConfigError


def lay(keys, values=None, fanout=8, fill=0.8):
    return HarmoniaLayout.from_sorted(
        np.asarray(keys, dtype=np.int64), values, fanout=fanout, fill=fill
    )


class TestCursors:
    @pytest.fixture(scope="class")
    def tree(self):
        keys = np.arange(0, 3_000, 3, dtype=np.int64)
        return HarmoniaTree.from_sorted(keys, keys * 2, fanout=8, fill=0.6)

    def test_full_scan_in_order(self, tree):
        items = list(tree.items())
        assert len(items) == 1_000
        keys = [k for k, _ in items]
        assert keys == sorted(keys)
        assert items[0] == (0, 0)
        assert items[-1] == (2_997, 5_994)

    def test_start_positions_cursor(self, tree):
        items = list(tree.items(start=100))
        assert items[0][0] == 102  # first stored key >= 100
        assert all(k >= 100 for k, _ in items)

    def test_start_on_existing_key(self, tree):
        assert next(tree.items(start=99))[0] == 99

    def test_start_beyond_max(self, tree):
        assert list(tree.items(start=10**9)) == []

    def test_keys_cursor(self, tree):
        ks = list(tree.keys(start=2_990))
        assert ks == [2_991, 2_994, 2_997]

    def test_empty_tree_cursor(self):
        assert list(HarmoniaTree.empty().items()) == []

    def test_lazy(self, tree):
        gen = tree.items()
        assert next(gen) == (0, 0)  # no materialization required


class TestMergeLastWins:
    """The two-way merge every delta publish folds a run with
    (``core.merge.merge_last_wins``) — byte-identical to the
    concatenate/stable-argsort/keep-last reference."""

    @staticmethod
    def _reference(old, new, new_keep=None):
        """Stable argsort of older-then-newer, last occurrence wins; then
        keys the newer side masks off drop out."""
        (ok, ocols), (nk, ncols) = old, new
        ks = np.concatenate([ok, nk])
        cols = [np.concatenate([a, b]) for a, b in zip(ocols, ncols)]
        order = np.argsort(ks, kind="stable")
        ks, cols = ks[order], [c[order] for c in cols]
        keep = np.ones(ks.size, dtype=bool)
        keep[:-1] = ks[1:] != ks[:-1]  # last occurrence wins
        ks, cols = ks[keep], [c[keep] for c in cols]
        if new_keep is not None:
            drop = nk[~new_keep]
            live = ~np.isin(ks, drop)
            ks, cols = ks[live], [c[live] for c in cols]
        return ks, cols

    @staticmethod
    def _side(rng, keys):
        keys = np.unique(keys.astype(np.int64))
        return keys, (rng.integers(-100, 100, size=keys.size),
                      rng.random(keys.size) < 0.3)

    def test_fuzz_matches_argsort_reference(self):
        """Random shapes, with each of the edge cases forced in turn:
        empty older / newer side, full overlap (same keys), disjoint
        (newer all above or all below), and tombstones either kept as a
        column or used as the drop mask."""
        from repro.core.merge import merge_last_wins

        rng = np.random.default_rng(7)
        shapes = ["random", "empty_old", "empty_new", "overlap",
                  "above", "below"]
        for trial in range(300):
            shape = shapes[trial % len(shapes)]
            n_old, n_new = int(rng.integers(0, 40)), int(rng.integers(0, 40))
            old_keys = rng.integers(0, 60, size=n_old)
            new_keys = rng.integers(0, 60, size=n_new)
            if shape == "empty_old":
                old_keys = old_keys[:0]
            elif shape == "empty_new":
                new_keys = new_keys[:0]
            elif shape == "overlap":
                new_keys = old_keys.copy()
            elif shape == "above":
                new_keys = new_keys + 100
            elif shape == "below":
                new_keys = new_keys - 100
            old = self._side(rng, old_keys)
            new = self._side(rng, new_keys)
            as_mask = bool(trial % 2)
            new_keep = ~new[1][1] if as_mask else None
            got_k, got_cols = merge_last_wins(old[0], old[1], new[0],
                                              new[1], new_keep=new_keep)
            exp_k, exp_cols = self._reference(old, new, new_keep)
            assert got_k.dtype == np.int64
            assert np.array_equal(got_k, exp_k), shape
            for got, exp in zip(got_cols, exp_cols):
                assert got.dtype == exp.dtype
                assert np.array_equal(got, exp), shape

    def test_fuzz_few_newer_entries_match_reference(self):
        """A newer run far smaller than the older one takes the
        segment-copy path; it must match the same reference, including
        replaced and tombstoned keys at the older run's ends."""
        from repro.core.merge import _SEGMENT_RATIO, merge_last_wins

        rng = np.random.default_rng(11)
        for trial in range(120):
            n_new = int(rng.integers(1, 6))
            n_old = n_new * _SEGMENT_RATIO + int(rng.integers(0, 3000))
            old_keys = rng.choice(4 * n_old, size=n_old, replace=False)
            old = self._side(rng, old_keys)
            ok = old[0]
            pick = [ok[0], ok[-1], ok[0] - 1, ok[-1] + 1]
            new_keys = np.concatenate((
                rng.integers(-5, 4 * n_old + 5, size=n_new),
                rng.choice(pick, size=trial % 3),
            ))
            new = self._side(rng, new_keys)
            if new[0].size * _SEGMENT_RATIO > ok.size:
                continue
            new_keep = ~new[1][1] if trial % 2 else None
            got_k, got_cols = merge_last_wins(ok, old[1], new[0], new[1],
                                              new_keep=new_keep)
            exp_k, exp_cols = self._reference(old, new, new_keep)
            assert np.array_equal(got_k, exp_k)
            for got, exp in zip(got_cols, exp_cols):
                assert got.dtype == exp.dtype
                assert np.array_equal(got, exp)

    def test_mismatched_columns_rejected(self):
        from repro.core.merge import merge_last_wins

        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(ConfigError):
            merge_last_wins(empty, (), np.arange(3), (np.arange(2),))
        with pytest.raises(ConfigError):
            merge_last_wins(np.arange(3), (np.arange(2),), empty, ())


class TestKwayMergeRuns:
    """Merging k published runs, latest wins — now the left fold of
    ``core.delta.fold_run`` over them, one two-way merge per run — must
    stay byte-identical to the concatenate/argsort/keep-last reference."""

    @staticmethod
    def _reference(parts):
        ks = np.concatenate([k for k, _ in parts])
        vs = np.concatenate([v for _, v in parts])
        order = np.argsort(ks, kind="stable")
        ks, vs = ks[order], vs[order]
        keep = np.ones(ks.size, dtype=bool)
        keep[:-1] = ks[1:] != ks[:-1]  # last occurrence wins
        return ks[keep], vs[keep]

    @staticmethod
    def _merge(parts):
        import functools

        from repro.constants import VALUE_DTYPE
        from repro.core.delta import DeltaRun, fold_run

        def run(k, v):
            k = np.asarray(k, dtype=np.int64)
            return DeltaRun(keys=k, values=np.asarray(v, dtype=VALUE_DTYPE),
                            tombstones=np.zeros(k.size, dtype=bool), net=0)

        merged = functools.reduce(
            fold_run, (run(k, v) for k, v in parts), run([], []))
        assert not merged.tombstones.any()
        return merged.keys, merged.values

    def test_fuzz_matches_argsort_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_runs = rng.integers(2, 6)
            parts = []
            for _ in range(n_runs):
                n = int(rng.integers(0, 40))
                k = np.unique(rng.integers(0, 60, size=n).astype(np.int64))
                v = rng.integers(-100, 100, size=k.size).astype(np.int64)
                parts.append((k, v))
            got_k, got_v = self._merge(parts)
            exp_k, exp_v = self._reference(parts)
            assert np.array_equal(got_k, exp_k)
            assert np.array_equal(got_v, exp_v)

    def test_latest_run_wins_on_ties(self):
        parts = [
            (np.array([1, 5]), np.array([10, 50])),
            (np.array([5, 9]), np.array([-5, 90])),
            (np.array([5]), np.array([555])),
        ]
        k, v = self._merge(parts)
        assert k.tolist() == [1, 5, 9]
        assert v.tolist() == [10, 555, 90]

    def test_disjoint_runs_gallop_whole_blocks(self):
        parts = [
            (np.arange(0, 100), np.arange(0, 100) * 2),
            (np.arange(100, 200), np.arange(100, 200) * 3),
            (np.arange(200, 300), np.arange(200, 300) * 5),
        ]
        k, v = self._merge(parts)
        exp_k, exp_v = self._reference(parts)
        assert np.array_equal(k, exp_k) and np.array_equal(v, exp_v)
        # Newer runs placed below older ones merge the same way.
        k, v = self._merge(parts[::-1])
        exp_k, exp_v = self._reference(parts[::-1])
        assert np.array_equal(k, exp_k) and np.array_equal(v, exp_v)

    def test_empty_runs_and_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        k, v = self._merge([(empty, empty)] * 3)
        assert k.size == 0 and v.size == 0
        k, v = self._merge([])
        assert k.size == 0 and v.size == 0
