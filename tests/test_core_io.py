"""Tests for layout/tree persistence."""

import numpy as np
import pytest

from repro.constants import NOT_FOUND
from repro.core.epoch import EpochManager
from repro.core.io import (
    FORMAT_VERSION,
    LAYOUT_FORMAT_VERSION,
    load_layout,
    load_tree,
    save_layout,
    save_tree,
)
from repro.core.layout import HarmoniaLayout
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.errors import ConfigError, InvalidKeyError, InvariantViolation


@pytest.fixture
def layout(small_keys):
    return HarmoniaLayout.from_sorted(small_keys, values=small_keys * 2,
                                      fanout=8, fill=0.8)


class TestRoundtrip:
    def test_layout_roundtrip(self, layout, tmp_path):
        path = tmp_path / "tree.npz"
        save_layout(layout, path)
        loaded = load_layout(path)
        assert loaded.fanout == layout.fanout
        assert loaded.height == layout.height
        assert loaded.n_keys == layout.n_keys
        assert np.array_equal(loaded.key_region, layout.key_region)
        assert np.array_equal(loaded.prefix_sum, layout.prefix_sum)
        assert np.array_equal(loaded.leaf_values, layout.leaf_values)

    def test_loaded_layout_searchable(self, layout, small_keys, tmp_path):
        from repro.core.search import search_batch

        path = tmp_path / "tree.npz"
        save_layout(layout, path)
        loaded = load_layout(path)
        out = search_batch(loaded, small_keys[:100])
        assert np.array_equal(out, small_keys[:100] * 2)

    def test_tree_roundtrip(self, small_keys, tmp_path):
        tree = HarmoniaTree.from_sorted(small_keys, fanout=8, fill=0.8)
        path = tmp_path / "t.npz"
        save_tree(tree, path)
        loaded = load_tree(path, fill=0.8)
        assert len(loaded) == len(tree)
        assert loaded.search(int(small_keys[5])) == int(small_keys[5])
        # Loaded trees accept updates (fill policy threaded through).
        assert loaded.insert(int(small_keys[-1]) + 10, 1)
        loaded.check_invariants()


class TestTreeFormat:
    def test_pinned_view_roundtrips_its_delta(self, tmp_path):
        keys = np.arange(0, 4000, 2, dtype=np.int64)
        mgr = EpochManager(
            HarmoniaTree.from_sorted(keys, keys * 3, fanout=16, fill=0.7),
            drain_threshold=1 << 30)
        oracle = dict(zip(keys.tolist(), (keys * 3).tolist()))
        ops = [Operation("insert", 1, 11), Operation("delete", 0)]
        ops += [Operation("insert", k, -k) for k in range(5001, 5100, 7)]
        ops += [Operation("update", k, 9) for k in range(10, 400, 10)]
        ops += [Operation("delete", k) for k in range(600, 900, 6)]
        for op in ops:
            if op.kind == "delete":
                oracle.pop(op.key, None)
            else:
                oracle[op.key] = op.value
        mgr.submit_many(ops)
        mgr.flush()
        view = mgr.pin()
        assert view.delta is not None

        path = tmp_path / "view.npz"
        save_tree(view, path)
        assert not view.snapshot.derived  # saving builds no layout
        loaded = load_tree(path)
        assert loaded.delta is None
        assert not loaded.snapshot.derived
        assert loaded.snapshot.fill == 0.7 and loaded.fanout == 16
        assert loaded.search(1) == 11 and loaded.search(0) is None
        assert dict(loaded.items()) == oracle
        q = np.arange(-1, 5200, dtype=np.int64)
        want = np.array([oracle.get(k, NOT_FOUND) for k in q.tolist()])
        assert np.array_equal(loaded.search_many(q), want)
        loaded.check_invariants()

    def test_format_one_tree_file_still_loads(self, small_keys, tmp_path):
        # Trees used to be saved as their layout (format 1).
        tree = HarmoniaTree.from_sorted(small_keys, small_keys * 2,
                                        fanout=8, fill=0.8)
        path = tmp_path / "old.npz"
        save_layout(tree.layout, path)
        with np.load(path) as data:
            assert int(data["format_version"]) == LAYOUT_FORMAT_VERSION
        loaded = load_tree(path, fill=0.8)
        assert np.array_equal(loaded.search_many(small_keys), small_keys * 2)
        assert loaded.snapshot.derived  # the file held the layout

    def test_stored_block_is_validated(self, small_keys, tmp_path):
        path = tmp_path / "t.npz"
        save_tree(HarmoniaTree.from_sorted(small_keys, fanout=8), path)
        data = dict(np.load(path))
        assert int(data["format_version"]) == FORMAT_VERSION
        data["keys"] = data["keys"][::-1].copy()
        np.savez(path, **data)
        with pytest.raises(InvalidKeyError):
            load_tree(path)


class TestValidationAndErrors:
    def test_empty_tree_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            save_tree(HarmoniaTree.empty(), tmp_path / "x.npz")

    def test_version_guard(self, layout, tmp_path):
        path = tmp_path / "tree.npz"
        save_layout(layout, path)
        data = dict(np.load(path))
        data["format_version"] = np.int64(FORMAT_VERSION + 1)
        np.savez(path, **data)
        with pytest.raises(ConfigError, match="format version"):
            load_layout(path)

    def test_missing_fields_detected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.arange(3))
        with pytest.raises(ConfigError, match="missing"):
            load_layout(path)

    def test_corruption_caught_by_validation(self, layout, tmp_path):
        path = tmp_path / "tree.npz"
        save_layout(layout, path)
        data = dict(np.load(path))
        kr = data["key_region"].copy()
        kr[0, :2] = kr[0, :2][::-1]  # unsort the root row
        data["key_region"] = kr
        np.savez(path, **data)
        with pytest.raises(InvariantViolation):
            load_layout(path)
        # ...unless validation is explicitly skipped.
        loaded = load_layout(path, validate=False)
        assert loaded.n_keys == layout.n_keys
