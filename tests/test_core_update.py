"""Tests for the batch-update machinery (§3.2.2): the write batch and
its entry checks, in-place edits, auxiliary nodes, and the movement
pass."""

import numpy as np
import pytest

from repro.constants import KEY_MAX, NOT_FOUND
from repro.core.epoch import EpochManager
from repro.core.layout import HarmoniaLayout
from repro.core.search import search_batch, search_scalar
from repro.core.tree import HarmoniaTree
from repro.core.update import (
    K_DELETE,
    K_INSERT,
    K_UPDATE,
    AuxiliaryNode,
    BatchUpdater,
    OpBatch,
    Operation,
)
from repro.errors import ConfigError, InvalidKeyError
from repro.shard import ShardedTree


def layout_of(keys, fanout=8, fill=0.8):
    return HarmoniaLayout.from_sorted(np.asarray(keys, dtype=np.int64),
                                      fanout=fanout, fill=fill)


class TestOperation:
    def test_valid(self):
        Operation("insert", 1, 2)
        Operation("update", 1, 2)
        Operation("delete", 1)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            Operation("upsert", 1, 2)

    def test_sentinel_key_rejected(self):
        with pytest.raises(Exception):
            Operation("insert", KEY_MAX, 0)

    @pytest.mark.parametrize("key", [1.5, np.float64(2.0), "3", None])
    def test_key_must_be_an_integer(self, key):
        with pytest.raises(InvalidKeyError):
            Operation("insert", key, 0)

    @pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 2 ** 70, 1.5,
                                       "3", None])
    def test_value_must_be_an_int64(self, value):
        with pytest.raises(ConfigError):
            Operation("insert", 1, value)

    def test_numpy_integer_value_accepted(self):
        assert Operation("update", 1, np.int32(-4)).value == -4


class TestOpBatch:
    def test_of_converts_operations_in_order(self):
        batch = OpBatch.of([Operation("update", 4, -1),
                            Operation("insert", 2, 7),
                            Operation("delete", 4)])
        assert batch.kinds.dtype == np.int8
        assert batch.keys.dtype == batch.values.dtype == np.int64
        assert batch.kinds.tolist() == [K_UPDATE, K_INSERT, K_DELETE]
        assert batch.keys.tolist() == [4, 2, 4]
        assert batch.values.tolist() == [-1, 7, 0]
        assert len(batch) == 3

    def test_of_passes_a_batch_through(self):
        batch = OpBatch([0], [1], [2])
        assert OpBatch.of(batch) is batch

    def test_of_empty(self):
        assert len(OpBatch.of([])) == 0 and len(OpBatch([], [], [])) == 0

    @pytest.mark.parametrize("bad", [("insert", 3, 7), None, OpBatch.of([])])
    def test_of_rejects_a_non_operation(self, bad):
        with pytest.raises(ConfigError):
            OpBatch.of([Operation("insert", 1, 5), bad])

    def test_slicing_and_concat_keep_order(self):
        batch = OpBatch([0, 1, 2, 0], [5, 6, 7, 8], [1, 2, 3, 4])
        back = OpBatch.concat([batch[:1], batch[1:3], batch[3:]])
        assert back.keys.tolist() == [5, 6, 7, 8]
        picked = batch[np.array([3, 0])]
        assert picked.kinds.tolist() == [0, 0]
        assert picked.values.tolist() == [4, 1]

    @pytest.mark.parametrize("kinds, keys, values", [
        ([3], [1], [1]),  # not an op code
        ([-1], [1], [1]),
        ([0], [1.0], [1]),  # a float key
        ([0], [1], [1.5]),  # a float value
        ([0], [1], [2 ** 70]),  # no integer dtype holds it
        ([0], [1], np.array([2 ** 63], dtype=np.uint64)),  # past int64
        ([0, 0], [1, 2], [1]),  # unequal lengths
        ([[0]], [[1]], [[1]]),  # not 1-D
    ])
    def test_constructor_rejects(self, kinds, keys, values):
        with pytest.raises(ConfigError):
            OpBatch(kinds, keys, values)

    def test_sentinel_key_rejected(self):
        with pytest.raises(InvalidKeyError):
            OpBatch([0], [KEY_MAX], [0])

    def test_constructor_coerces_integer_arrays(self):
        batch = OpBatch(np.array([1], dtype=np.int64),
                        np.array([3], dtype=np.int32),
                        np.array([2 ** 40], dtype=np.uint64))
        assert batch.kinds.dtype == np.int8
        assert batch.keys.dtype == batch.values.dtype == np.int64
        assert batch.values.tolist() == [2 ** 40]


# Bad writes: each is built inside the surface's ``pytest.raises`` block.
# A non-Operation element is refused by ``OpBatch.of`` at the surface;
# an out-of-range or non-integer value by ``Operation`` itself; the
# array forms by the ``OpBatch`` constructor.
BAD_WRITES = {
    "tuple_element": lambda: [Operation("insert", 1, 5), ("insert", 3, 7)],
    "value_overflow": lambda: [Operation("insert", 1, 5),
                               Operation("insert", 3, 2 ** 70)],
    "float_value": lambda: [Operation("insert", 1, 5),
                            Operation("insert", 5, 1.5)],
    "array_overflow": lambda: OpBatch([0, 0], [1, 3], [5, 2 ** 70]),
    "array_float_value": lambda: OpBatch([0, 0], [1, 5], [5, 1.5]),
    "array_bad_kind": lambda: OpBatch([0, 7], [1, 3], [5, 7]),
}
BASE = np.arange(0, 64, 2, dtype=np.int64)


def _open_surface(surface):
    if surface == "shards":
        return ShardedTree.from_sorted(BASE, BASE * 3, n_shards=2, fanout=8)
    tree = HarmoniaTree.from_sorted(BASE, BASE * 3, fanout=8)
    return tree if surface == "tree" else EpochManager(tree)


def _write(surf, ops):
    if isinstance(surf, EpochManager):
        surf.submit_many(ops)
        return surf.flush()
    return surf.apply_batch(ops)


def _state(surf):
    """Visible contents plus what a write would change besides them."""
    res = surf.range_search_batch([0], [1 << 40])
    contents = (res.keys.tolist(), res.values.tolist())
    if isinstance(surf, HarmoniaTree):
        return contents, surf.snapshot
    if isinstance(surf, EpochManager):
        return contents, surf.epoch, surf.pending_operations()
    return contents, [len(s.oplog) for s in surf._shards], \
        [surf.ping(s)[0] for s in range(surf.n_shards)]


@pytest.mark.parametrize("case", sorted(BAD_WRITES))
@pytest.mark.parametrize("surface", ["tree", "epoch", "shards"])
def test_rejected_write_leaves_surface_unchanged(surface, case):
    """A bad write raises ``ConfigError`` before anything changes: the
    batch's valid ops are not applied or left pending either, and the
    next good write goes through as usual."""
    surf = _open_surface(surface)
    try:
        before = _state(surf)
        with pytest.raises(ConfigError):
            _write(surf, BAD_WRITES[case]())
        assert _state(surf) == before
        if isinstance(surf, EpochManager):
            assert surf.flush() is None
        assert _write(surf, [Operation("insert", 1, 5)]).inserted == 1
        assert surf.search(1) == 5
    finally:
        if not isinstance(surf, HarmoniaTree):
            surf.close()


class TestAuxiliaryNode:
    def test_from_row_skips_padding(self):
        row = np.array([1, 5, KEY_MAX, KEY_MAX], dtype=np.int64)
        vals = np.array([10, 50, NOT_FOUND, NOT_FOUND], dtype=np.int64)
        aux = AuxiliaryNode.from_row(row, vals)
        assert aux.keys == [1, 5] and aux.values == [10, 50]

    def test_insert_sorted(self):
        aux = AuxiliaryNode(keys=[1, 5], values=[10, 50])
        assert aux.insert(3, 30)
        assert aux.keys == [1, 3, 5]

    def test_insert_duplicate(self):
        aux = AuxiliaryNode(keys=[1], values=[10])
        assert not aux.insert(1, 99)
        assert aux.values == [10]

    def test_update_delete_find(self):
        aux = AuxiliaryNode(keys=[1, 2], values=[10, 20])
        assert aux.update(2, 22)
        assert aux.find(2) == 22
        assert aux.delete(1)
        assert aux.find(1) is None
        assert not aux.delete(1)


class TestInPlaceOps:
    def test_update_in_place(self):
        layout = layout_of(range(0, 100, 2))
        up = BatchUpdater(layout, fill=0.8)
        up.apply_op(Operation("update", 10, 999))
        assert search_scalar(layout, 10) == 999
        assert up.result.updated == 1
        assert not up.aux

    def test_update_missing_fails(self):
        layout = layout_of(range(0, 100, 2))
        up = BatchUpdater(layout, fill=0.8)
        up.apply_op(Operation("update", 11, 999))
        assert up.result.failed == 1

    def test_insert_into_free_slot(self):
        layout = layout_of(range(0, 100, 2), fill=0.5)  # room in leaves
        up = BatchUpdater(layout, fill=0.5)
        up.apply_op(Operation("insert", 11, 111))
        assert up.result.inserted == 1
        assert search_scalar(layout, 11) == 111
        assert not up.aux  # no split needed

    def test_insert_duplicate_fails(self):
        layout = layout_of(range(0, 100, 2), fill=0.5)
        up = BatchUpdater(layout, fill=0.5)
        up.apply_op(Operation("insert", 10, 1))
        assert up.result.failed == 1

    def test_delete_in_place(self):
        layout = layout_of(range(0, 200, 2), fill=1.0)  # full leaves
        up = BatchUpdater(layout, fill=1.0)
        up.apply_op(Operation("delete", 10))
        assert up.result.deleted == 1
        assert search_scalar(layout, 10) is None


class TestStructuralOps:
    def test_insert_into_full_leaf_stages_aux(self):
        layout = layout_of(range(0, 100, 2), fill=1.0)
        up = BatchUpdater(layout, fill=1.0)
        up.apply_op(Operation("insert", 11, 111))
        assert up.result.inserted == 1
        assert up.result.split_leaves == 1
        assert len(up.aux) == 1
        # The key region itself is untouched until movement.
        assert search_scalar(layout, 11) is None

    def test_ops_on_aux_leaf_redirect(self):
        layout = layout_of(range(0, 100, 2), fill=1.0)
        up = BatchUpdater(layout, fill=1.0)
        up.apply_op(Operation("insert", 11, 111))
        leaf = next(iter(up.aux))
        # A later update to a key in that leaf must hit the aux node.
        target = up.aux[leaf].keys[0]
        up.apply_op(Operation("update", int(target), 4242))
        assert up.aux[leaf].find(int(target)) == 4242

    def test_delete_below_min_goes_structural(self):
        layout = layout_of(range(0, 40, 2), fanout=8, fill=0.5)
        up = BatchUpdater(layout, fill=0.5)
        # Leaves at fill 0.5 hold ~the minimum; deleting twice from one leaf
        # must escalate to the structural path.
        row = layout.key_region[layout.leaf_start]
        victims = row[row != KEY_MAX][:2]
        for v in victims:
            up.apply_op(Operation("delete", int(v)))
        assert up.result.deleted == 2
        assert up.result.split_leaves >= 1  # aux was created


class TestMovement:
    def test_noop_batch_keeps_layout_equal(self):
        layout = layout_of(range(0, 100, 2))
        up = BatchUpdater(layout, fill=0.8)
        new = up.movement()
        new.check_invariants()
        assert np.array_equal(new.all_keys(), layout.all_keys())

    def test_split_materializes(self):
        layout = layout_of(range(0, 100, 2), fill=1.0)
        up = BatchUpdater(layout, fill=1.0)
        up.apply_op(Operation("insert", 11, 111))
        new = up.movement()
        new.check_invariants()
        assert search_scalar(new, 11) == 111
        assert new.n_keys == layout.n_keys + 1

    def test_mass_inserts_grow_height_legally(self):
        layout = layout_of(range(0, 2_000, 2), fanout=8, fill=1.0)
        up = BatchUpdater(layout, fill=1.0)
        for k in range(1, 2_000, 2):
            up.apply_op(Operation("insert", k, k))
        new = up.movement()
        new.check_invariants()
        assert new.n_keys == 2_000
        out = search_batch(new, np.arange(2_000))
        assert np.array_equal(out, np.where(np.arange(2000) % 2 == 0,
                                            np.arange(2000), np.arange(2000)))

    def test_mass_deletes_shrink(self):
        layout = layout_of(range(1_000), fanout=8, fill=0.8)
        up = BatchUpdater(layout, fill=0.8)
        for k in range(0, 1_000, 2):
            up.apply_op(Operation("delete", k))
        new = up.movement()
        new.check_invariants()
        assert new.n_keys == 500
        assert search_scalar(new, 0) is None
        assert search_scalar(new, 1) == 1

    def test_delete_everything_returns_none(self):
        layout = layout_of(range(10), fanout=8)
        up = BatchUpdater(layout, fill=1.0)
        for k in range(10):
            up.apply_op(Operation("delete", k))
        assert up.movement() is None

    def test_clean_rows_reused_verbatim(self):
        layout = layout_of(range(0, 10_000, 2), fanout=16, fill=0.7)
        up = BatchUpdater(layout, fill=0.7)
        up.apply_op(Operation("update", 0, 42))  # in-place, leaf 0 stays clean
        new = up.movement()
        assert up.result.moved_clean > 0
        assert search_scalar(new, 0) == 42

    def test_movement_counts_add_up(self):
        layout = layout_of(range(0, 1_000, 2), fanout=8, fill=1.0)
        up = BatchUpdater(layout, fill=1.0)
        for k in range(1, 200, 2):
            up.apply_op(Operation("insert", k, k))
        new = up.movement()
        assert up.result.moved_clean + up.result.rebuilt_dirty == new.n_leaves
