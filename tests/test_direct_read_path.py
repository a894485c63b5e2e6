"""The direct host read path: PSA order → packed-leaf search → restore →
delta overlay, on every read surface.

* Hypothesis: every surface agrees with the naive ``search_batch`` walk
  (and, for epoch surfaces, with a dict oracle).
* The packed leaf block is the snapshot: pins of one snapshot share it,
  a drain-published snapshot gets its own, and neither reads, merge
  writes nor drains derive the layout.
* Snapshot immutability by construction: no update mode writes any
  array of its input layout.
* Truthful spans: the lookup and the work-model profile are recorded as
  two separate intervals.
* One thread: every host point read runs on the caller's thread.
"""

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.constants import NOT_FOUND
from repro.core import HarmoniaLayout, HarmoniaTree, SearchConfig
from repro.core.epoch import EpochManager
from repro.core.search import search_batch
from repro.core.update import Operation, scalar_apply
from repro.obs.schema import validate_snapshot
from repro.workloads.generators import make_key_set

surface_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def tree_case(draw):
    n_keys = draw(st.integers(min_value=1, max_value=1500))
    fanout = draw(st.sampled_from([4, 8, 16, 64]))
    fill = draw(st.sampled_from([0.5, 0.7, 1.0]))
    gapped = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n_keys, fanout, fill, gapped, seed


def _build(n_keys, fanout, fill, gapped, seed):
    rng = np.random.default_rng(seed)
    keys = make_key_set(n_keys, rng=seed)
    values = rng.integers(1, 1 << 40, keys.size)
    tree = HarmoniaTree.from_sorted(keys, values, fanout=fanout, fill=fill)
    oracle = dict(zip(keys.tolist(), values.tolist()))
    if gapped and keys.size > 2:
        doomed = keys[rng.random(keys.size) < 0.5]
        tree.apply_batch([Operation("delete", int(k)) for k in doomed])
        for k in doomed.tolist():
            del oracle[k]
    q = np.concatenate([
        rng.choice(keys, 300),
        rng.integers(0, int(keys.max()) + 3, 100),
    ]).astype(np.int64)
    return tree, oracle, q, rng


def _expect(oracle, q):
    return np.array([oracle.get(k, NOT_FOUND) for k in q.tolist()],
                    dtype=np.int64)


@surface_settings
@given(tree_case())
def test_tree_surfaces_equal_oracle(case):
    tree, oracle, q, _ = _build(*case)
    want = search_batch(tree.layout, q)
    assert np.array_equal(want, _expect(oracle, q))
    ordered = np.sort(q)
    want_sorted = search_batch(tree.layout, ordered)
    for cfg in (SearchConfig(), SearchConfig(use_psa=False)):
        assert np.array_equal(tree.search_many(q, cfg), want)
    for batch in (1, 64, 128):
        assert np.array_equal(tree.search_many(q[:batch]), want[:batch])
    assert np.array_equal(tree.search_sorted_many(ordered), want_sorted)


@surface_settings
@given(tree_case(), st.booleans())
def test_epoch_surfaces_equal_oracle(case, drain_first):
    tree, oracle, q, rng = _build(*case)
    mgr = EpochManager(tree, drain_threshold=1 << 30)
    top = int(q.max()) + 1
    ops = []
    present = np.unique(q)
    for k in rng.choice(present, min(40, present.size),
                        replace=False).tolist():
        if k in oracle:
            if rng.random() < 0.5:
                ops.append(Operation("delete", k))
                del oracle[k]
            else:
                ops.append(Operation("update", k, 7))
                oracle[k] = 7
    for i in range(20):
        ops.append(Operation("insert", top + i, i + 1))
        oracle[top + i] = i + 1
    mgr.submit_many(ops)
    mgr.flush()
    if drain_first:  # read the merged base instead of the overlay
        mgr.sync()
    q = np.concatenate([q, np.arange(top, top + 25, dtype=np.int64)])
    want = _expect(oracle, q)
    assert np.array_equal(mgr.search_many(q), want)
    assert np.array_equal(mgr.search_batch(q), want)
    assert np.array_equal(mgr.search_many(q[:100]), want[:100])
    ordered = np.sort(q)
    pinned = mgr.pin()
    assert np.array_equal(pinned.search_sorted_many(ordered),
                          _expect(oracle, ordered))
    mgr.sync()
    assert np.array_equal(mgr.search_many(q), want)


# ------------------------------------------------- packed block per snapshot


def test_pins_share_one_packed_block_and_drain_gets_a_new_one():
    keys = make_key_set(5000, rng=21)
    mgr = EpochManager(HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7),
                       drain_threshold=1 << 30)
    q = keys[::7]
    first, second = mgr.pin(), mgr.pin()
    assert first is not second and first.snapshot is second.snapshot
    first.search_many(q)
    second.search_many(q)
    assert first.engine() is not second.engine()
    block = first.snapshot.packed_leaves()
    assert second.snapshot.packed_leaves()[0] is block[0]
    assert mgr.pin().snapshot.packed_leaves()[0] is block[0]
    assert not first.snapshot.derived  # reads never derive the layout

    top = int(keys.max())
    mgr.submit_many([Operation("insert", top + 1 + i, i) for i in range(50)])
    mgr.flush()
    mgr.drain(wait=True)
    third = mgr.pin()
    assert third.snapshot is not first.snapshot
    # The drain's merged arrays are the new snapshot: frozen, fresh, and
    # byte-equal to the packed leaves of a bulk build of the contents.
    handed = third.snapshot.packed_leaves()
    assert not third.snapshot.derived
    fresh = HarmoniaLayout.from_sorted(*handed, fanout=16).packed_leaves()
    for arr, want, old in zip(handed, fresh, block):
        assert not arr.flags.writeable
        assert arr is not old and not np.shares_memory(arr, old)
        assert arr.dtype == want.dtype
        assert arr.tobytes() == want.tobytes()
    assert third.search_many(np.array([top + 5]))[0] == 4
    assert first.snapshot.packed_leaves()[0] is block[0]  # old pin unaffected


def test_merge_writes_never_derive_the_layout():
    keys = make_key_set(3000, rng=22)
    tree = HarmoniaTree.from_sorted(keys, fanout=8, fill=0.7)
    tree.apply_batch([Operation("insert", int(keys.max()) + 1, 1)])
    assert not tree.snapshot.derived
    # The scalar reference runs Algorithm 1 on the layout it derives.
    scalar_apply(tree, [Operation("insert", int(keys.max()) + 2, 1)])
    assert tree.snapshot.derived


# ------------------------------------------------------ snapshot immutability


def _layout_arrays(layout):
    return {
        "key_region": layout.key_region.copy(),
        "prefix_sum": layout.prefix_sum.copy(),
        "leaf_values": layout.leaf_values.copy(),
        "level_starts": layout.level_starts.copy(),
        "leaf_counts": layout.leaf_key_counts(copy=True),
        "leaf_bounds": layout.leaf_bounds().copy(),
    }


@pytest.mark.parametrize("mode", ["scalar", "merge"])
def test_update_modes_leave_input_layout_unchanged(mode):
    keys = make_key_set(4000, rng=23)
    tree = HarmoniaTree.from_sorted(keys, keys * 3, fanout=8, fill=1.0)
    old = tree.layout
    before = _layout_arrays(old)
    packed = tuple(a.copy() for a in old.packed_leaves())
    n_keys = old.n_keys
    rng = np.random.default_rng(24)
    fresh = np.setdiff1d(rng.integers(0, int(keys.max()), 600), keys)
    ops = (
        [Operation("insert", int(k), 5) for k in fresh[:300]]  # splits
        + [Operation("update", int(k), 9) for k in keys[::11]]
        + [Operation("delete", int(k)) for k in keys[5::13]]
    )
    if mode == "merge":
        tree.apply_batch(ops)
    else:
        scalar_apply(tree, ops, n_threads=1)
    assert tree.layout is not old
    for name, arr in _layout_arrays(old).items():
        assert np.array_equal(arr, before[name]), (mode, name)
        assert arr.tobytes() == before[name].tobytes(), (mode, name)
    assert old.n_keys == n_keys
    for cached, saved in zip(old.packed_leaves(), packed):
        assert np.array_equal(cached, saved)
    old.check_invariants()
    # the new snapshot sees the batch
    assert tree.search(int(keys[0])) == 9
    assert tree.search(int(keys[5])) is None


# ---------------------------------------------------------- truthful spans


def test_lookup_and_profile_are_separate_spans():
    keys = make_key_set(20000, rng=25)
    tree = HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7)
    with obs.recording() as rec:
        tree.search_many(keys[::3])
        tree.search_sorted_many(keys[::5])
    spans = [s for s in rec.spans() if s[0].startswith("engine.")]
    names = [s[0] for s in spans]
    assert names == ["engine.lookup", "engine.profile"] * 2
    for lookup, profile in zip(spans[::2], spans[1::2]):
        assert lookup[2] <= lookup[3] <= profile[2] <= profile[3]
    snap = rec.snapshot()
    assert validate_snapshot(snap) == []
    assert snap["counters"]["engine.batches"] == 2
    assert snap["counters"]["engine.hinted_batches"] == 1
    assert any(k.startswith("ntg.level_degree.l") for k in snap["gauges"])


# ------------------------------------------------------ the caller's thread


def test_point_reads_start_no_thread(monkeypatch):
    """search_many and search_sorted_many start no thread, on a plain
    tree and on a pinned concurrent-epoch snapshot with a delta, and
    return what search_batch returns — here on one batch of 2^15 + 200
    queries."""
    keys = make_key_set(40_000, rng=26)
    tree = HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7)
    mgr = EpochManager(HarmoniaTree.from_sorted(keys, fanout=16, fill=0.7),
                       drain_threshold=1 << 30)
    top = int(keys.max())
    mgr.submit_many(
        [Operation("insert", top + 1 + i, i) for i in range(100)]
        + [Operation("delete", int(k)) for k in keys[::97]]
    )
    mgr.flush()
    pinned = mgr.pin()
    assert pinned.delta is not None
    rng = np.random.default_rng(27)
    q = np.concatenate([rng.choice(keys, 1 << 15),
                        np.arange(top - 50, top + 150)]).astype(np.int64)
    ordered = np.sort(q)

    started = []
    real_start = threading.Thread.start

    def counting_start(self, *args, **kwargs):
        started.append(self.name)
        return real_start(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for reader in (tree, pinned):
        want = reader.search_batch(q)
        want_sorted = reader.search_batch(ordered)
        assert np.array_equal(reader.search_many(q), want)
        assert np.array_equal(reader.search_sorted_many(ordered), want_sorted)
    assert started == []
