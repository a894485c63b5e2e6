"""Epochs: snapshot + delta reads ≡ a tree written batch by batch.

The contract :class:`EpochManager` ships under (docs/epochs.md): for any
sequence of update batches, every read path — point (``search`` /
``search_batch`` / ``search_many`` / ``search_sorted_many``), range
(``range_search_batch``), full iteration (``dump_items``), ``len`` —
through the manager is byte-identical to the same reads of a
:class:`HarmoniaTree` that wrote each batch as it came, by the merge
(``apply_batch``) or by the scalar Algorithm 1 reference
(``scalar_apply``), with identical per-op accounting, *at every point*
of the interleaving: before any drain,
after partial drains, with flushes landing while a drain is held in
flight, and with the background drain racing the writers.  Hypothesis
pins the contract; directed tests cover flushes during a drain, pins
sharing the published entry set, snapshot immutability across drains (a
drain must never mutate a snapshot a reader still pins) and the sharded
service running the same protocol.
"""

import contextlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.delta as delta_mod
import repro.core.epoch as epoch_mod
from repro.core.epoch import EpochManager
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation, scalar_apply
from repro.errors import ConfigError


def make_pair(n_keys, fanout, fill, drain_threshold=10 ** 9):
    """A reference tree and an identical tree under an EpochManager."""
    keys = np.arange(0, n_keys * 2, 2, dtype=np.int64)

    def build():
        if n_keys == 0:
            return HarmoniaTree.empty(fanout=fanout, fill=fill)
        return HarmoniaTree.from_sorted(keys, keys * 3, fanout=fanout,
                                        fill=fill)

    return build(), EpochManager(build(), drain_threshold=drain_threshold)


def write(ref, ops, mode):
    """Write one batch into the reference tree by the merge or by the
    scalar reference; ``None`` for an empty batch, as ``flush()``."""
    if not ops:
        return None
    if mode == "merge":
        return ref.apply_batch(ops)
    return scalar_apply(ref, ops, n_threads=1)


def assert_same_reads(ref, conc, probes, lo, hi):
    assert np.array_equal(ref.search_batch(probes),
                          conc.search_batch(probes))
    assert np.array_equal(ref.search_many(probes),
                          conc.search_many(probes))
    ordered = np.sort(probes)
    assert np.array_equal(ref.search_sorted_many(ordered),
                          conc.pin().search_sorted_many(ordered))
    (ka, va), (kb, vb) = ref.range_search(lo, hi), conc.range_search(lo, hi)
    assert np.array_equal(ka, kb) and np.array_equal(va, vb)
    ka, va = ref._merged_items()
    kb, vb = conc.dump_items()
    assert np.array_equal(ka, kb) and np.array_equal(va, vb)
    assert len(ref) == len(conc)


class DrainGate:
    """Holds each background drain right after it pins the delta, until
    :meth:`release` — so the flushes that follow land while a drain is in
    flight.  The drain's one step, the merge into the base block
    (:meth:`Snapshot.merge`), is the gated call; only the background
    drain thread waits, ``drain(wait=True)`` on the caller never does."""

    def __init__(self):
        self._open = threading.Event()
        self._pinned = threading.Event()

    def _gated(self, fn):
        def call(*args, **kwargs):
            if threading.current_thread().name == "epoch-drain":
                self._pinned.set()
                assert self._open.wait(timeout=60), "drain gate never opened"
            return fn(*args, **kwargs)

        return call

    @contextlib.contextmanager
    def installed(self):
        with mock.patch.object(
            epoch_mod.Snapshot, "merge",
            self._gated(epoch_mod.Snapshot.merge),
        ):
            try:
                yield self
            finally:
                self._open.set()

    def wait_pinned(self, em):
        """Block until a running background drain has pinned."""
        if em.drain_running:
            assert self._pinned.wait(timeout=60), "drain never pinned"
            return True
        return False

    def release(self, em):
        """Let the in-flight drain (if any) finish; close the gate again."""
        self._open.set()
        t = em._drain_thread
        if t is not None:
            t.join(timeout=60)
            assert not t.is_alive(), "drain did not finish"
        self._open.clear()
        self._pinned.clear()


op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(0, 400),
)


class TestEquivalenceProperty:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        n_keys=st.integers(0, 150),
        fanout=st.sampled_from([4, 8, 16]),
        mode=st.sampled_from(["merge", "scalar"]),
        drain_threshold=st.sampled_from([1, 16, 10 ** 9]),
        batches=st.lists(
            st.tuples(st.lists(op_strategy, max_size=40), st.booleans()),
            max_size=6,
        ),
    )
    def test_interleaved_batches_and_drains(self, n_keys, fanout, mode,
                                            drain_threshold, batches):
        """Random batches with drains injected at random boundaries; every
        read path must agree with the reference tree throughout
        (tombstones over the base, inserts over tombstones, folded
        runs — the whole lifecycle).  A small ``drain_threshold`` starts
        background drains, each held after its pin until the next
        injected drain, so the flushes in between land while it is in
        flight."""
        ref, conc = make_pair(n_keys, fanout, 0.8,
                              drain_threshold=drain_threshold)
        probes = np.arange(0, 420, 3, dtype=np.int64)
        with DrainGate().installed() as gate:
            for raw_ops, drain_after in batches:
                ops = [Operation(kind, key, key * 10 + 1)
                       for kind, key in raw_ops]
                rs = write(ref, ops, mode)
                conc.submit_many(ops)
                rc = conc.flush()
                gate.wait_pinned(conc)
                if rs is None or rc is None:
                    assert rs is None and rc is None
                else:
                    for field in ("inserted", "updated", "deleted",
                                  "failed"):
                        assert getattr(rs, field) == getattr(rc, field), field
                assert_same_reads(ref, conc, probes, 10, 390)
                if drain_after:
                    gate.release(conc)
                    conc.drain(wait=True)
                    assert conc.delta_size == 0
                    assert_same_reads(ref, conc, probes, 10, 390)
            gate.release(conc)
        conc.sync()
        assert_same_reads(ref, conc, probes, 10, 390)
        assert conc.snapshot_age == 0

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2 ** 31 - 1),
        mode=st.sampled_from(["merge", "scalar"]),
    )
    def test_background_drain_races_writers(self, seed, mode):
        """Tiny drain threshold: the background thread keeps folding runs
        while flushes land; visible state never diverges."""
        rng = np.random.default_rng(seed)
        ref, conc = make_pair(100, 8, 0.8, drain_threshold=16)
        for r in range(6):
            raw = rng.integers(0, 400, size=30)
            kinds = rng.choice(["insert", "update", "delete"], size=30)
            ops = [Operation(str(k), int(key), int(key) + r)
                   for k, key in zip(kinds, raw)]
            write(ref, ops, mode)
            conc.submit_many(ops)
            conc.flush()
            probes = rng.integers(0, 450, size=200).astype(np.int64)
            assert np.array_equal(ref.search_batch(probes),
                                  conc.search_batch(probes))
        conc.sync()
        probes = np.arange(0, 450, dtype=np.int64)
        assert_same_reads(ref, conc, probes, 0, 449)


class TestPublishStress:
    def test_writers_race_drains_and_readers(self):
        """More threads than cores on a short switch interval: two
        writers flush disjoint key sets while a third thread keeps
        requesting background drains and a reader checks every key it
        reads, so drains pin and publish between writers' merges and
        their publishes.  A lost or doubled publish would leave a key
        with the wrong value (or none) at the end."""
        keys = np.arange(0, 4000, 2, dtype=np.int64)
        conc = EpochManager(
            HarmoniaTree.from_sorted(keys, keys * 3, fanout=8),
            drain_threshold=64,
        )
        stop = threading.Event()
        errors = []

        def writer(offset):
            # Inserts of odd keys this writer owns, then updates of them.
            own = np.arange(1 + 2 * offset, 4000, 4, dtype=np.int64)
            for start in range(0, own.size, 50):
                chunk = own[start:start + 50].tolist()
                conc.submit_many([Operation("insert", k, k) for k in chunk])
                conc.flush()
                conc.submit_many([Operation("update", k, -k)
                                  for k in chunk])
                conc.flush()

        def drainer():
            while not stop.is_set():
                conc.drain(wait=False)

        def reader():
            while not stop.is_set():
                out = conc.search_many(keys)
                if not np.array_equal(out, keys * 3):
                    errors.append("base key misread")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            background = [threading.Thread(target=drainer),
                          threading.Thread(target=reader)]
            writers = [threading.Thread(target=writer, args=(i,))
                       for i in range(2)]
            for t in background + writers:
                t.start()
            for t in writers:
                t.join(timeout=120)
                assert not t.is_alive(), "writer did not finish"
        finally:
            stop.set()
            for t in background:
                t.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in background)
        assert not errors
        conc.sync()
        odd = np.arange(1, 4000, 2, dtype=np.int64)
        got_k, got_v = conc.dump_items()
        want_k = np.arange(0, 4000, dtype=np.int64)
        want_v = np.where(want_k % 2, -want_k, want_k * 3)
        assert np.array_equal(got_k, want_k)
        assert np.array_equal(got_v, want_v)
        assert len(conc) == keys.size + odd.size
        assert conc.delta_size == 0 and conc.delta_runs == 0


class TestConcurrentBasics:
    def test_flush_publishes_immediately_drain_later(self):
        _, conc = make_pair(50, 8, 1.0)
        base_version = conc.snapshot_version
        conc.submit(Operation("insert", 1, 11))
        conc.flush()
        # Visible at once, but the base snapshot has not been rebuilt.
        assert conc.search(1) == 11
        assert conc.snapshot_version == base_version
        assert conc.delta_size == 1 and conc.snapshot_age == 1
        conc.drain(wait=True)
        assert conc.snapshot_version == base_version + 1
        assert conc.delta_size == 0 and conc.snapshot_age == 0
        assert conc.search(1) == 11

    def test_bootstrap_from_empty(self):
        conc = EpochManager(HarmoniaTree.empty(fanout=8))
        conc.submit_many([Operation("insert", k, k) for k in range(50)])
        conc.flush()
        assert len(conc) == 50 and conc.search(25) == 25
        conc.drain(wait=True)
        assert len(conc) == 50 and conc.search(25) == 25
        conc._tree.check_invariants()

    def test_drain_keeps_an_empty_trees_fanout(self):
        """The first drain into an empty tree builds its block at the
        tree's own fanout, and so does the drain after it is emptied."""
        conc = EpochManager(HarmoniaTree.empty(fanout=4, fill=0.5))
        conc.submit_many([Operation("insert", k, k) for k in range(40)])
        conc.sync()
        assert conc._tree.snapshot.fanout == 4
        assert conc._tree.layout.fanout == 4
        conc.submit_many([Operation("delete", k) for k in range(40)])
        conc.sync()
        assert conc._tree.snapshot is None and len(conc) == 0
        conc.submit(Operation("insert", 7, 7))
        conc.sync()
        assert conc._tree.snapshot.fanout == 4 and conc.search(7) == 7

    def test_pinned_view_survives_flush_and_drain(self):
        _, conc = make_pair(100, 8, 1.0)
        snap = conc._snapshot()
        conc.submit(Operation("delete", 20))
        conc.flush()
        assert conc.search(20) is None
        assert snap.search(20) == 60  # pinned: value = key * 3
        conc.drain(wait=True)
        assert conc.search(20) is None
        assert snap.search(20) == 60

    def test_pinned_snapshot_rejects_writes(self):
        _, conc = make_pair(50, 8, 1.0)
        conc.submit(Operation("insert", 1, 1))
        conc.flush()
        snap = conc._snapshot()
        assert snap.delta is not None
        with pytest.raises(ConfigError):
            snap.apply_batch([Operation("insert", 3, 3)])

    @pytest.mark.parametrize("mode", ["merge"])
    def test_flushes_during_drain(self, mode):
        """drain_threshold=1: the first flush starts a drain, held after
        its pin; the next flushes publish while it is in flight, and its
        publish leaves exactly those flushes in the delta."""
        ref, conc = make_pair(50, 8, 1.0, drain_threshold=1)
        batches = [
            [Operation("insert", 1001, 1), Operation("delete", 0)],
            [Operation("update", 1001, 2), Operation("insert", 1003, 3)],
            [Operation("delete", 1003), Operation("update", 2, 7)],
        ]
        with DrainGate().installed() as gate:
            for ops in batches:
                write(ref, ops, mode)
                conc.submit_many(ops)
                conc.flush()
                assert gate.wait_pinned(conc)
                assert_same_reads(ref, conc, np.arange(0, 1010), 0, 1010)
            assert conc.drains == 0 and conc.delta_runs == 3
            # Keys 1001, 0, 1003, 2 — folded to one entry each.
            assert conc.delta_size == 4
            gate.release(conc)
        assert conc.drains == 1
        # The drain folded the first flush; the other two stay visible.
        assert conc.delta_runs == 2 and conc.delta_size == 3
        assert_same_reads(ref, conc, np.arange(0, 1010), 0, 1010)
        conc.sync()
        assert conc.delta_size == 0 and conc.delta_runs == 0
        assert_same_reads(ref, conc, np.arange(0, 1010), 0, 1010)

    def test_publish_records_the_merge_span(self):
        """The merge cost sits on the write side: one ``delta.merge``
        span inside each flush's ``epoch.publish``, and the recorded
        session validates against the catalogue."""
        import repro.obs as obs
        from repro.obs.schema import lookup, validate_snapshot

        _, conc = make_pair(50, 8, 1.0)
        with obs.recording() as rec:
            for i in range(3):
                conc.submit_many([Operation("insert", 1001 + 2 * i, i),
                                  Operation("delete", 2 * i)])
                conc.flush()
            conc.search_many(np.arange(0, 1010))
            conc.sync()
        spans = rec.spans()
        merges = [s for s in spans if s[0] == "delta.merge"]
        publishes = [s for s in spans if s[0] == "epoch.publish"]
        assert len(merges) == len(publishes) == 3
        for m, p in zip(merges, publishes):
            assert p[2] <= m[2] <= m[3] <= p[3]
        assert all(lookup(s[0]) is not None for s in spans)
        snapshot = rec.snapshot()
        assert validate_snapshot(snapshot) == []
        assert "delta.collapses" not in snapshot["counters"]

    def test_noop_flush_during_drain_leaves_no_snapshot_age(self):
        """A flush that changes nothing while a drain is in flight: once
        the drain publishes, the base is the visible state again."""
        _, conc = make_pair(50, 8, 1.0, drain_threshold=1)
        with DrainGate().installed() as gate:
            conc.submit(Operation("insert", 1001, 1))
            conc.flush()
            assert gate.wait_pinned(conc)
            conc.submit(Operation("insert", 1001, 2))  # fails: key visible
            conc.flush()
            gate.release(conc)
        assert conc.delta_size == 0 and conc.snapshot_age == 0
        assert conc.search(1001) == 1

    def test_pins_share_the_published_entries(self):
        """A pin does no collapse work: every pin after a flush carries
        the view the flush published, whose arrays are the index's."""
        _, conc = make_pair(50, 8, 1.0)
        for i in range(4):  # several flushes: one collapsed set
            conc.submit_many([Operation("insert", 1001 + 2 * i, i),
                              Operation("update", 2 * i, -i)])
            conc.flush()
        no_work = AssertionError("collapse work on the read path")
        with mock.patch.object(delta_mod, "fold_run", side_effect=no_work), \
                mock.patch.object(delta_mod, "DeltaView", side_effect=no_work):
            a, b = conc.pin(), conc.pin()
            a.search_many(np.arange(0, 1010))
            b.range_search(0, 2000)
        visible = conc._delta._visible
        assert a.delta is b.delta
        assert a.delta.run is visible
        assert a.delta.run.keys is b.delta.run.keys
        assert conc.delta_runs == 4 and conc.delta_size == 8

    def test_drain_error_surfaces_on_flush(self):
        _, conc = make_pair(50, 8, 1.0)
        conc._drain_error = RuntimeError("boom")
        conc.submit(Operation("insert", 1, 1))
        with pytest.raises(RuntimeError):
            conc.flush()
        # One-shot: the error is consumed, the manager keeps working.
        conc.flush()
        assert conc.search(1) == 1

    def test_only_the_delta_mode_is_accepted(self):
        """``concurrent`` is a keyword that accepts True only."""
        tree = HarmoniaTree.from_sorted(np.arange(0, 100, 2), fanout=8)
        with pytest.raises(ConfigError, match="concurrent=True"):
            EpochManager(tree, concurrent=False)
        em = EpochManager(tree, concurrent=True)
        em.submit(Operation("insert", 1, 1))
        em.flush()
        assert em.delta_size == 1 and em.search(1) == 1


class TestGappedCompactionIsolation:
    """A drain never touches a snapshot a reader still holds: it merges
    into a fresh block and publishes by swap, so a pinned snapshot's
    block — and the layout derived from it — stay bit-frozen."""

    @staticmethod
    def gapped_manager():
        keys = np.arange(0, 400, 2, dtype=np.int64)
        tree = HarmoniaTree.from_sorted(keys, keys * 3, fanout=8, fill=0.6)
        return EpochManager(tree, drain_threshold=10 ** 9), keys

    def test_pinned_layout_frozen_across_compacting_drain(self):
        conc, keys = self.gapped_manager()
        snap = conc._snapshot()
        frozen_block = tuple(a.copy() for a in snap.snapshot.packed_leaves())
        frozen_keys = snap.layout.key_region.copy()
        frozen_vals = snap.layout.leaf_values.copy()
        # Delete half the keys, then churn, then drain both runs.
        conc.submit_many([Operation("delete", int(k)) for k in keys[::2]])
        conc.flush()
        conc.submit_many(
            [Operation("insert", int(k) + 1, 7) for k in keys[:40]]
        )
        conc.flush()
        base_before = conc._tree.snapshot
        conc.drain(wait=True)
        assert conc._tree.snapshot is not base_before
        assert len(conc) == keys.size - keys[::2].size + 40
        # The pinned snapshot's arrays never moved...
        for arr, saved in zip(snap.snapshot.packed_leaves(), frozen_block):
            assert arr.tobytes() == saved.tobytes()
        assert np.array_equal(snap.layout.key_region, frozen_keys)
        assert np.array_equal(snap.layout.leaf_values, frozen_vals)
        # ...and the pinned view still answers from its epoch.
        assert snap.search(int(keys[0])) == int(keys[0]) * 3

    def test_concurrent_readers_during_background_drains(self):
        conc, keys = self.gapped_manager()
        stop = threading.Event()
        errors = []

        def reader():
            probes = keys[:128]
            want = probes * 3
            while not stop.is_set():
                out = conc.search_batch(probes)
                live = out != np.iinfo(np.int64).min
                if not np.array_equal(out[live], want[live]):
                    errors.append(1)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            victims = keys[128:]
            for start in range(0, victims.size, 20):
                conc.submit_many([
                    Operation("delete", int(k))
                    for k in victims[start:start + 20]
                ])
                conc.flush()
                conc.drain(wait=False)
            conc.sync()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors
        assert len(conc) == 128
        conc._tree.check_invariants()


class TestShardedConcurrent:
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2 ** 31 - 1))
    def test_sharded_tree_matches_reference(self, seed):
        """Shard workers' flushes publish delta runs, checkpoint dumps
        merge them — results identical to one local tree."""
        from repro.shard.router import ShardedTree

        rng = np.random.default_rng(seed)
        keys = np.sort(
            rng.choice(20000, size=800, replace=False)
        ).astype(np.int64)
        ref = HarmoniaTree.from_sorted(keys, keys * 2, fanout=16)
        with ShardedTree.from_sorted(keys, keys * 2, n_shards=2,
                                     fanout=16) as st_tree:
            for r in range(3):
                raw = rng.choice(25000, size=120, replace=False)
                kinds = rng.choice(["insert", "update", "delete"], size=120)
                ops = [Operation(str(k), int(key), int(key) + r)
                       for k, key in zip(kinds, raw)]
                a = ref.apply_batch(ops)
                b = st_tree.apply_batch(ops)
                assert (a.inserted, a.updated, a.deleted, a.failed) == \
                    (b.inserted, b.updated, b.deleted, b.failed)
                q = rng.choice(30000, size=400).astype(np.int64)
                assert np.array_equal(ref.search_many(q),
                                      st_tree.search_many(q))
                ka, va = ref.range_search(10, 15000)
                kb, vb = st_tree.range_search(10, 15000)
                assert np.array_equal(ka, kb) and np.array_equal(va, vb)
            assert len(st_tree) == len(ref)
            st_tree.checkpoint()  # merged dump over the wire
            q = rng.choice(30000, size=400).astype(np.int64)
            assert np.array_equal(ref.search_many(q), st_tree.search_many(q))
