"""Directed tests for the sharded service tier (repro.shard).

Covers the pieces in isolation — partitioner routing/balancing, the
pipe transport's raw-byte arrays, concat_sorted_runs — and the
assembled service: lifecycle, caller-thread routing, restart-and-rebuild
(between calls and mid-request), op-log consistency after a failed
request, checkpoint, rebalance, obs instrumentation, and the CLI entry.
"""

import os
import threading

import numpy as np
import pytest

import repro.obs as obs
from repro.cli import main as cli_main
from repro.constants import NOT_FOUND
from repro.core.merge import concat_sorted_runs
from repro.core.search import RangeBatch
from repro.core.tree import HarmoniaTree
from repro.core.update import Operation
from repro.errors import ConfigError
from repro.obs.schema import validate_snapshot
from repro.shard import Partitioner, ShardChannel, ShardedTree
from repro.shard import router as router_mod
from repro.shard import worker as worker_mod


# --------------------------------------------------------------------------
# Partitioner
# --------------------------------------------------------------------------


class TestPartitioner:
    def test_quantile_balance(self):
        keys = np.arange(0, 9000, 3)
        part = Partitioner.from_keys(keys, 3)
        ids = part.shard_of(keys)
        counts = np.bincount(ids, minlength=3)
        assert counts.sum() == keys.size
        assert Partitioner.skew(counts) < 1.01

    def test_boundary_key_routes_to_ending_shard(self):
        part = Partitioner(n_shards=2, boundaries=np.asarray([100]))
        assert part.shard_of([100])[0] == 0  # equal routes left
        assert part.shard_of([101])[0] == 1

    def test_stored_keys_route_to_their_slice(self):
        keys = np.arange(0, 1000, 7)
        part = Partitioner.from_keys(keys, 4)
        ids = part.shard_of(keys)
        # Routing must reproduce the contiguous slices from_sorted cuts.
        assert np.all(np.diff(ids) >= 0)

    def test_scatter_stable_within_shard(self):
        part = Partitioner(n_shards=2, boundaries=np.asarray([50]))
        keys = np.asarray([10, 60, 20, 70, 30])
        ids, order, bounds = part.scatter(keys)
        # Shard 0 sees 10, 20, 30 in arrival order; shard 1 sees 60, 70.
        assert order[bounds[0]:bounds[1]].tolist() == [0, 2, 4]
        assert order[bounds[1]:bounds[2]].tolist() == [1, 3]

    def test_single_shard(self):
        part = Partitioner.from_keys(np.arange(10), 1)
        assert part.boundaries.size == 0
        assert np.all(part.shard_of(np.arange(100)) == 0)

    def test_clip(self):
        part = Partitioner(n_shards=3, boundaries=np.asarray([10, 20]))
        assert part.clip(0, -5, 100) == (-5, 10)
        assert part.clip(1, -5, 100) == (11, 20)
        assert part.clip(2, -5, 100) == (21, 100)

    def test_shard_range(self):
        part = Partitioner(n_shards=3, boundaries=np.asarray([10, 20]))
        assert part.shard_range(5, 15) == (0, 1)
        assert part.shard_range(11, 12) == (1, 1)
        assert part.shard_range(0, 100) == (0, 2)

    def test_few_distinct_keys_pads_boundaries(self):
        part = Partitioner.from_keys(np.asarray([5, 6]), 4)
        assert part.n_shards == 4
        assert part.boundaries.size == 3
        assert np.all(np.diff(part.boundaries) > 0)

    def test_empty_keys(self):
        part = Partitioner.from_keys(np.empty(0, dtype=np.int64), 3)
        assert part.n_shards == 3
        assert part.boundaries.size == 2

    def test_skew(self):
        assert Partitioner.skew([10, 10]) == pytest.approx(1.0)
        assert Partitioner.skew([30, 10]) == pytest.approx(1.5)
        assert Partitioner.skew([0, 0]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            Partitioner(n_shards=0, boundaries=np.empty(0, dtype=np.int64))
        with pytest.raises(ConfigError):
            Partitioner(n_shards=3, boundaries=np.asarray([1]))
        with pytest.raises(ConfigError):
            Partitioner(n_shards=3, boundaries=np.asarray([5, 5]))


# --------------------------------------------------------------------------
# concat_sorted_runs
# --------------------------------------------------------------------------


class TestConcatSortedRuns:
    def test_joins_disjoint_runs(self):
        k, v = concat_sorted_runs([
            (np.asarray([1, 2]), np.asarray([10, 20])),
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            (np.asarray([5, 9]), np.asarray([50, 90])),
        ])
        assert k.tolist() == [1, 2, 5, 9]
        assert v.tolist() == [10, 20, 50, 90]

    def test_empty(self):
        k, v = concat_sorted_runs([])
        assert k.size == 0 and v.size == 0

    def test_rejects_overlap(self):
        with pytest.raises(ConfigError):
            concat_sorted_runs([
                (np.asarray([1, 5]), np.asarray([1, 5])),
                (np.asarray([5, 9]), np.asarray([5, 9])),
            ])

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigError):
            concat_sorted_runs([(np.asarray([1, 2]), np.asarray([1]))])


# --------------------------------------------------------------------------
# Transport
# --------------------------------------------------------------------------


def _roundtrip(a, b, arr):
    """Send on ``a``, drain on ``b`` — in a thread, because a payload
    larger than the socket buffer blocks the sender until the receiver
    reads."""
    got = {}
    t = threading.Thread(target=lambda: got.update(out=b.recv_array()))
    t.start()
    a.send_array(arr)
    t.join(timeout=10)
    assert not t.is_alive(), "transport round-trip deadlocked"
    return got["out"]


class TestShardChannel:
    def test_roundtrip_within_capacity(self):
        a, b = ShardChannel.pair()
        arr = np.arange(32, dtype=np.int64)
        out = _roundtrip(a, b, arr)
        assert np.array_equal(out, arr)
        assert out.dtype == np.int64

    def test_roundtrip_windowed(self):
        # 8 MiB: many times any socket buffer, so both sides loop.
        a, b = ShardChannel.pair()
        arr = np.arange(1 << 20, dtype=np.int64)
        assert np.array_equal(_roundtrip(a, b, arr), arr)

    def test_dtypes(self):
        a, b = ShardChannel.pair()
        for arr in (
            np.asarray([1, -2, 3], dtype=np.int8),
            np.asarray([1.5, -2.5], dtype=np.float64),
            np.empty(0, dtype=np.int64),
        ):
            out = _roundtrip(a, b, arr)
            assert np.array_equal(out, arr) and out.dtype == arr.dtype

    def test_unsupported_dtype(self):
        a, _b = ShardChannel.pair()
        with pytest.raises(ConfigError):
            a.send_array(np.asarray([1], dtype=np.uint16))

    def test_control_roundtrip_and_timeout(self):
        a, b = ShardChannel.pair()
        a.send("ping", 1)
        assert b.recv(timeout=5.0) == ("ping", 1)
        assert b.recv(timeout=0.01) is None

    def test_peer_closes_mid_array(self):
        a, b = ShardChannel.pair()
        # Announce 1000 int64 but deliver only 100 of them, then hang up.
        a.send("arr", 1000, 0)
        os.write(a.conn.fileno(), np.arange(100, dtype=np.int64).tobytes())
        a.close()
        with pytest.raises(EOFError):
            b.recv_array()


# --------------------------------------------------------------------------
# ShardedTree service
# --------------------------------------------------------------------------


KEYS = np.arange(0, 4000, 2)


@pytest.fixture
def sharded():
    with ShardedTree.from_sorted(KEYS, n_shards=2, fanout=16) as st:
        yield st


class TestShardedTree:
    def test_search_and_len(self, sharded):
        assert len(sharded) == KEYS.size
        assert sharded.search(4) == 4
        assert sharded.search(5) is None
        q = np.asarray([0, 3998, 999, 2000])
        out = sharded.search_many(q)
        assert out.tolist() == [0, 3998, NOT_FOUND, 2000]

    def test_apply_batch_and_conveniences(self, sharded):
        res = sharded.apply_batch([
            Operation("insert", 1, 11),
            Operation("delete", 2),
            Operation("update", 4, 44),
            Operation("insert", 4, 1),   # duplicate → failed
        ])
        assert (res.inserted, res.updated, res.deleted, res.failed) == \
            (1, 1, 1, 1)
        assert sharded.search(1) == 11
        assert sharded.search(2) is None
        assert sharded.search(4) == 44
        assert sharded.insert(5, 55) and sharded.search(5) == 55
        assert sharded.update(5, 56) and sharded.search(5) == 56
        assert sharded.delete(5) and sharded.search(5) is None

    def test_range_search(self, sharded):
        ref = HarmoniaTree.from_sorted(KEYS, fanout=16)
        k, v = sharded.range_search(100, 2900)
        rk, rv = ref.range_search(100, 2900)
        assert np.array_equal(k, rk) and np.array_equal(v, rv)

    def test_range_search_batch(self, sharded):
        ref = HarmoniaTree.from_sorted(KEYS, fanout=16)
        los = [0, 3000, 500, 10, 3999]
        his = [4000, 3100, 400, 10, 5000]  # includes inverted + empty
        got = sharded.range_search_batch(los, his)
        want = ref.range_search_batch(los, his)
        assert len(got) == len(want)
        for (gk, gv), (wk, wv) in zip(got, want):
            assert np.array_equal(gk, wk) and np.array_equal(gv, wv)

    def test_empty_batches(self, sharded):
        assert sharded.search_many(np.empty(0, dtype=np.int64)).size == 0
        res = sharded.apply_batch([])
        assert res.inserted == 0
        out = sharded.range_search_batch([], [])
        assert isinstance(out, RangeBatch)
        assert len(out) == 0 and list(out) == []
        assert out.offsets.tolist() == [0] and out.keys.size == 0

    def test_single_shard_service(self):
        with ShardedTree.from_sorted(KEYS, n_shards=1, fanout=16) as st:
            assert st.search(2) == 2
            assert len(st) == KEYS.size

    def test_empty_tree_service(self):
        part = Partitioner.from_keys(np.empty(0, dtype=np.int64), 2)
        with ShardedTree(part, fanout=16) as st:
            assert len(st) == 0
            assert st.search(1) is None
            res = st.apply_batch([Operation("insert", 7, 70)])
            assert res.inserted == 1
            assert st.search(7) == 70

    def test_close_idempotent(self):
        st = ShardedTree.from_sorted(KEYS[:100], n_shards=2, fanout=16)
        st.close()
        st.close()

    def test_stats(self, sharded):
        rows = sharded.stats()
        assert len(rows) == 2
        assert rows[0]["range_lo"] is None
        assert rows[-1]["range_hi"] is None
        assert sum(r["n_keys"] for r in rows) == KEYS.size


class TestRestartAndRebuild:
    def test_crash_then_search(self, sharded):
        before = sharded.search_many(np.asarray([0, 2000, 3998]))
        sharded._shards[0].channel.send("crash")
        sharded._shards[0].proc.join(timeout=10)
        out = sharded.search_many(np.asarray([0, 2000, 3998]))
        assert np.array_equal(out, before)
        assert sharded._shards[0].restarts == 1

    def test_health_check_revives(self, sharded):
        sharded._shards[1].channel.send("crash")
        sharded._shards[1].proc.join(timeout=10)
        revived = sharded.health_check()
        assert revived == [1]
        assert sharded.health_check() == []

    def test_rebuild_replays_oplog(self, sharded):
        sharded.apply_batch([Operation("insert", 1, 11),
                             Operation("delete", 2)])
        sharded.apply_batch([Operation("update", 1, 12)])
        for s in range(sharded.n_shards):
            sharded._shards[s].channel.send("crash")
            sharded._shards[s].proc.join(timeout=10)
        assert sharded.search(1) == 12
        assert sharded.search(2) is None
        assert len(sharded) == KEYS.size  # +1 insert, -1 delete

    def test_checkpoint_compacts_oplog(self, sharded):
        sharded.apply_batch([Operation("insert", 1, 11)])
        assert any(s.oplog for s in sharded._shards)
        sharded.checkpoint()
        assert all(not s.oplog for s in sharded._shards)
        sharded._shards[0].channel.send("crash")
        sharded._shards[0].proc.join(timeout=10)
        assert sharded.search(1) == 11


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="binding needs two CPUs",
)
class TestCpuBinding:
    def test_workers_run_on_distinct_cpus(self, sharded):
        got = [os.sched_getaffinity(s.proc.pid) for s in sharded._shards]
        assert all(len(cpus) == 1 for cpus in got)
        assert got[0] != got[1]
        assert got[0] | got[1] <= os.sched_getaffinity(0)
        assert all(os.sched_getscheduler(s.proc.pid) == os.SCHED_BATCH
                   for s in sharded._shards)

    def test_restarted_worker_keeps_its_cpu(self, sharded):
        before = os.sched_getaffinity(sharded._shards[1].proc.pid)
        sharded._shards[1].channel.send("crash")
        sharded._shards[1].proc.join(timeout=10)
        assert sharded.health_check() == [1]
        assert os.sched_getaffinity(sharded._shards[1].proc.pid) == before

    def test_workers_stay_bound_through_drains(self, monkeypatch):
        """Every worker writes through its delta and drains it on a
        thread of its own process: drains leave the worker on its CPU."""
        monkeypatch.setattr(worker_mod, "DRAIN_THRESHOLD", 4)
        with ShardedTree.from_sorted(KEYS, n_shards=2, fanout=16) as st:
            pids = [s.proc.pid for s in st._shards]
            before = [os.sched_getaffinity(pid) for pid in pids]
            res = st.apply_batch([Operation("insert", k, k)
                                  for k in range(1, 4000, 50)])
            assert res.inserted == 80
            assert st.search(51) == 51 and st.search(4) == 4
            assert [os.sched_getaffinity(pid) for pid in pids] == before
            assert all(len(cpus) == 1 for cpus in before)
            assert before[0] != before[1]


def _oracle_check(st, oracle):
    """Point and range reads through ``st`` equal the dict ``oracle``."""
    probe = np.asarray(sorted(set(oracle) | {1, 999, 3001, 5000}))
    want = [oracle.get(int(k), NOT_FOUND) for k in probe]
    assert st.search_many(probe).tolist() == want
    (k, v), = st.range_search_batch([-10], [10_000])
    assert k.tolist() == sorted(oracle)
    assert v.tolist() == [oracle[key] for key in sorted(oracle)]


def _kill_before_reply(monkeypatch, st, s):
    """Make the router's next reply read from shard ``s`` find its worker
    dead: the request was sent, the reply is lost with the process."""
    shard = st._shards[s]

    def killed(timeout=None):
        shard.proc.kill()
        shard.proc.join(timeout=10)
        raise EOFError("worker killed before its reply was read")

    monkeypatch.setattr(shard.channel, "recv", killed)


class TestCallerThreadRouting:
    def test_requests_start_no_thread(self, sharded):
        before = set(threading.enumerate())
        sharded.search_many(np.asarray([0, 2000, 3998]))
        sharded.apply_batch([Operation("insert", 1, 11),
                             Operation("insert", 3001, 31)])
        sharded.range_search_batch([0, 1900], [100, 2100])
        new = [t.name for t in threading.enumerate() if t not in before]
        assert new == []
        assert not any(t.name.startswith("shard-router")
                       for t in threading.enumerate())

    def test_kill_mid_search(self, monkeypatch, sharded):
        q = np.asarray([0, 2000, 3998, 5])
        _kill_before_reply(monkeypatch, sharded, 0)
        assert sharded.search_many(q).tolist() == [0, 2000, 3998, NOT_FOUND]
        assert sharded._shards[0].restarts == 1

    def test_kill_mid_apply_applies_once(self, monkeypatch, sharded):
        new_keys = [1, 5, 2001, 3999]  # odd: absent, both shards
        oracle = {int(k): int(k) for k in KEYS}
        oracle.update({k: 10 * k for k in new_keys})
        _kill_before_reply(monkeypatch, sharded, 1)
        res = sharded.apply_batch(
            [Operation("insert", k, 10 * k) for k in new_keys]
        )
        assert res.inserted == len(new_keys) and res.failed == 0
        assert sharded._shards[1].restarts == 1
        _oracle_check(sharded, oracle)

    def test_kill_mid_range(self, monkeypatch, sharded):
        ref = HarmoniaTree.from_sorted(KEYS, fanout=16)
        _kill_before_reply(monkeypatch, sharded, 0)
        got = sharded.range_search_batch([100, 1500], [2900, 2500])
        want = ref.range_search_batch([100, 1500], [2900, 2500])
        for (gk, gv), (wk, wv) in zip(got, want):
            assert np.array_equal(gk, wk) and np.array_equal(gv, wv)
        assert sharded._shards[0].restarts == 1


class TestOpLogMatchesAcks:
    def test_failed_reply_keeps_log_equal_to_acks(self, monkeypatch,
                                                  sharded):
        """A non-retried failure reading shard 0's ``applied`` reply must
        leave every op log equal to what its worker acknowledged."""
        real_wait = router_mod.wait

        def shard1_first(conns, timeout=None):
            # Hold until every reply is in, then serve shard 1 first.
            ready = real_wait(conns, timeout)
            while len(ready) < len(conns):
                ready = real_wait(conns, timeout)
            return sorted(ready, key=lambda c: c is not shard1.conn)

        shard0 = sharded._shards[0].channel
        shard1 = sharded._shards[1].channel
        real_recv = shard0.recv

        def failing(timeout=None):
            reply = real_recv(timeout)
            if reply and reply[0] == "applied":
                raise ConfigError("injected reply failure")
            return reply

        monkeypatch.setattr(router_mod, "wait", shard1_first,
                            raising=False)
        monkeypatch.setattr(shard0, "recv", failing)
        with pytest.raises(ConfigError, match="injected"):
            sharded.apply_batch([Operation("insert", 1, 11),
                                 Operation("insert", 3001, 31)])
        monkeypatch.undo()

        oracle = {int(k): int(k) for k in KEYS}
        oracle[3001] = 31  # shard 1 acknowledged; shard 0 did not
        _oracle_check(sharded, oracle)
        sharded._shards[1].channel.send("crash")
        sharded._shards[1].proc.join(timeout=10)
        assert sharded.health_check() == [1]
        _oracle_check(sharded, oracle)
        assert sharded.search(3001) == 31
        assert sharded.search(1) is None


class TestRebalance:
    def test_no_rebalance_when_balanced(self, sharded):
        assert sharded.rebalance(threshold=1.5) is False

    def test_skewed_growth_triggers_rebalance(self):
        with ShardedTree.from_sorted(KEYS, n_shards=2, fanout=16) as st:
            # Pour keys into the top shard's range only.
            ops = [Operation("insert", int(k), 1)
                   for k in range(4001, 8001, 2)]
            st.apply_batch(ops)
            assert st.skew() > 1.2
            ref_k, ref_v = st.range_search(0, 10000)
            assert st.rebalance(threshold=1.2) is True
            counts = st.shard_counts()
            assert Partitioner.skew(counts) < 1.1
            k, v = st.range_search(0, 10000)
            assert np.array_equal(k, ref_k) and np.array_equal(v, ref_v)
            # Rebalance resets the rebuild base: op logs are compacted.
            assert all(not s.oplog for s in st._shards)

    def test_force_rebalance(self, sharded):
        assert sharded.rebalance(force=True) is True
        assert sharded.search(2) == 2

    def test_threshold_validation(self, sharded):
        with pytest.raises(ConfigError):
            sharded.rebalance(threshold=0.5)


class TestShardObs:
    def test_metrics_recorded_and_catalogued(self, sharded):
        with obs.recording() as rec:
            sharded.search_many(np.asarray([0, 2, 4, 3001]))
            sharded.apply_batch([Operation("insert", 9, 90)])
            sharded.range_search(0, 500)
            sharded.rebalance(force=True)
        snap = rec.snapshot()
        assert validate_snapshot(snap) == []
        counters = snap["counters"]
        assert counters["shard.batches"] == 2
        assert counters["shard.queries"] == 4
        assert counters["shard.ops"] == 1
        assert counters["shard.range_queries"] == 1
        assert counters["shard.rebalances"] == 1
        assert "shard.batch_size" in snap["histograms"]
        assert "shard.skew" in snap["gauges"]
        names = snap["spans"]["names"]
        for span in ("shard.scatter", "shard.dispatch", "shard.gather"):
            assert span in names

    def test_restart_counter(self, sharded):
        sharded._shards[0].channel.send("crash")
        sharded._shards[0].proc.join(timeout=10)
        with obs.recording() as rec:
            sharded.health_check()
        assert rec.snapshot()["counters"]["shard.restarts"] == 1


def test_cli_shard(capsys):
    rc = cli_main([
        "shard", "--keys", "2000", "--shards", "2",
        "--batches", "1", "--batch", "512",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "shard 0:" in out and "shard 1:" in out
    assert "served" in out
