"""Worker crashes while writes sit in the delta, or while it drains.

Shard workers write through their delta and merge it into the base on a
background drain thread, so a crash can find acknowledged batches that
live only in the delta, or a drain half done.  Neither may lose or
repeat an op: the router rebuilds the worker from its base slice plus
the op log of acknowledged batches, and re-sends the one request the
crash interrupted.  Each test crashes shard 0, sends the next batch
(which meets the dead worker and is re-sent once), and checks the
batch's counts and every key against a dict replayed op by op.

The drain is held in flight by the epoch tests' :class:`DrainGate`,
built on file flags shared with the workers: workers are forked inside
the gate, so their drain threads stop at it right after pinning the
delta.
"""

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.core.update import Operation
from repro.shard import ShardedTree
from repro.shard import worker as worker_mod
from tests.test_epoch_concurrent import DrainGate

pytestmark = pytest.mark.skipif(
    mp.get_start_method() != "fork",
    reason="the gate and the threshold reach workers by fork",
)

KEYS = np.arange(0, 4000, 2, dtype=np.int64)


class FileEvent:
    """An event flag shared with forked workers: set while its file
    exists.  Waiters poll, so a waiter that dies mid-wait leaves nothing
    behind (``multiprocessing.Event.set`` waits for every sleeper it
    wakes, a dead one included)."""

    def __init__(self, path):
        self.path = path

    def set(self):
        self.path.touch()

    def clear(self):
        self.path.unlink(missing_ok=True)

    def wait(self, timeout):
        deadline = time.monotonic() + timeout
        while not self.path.exists():
            if time.monotonic() > deadline:
                return False
            time.sleep(0.005)
        return True


class ProcessDrainGate(DrainGate):
    """:class:`DrainGate` whose flags are shared with forked workers."""

    def __init__(self, tmp_path):
        self._open = FileEvent(tmp_path / "open")
        self._pinned = FileEvent(tmp_path / "pinned")

    def wait_pinned(self, timeout=60):
        assert self._pinned.wait(timeout), "no worker drain pinned"


def batch(r):
    """Round ``r``'s ops: inserts into both shards, updates and deletes
    of base keys, and a key inserted then deleted in the same batch."""
    lo = 1 + 400 * r
    ops = [Operation("insert", k, k + r) for k in range(lo, lo + 380, 4)]
    ops += [Operation("insert", k, -k) for k in range(3001 + r, 3400, 50)]
    ops += [Operation("update", k, 7 * r) for k in range(0, 4000, 40 + r)]
    ops += [Operation("delete", k) for k in range(20 + 2 * r, 4000, 300)]
    ops += [Operation("insert", 9001 + r, 1), Operation("delete", 9001 + r)]
    return ops


def replay(model, ops):
    """Per-op dict replay; returns (inserted, updated, deleted, failed)."""
    counts = [0, 0, 0, 0]
    for op in ops:
        present = op.key in model
        if op.kind == "insert" and not present:
            model[op.key] = op.value
            counts[0] += 1
        elif op.kind == "update" and present:
            model[op.key] = op.value
            counts[1] += 1
        elif op.kind == "delete" and present:
            del model[op.key]
            counts[2] += 1
        else:
            counts[3] += 1
    return tuple(counts)


def outcome(res):
    return (res.inserted, res.updated, res.deleted, res.failed)


def assert_contents(st_tree, model):
    probe = np.arange(-2, 9100, dtype=np.int64)
    got = st_tree.search_many(probe)
    want = np.asarray([model.get(k, np.iinfo(np.int64).min)
                       for k in probe.tolist()])
    assert np.array_equal(got, want)
    res = st_tree.range_search_batch([-5, 1000, 2990], [9100, 3010, 3500])
    stored = sorted(model)
    for (keys, values), (lo, hi) in zip(res, [(-5, 9100), (1000, 3010),
                                              (2990, 3500)]):
        want_keys = [k for k in stored if lo <= k <= hi]
        assert keys.tolist() == want_keys
        assert values.tolist() == [model[k] for k in want_keys]
    assert len(st_tree) == len(model)


def crash(st_tree, s):
    st_tree._shards[s].channel.send("crash")
    st_tree._shards[s].proc.join(timeout=10)
    assert not st_tree._shards[s].proc.is_alive()


class TestCrashWithDelta:
    def test_crash_with_undrained_delta(self):
        """Far below the drain threshold, every acknowledged batch lives
        only in shard 0's delta when it dies; the rebuilt worker holds
        each exactly once."""
        model = {int(k): int(k) * 3 for k in KEYS}
        with ShardedTree.from_sorted(KEYS, KEYS * 3, n_shards=2,
                                     fanout=16) as st_tree:
            for r in range(2):
                ops = batch(r)
                assert outcome(st_tree.apply_batch(ops)) == replay(model, ops)
            assert sum(len(b) for b in st_tree._shards[0].oplog) \
                < worker_mod.DRAIN_THRESHOLD
            crash(st_tree, 0)
            ops = batch(2)
            assert outcome(st_tree.apply_batch(ops)) == replay(model, ops)
            assert st_tree._shards[0].restarts == 1
            assert len(st_tree._shards[0].oplog) == 3
            assert_contents(st_tree, model)

    def test_crash_while_drain_in_flight(self, monkeypatch, tmp_path):
        """A tiny threshold makes shard 0's first flush start a drain,
        which the gate holds after its pin; a second batch lands beside
        it, then the worker dies mid-drain.  The rebuilt worker replays
        both batches (its own drain held too), takes the interrupted
        batch once, and matches the dict before and after the gate
        opens."""
        monkeypatch.setattr(worker_mod, "DRAIN_THRESHOLD", 8)
        model = {int(k): int(k) * 3 for k in KEYS}
        gate = ProcessDrainGate(tmp_path)
        with gate.installed(), ShardedTree.from_sorted(
                KEYS, KEYS * 3, n_shards=2, fanout=16) as st_tree:
            ops = batch(0)
            assert outcome(st_tree.apply_batch(ops)) == replay(model, ops)
            gate.wait_pinned()
            ops = batch(1)
            assert outcome(st_tree.apply_batch(ops)) == replay(model, ops)
            crash(st_tree, 0)
            ops = batch(2)
            assert outcome(st_tree.apply_batch(ops)) == replay(model, ops)
            assert st_tree._shards[0].restarts == 1
            assert_contents(st_tree, model)
            gate._open.set()
            st_tree.checkpoint()  # dumps the drained (or draining) state
            assert_contents(st_tree, model)
