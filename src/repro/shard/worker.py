"""The shard worker process: one key-range, one epoch-managed tree.

Each worker owns the :class:`~repro.core.epoch.EpochManager`-wrapped
:class:`~repro.core.tree.HarmoniaTree` for one contiguous key range and
serves the router over a :class:`~repro.shard.transport.ShardChannel`:

* ``search``  — batch point lookups through the engine
  (:meth:`EpochManager.search_many`);
* ``apply``   — one §3.2.2 update batch (submit + single flush, so the
  shard publishes exactly one new epoch per router batch, as a delta
  run);
* ``range``   — a batch of range scans over the shard's contiguous leaf
  region (:meth:`EpochManager.range_search_batch`), replied as the
  result's three CSR arrays: per-query counts, keys, values;
* ``dump``    — the shard's full sorted contents (checkpoint/rebalance);
* ``ping``    — liveness + ``(epoch, n_keys)`` for health checks and
  skew tracking;
* ``crash``   — hard ``os._exit`` (failure-injection hook for the
  restart-and-rebuild tests);
* ``stop``    — clean shutdown.

Workers are replaceable by construction: everything a worker holds is a
deterministic function of its base slice plus the op batches the router
has routed to it, so the router can rebuild a crashed worker from its
snapshot log (see :class:`~repro.shard.router.ShardedTree`).

**Tracing.**  A ``search`` / ``apply`` / ``range`` command may carry a
:class:`~repro.obs.trace.TraceContext` wire dict as its last element.
The worker then installs its persistent per-process registry
(:func:`~repro.obs.trace.worker_registry`), times its own stages
(``worker.deserialize`` / ``worker.execute`` / ``worker.reply`` — the
engine and epoch spans of the execution record into the same registry
ambiently), and, after the normal reply, ships the registry back as one
extra ``("trace", payload)`` tuple for the router to merge.  Untraced
commands are wire-identical to the pre-tracing protocol, which is what
keeps op-log replay (plain ``"apply"`` sends) and the disabled path
untouched.

**Flight recorder.**  Every command — traced or not — notes an event in
the always-on :data:`~repro.obs.flight.FLIGHT` ring with its latency;
the deliberate ``crash`` hook and any unexpected worker exception dump
the ring to ``$HARMONIA_FLIGHT_DIR`` before the process dies.

**Writes through the delta.**  Every worker runs one
``EpochManager``: an ``apply`` resolves the batch
against (base, delta) and folds it into the delta, O(batch + delta)
instead of a rewrite of the whole block; the worker's background drain
thread merges the delta into the base once it holds
:data:`DRAIN_THRESHOLD` entries.  Range scans splice the delta into
their windows (:func:`~repro.core.search.range_search_batch`).

**CPU binding.**  Every worker binds itself to one CPU of the set the
router may run on (the router deals them out round robin) and runs
under ``SCHED_BATCH`` (:func:`pin_cpu`), so the shards of one request
run side by side rather than queued on one CPU; its drain thread shares
that CPU and runs while the worker waits for the next request.

The module-level :func:`worker_main` is the process target (top-level so
it is importable under the ``spawn`` start method too; under the default
``fork`` the channel's pipe is inherited directly).
"""

from __future__ import annotations

import os
import time
from typing import List, Optional

import numpy as np

from repro.constants import VALUE_DTYPE
from repro.core.config import SearchConfig
from repro.core.epoch import EpochManager
from repro.core.tree import HarmoniaTree
from repro.core.update import K_DELETE, K_INSERT, Operation
from repro.obs.flight import FLIGHT, dump_on_crash
from repro.obs.trace import (
    TraceContext,
    export_worker_trace,
    worker_registry,
)
from repro.shard.transport import ShardChannel

_clock = time.perf_counter

#: Numeric op codes on the wire (shared with the router's encoder — the
#: codes of :mod:`repro.core.update`).
_CODE_KIND = {K_INSERT: "insert", K_DELETE: "delete"}


def _decode_ops(
    kinds: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> List[Operation]:
    """Wire arrays → Operation list (arrival order is preserved by the
    router's stable scatter)."""
    kind_of = _CODE_KIND
    return [
        Operation(kind_of.get(k, "update"), int(key), int(val))
        for k, key, val in zip(kinds.tolist(), keys.tolist(), values.tolist())
    ]


#: Delta entries at which a worker's flush starts a background drain.
#: Measured on one shard's share of ``scan_shard`` (a 2^20-key block,
#: 1024 scans and one 64-insert flush per round; docs/sharding.md):
#: 2^12 cost less per round than 2^10 (drains too often) and than 2^15
#: (every scan splices, and every flush folds, a larger delta).
DRAIN_THRESHOLD = 1 << 12


class _WorkerState:
    """The worker loop's mutable state: the epoch manager + configs."""

    def __init__(
        self,
        fanout: int,
        fill: float,
        search_config: Optional[SearchConfig],
    ) -> None:
        self.fanout = fanout
        self.fill = fill
        self.search_config = search_config or SearchConfig()
        self.manager = self._manager_for(None, None)

    def _manager_for(self, keys, values) -> EpochManager:
        if keys is None or keys.size == 0:
            tree = HarmoniaTree.empty(
                fanout=self.fanout, fill=self.fill,
                search_config=self.search_config,
            )
        else:
            tree = HarmoniaTree.from_sorted(
                keys, values, fanout=self.fanout, fill=self.fill,
                search_config=self.search_config,
            )
        # One epoch per router batch: the router flushes explicitly, so
        # the capacity only needs to stay above any single batch.  A
        # flush publishes a delta run; the manager's background drain
        # folds the delta into the base between router batches.
        return EpochManager(
            tree, batch_capacity=1 << 62, drain_threshold=DRAIN_THRESHOLD
        )

    def load(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.manager = self._manager_for(keys, values)


def _trace_ctx(msg) -> Optional[TraceContext]:
    """The command's trace context, if its last element is a wire dict
    (untraced commands — including op-log replay — carry none)."""
    if len(msg) > 1:
        return TraceContext.from_wire(msg[-1])
    return None


def _ship_trace(conn: ShardChannel, ctx: TraceContext,
                stages, op: str, n: int) -> None:
    """Record this request's worker-side stage spans and send the
    registry export as the trailing ``("trace", payload)`` tuple."""
    reg = worker_registry()
    t0, t1, t2, t3 = stages
    common = {"trace_id": ctx.trace_id, "shard": ctx.shard}
    reg.span_at("worker.deserialize", t0, t1, cat="worker", **common)
    reg.span_at("worker.execute", t1, t2, cat="worker", op=op, n=n,
                **common)
    reg.span_at("worker.reply", t2, t3, cat="worker", **common)
    conn.send("trace", export_worker_trace(f"shard-{ctx.shard}"))


def pin_cpu(slot: int) -> None:
    """Bind the calling process to CPU ``slot mod n`` of the ``n`` CPUs
    it may run on, under ``SCHED_BATCH``; a negative slot, or fewer than
    two CPUs, leaves it unbound.

    The router hands its workers consecutive slots, so each shard runs
    on its own CPU and a fan-out never queues one worker behind another
    while a second CPU idles: left unbound, a worker woken while both
    CPUs of a 2-CPU host are busy (the router still sending, a sibling
    worker running) can wait on its sibling's run queue, and the two
    shards of one request run one after the other.  ``SCHED_BATCH``
    keeps a woken worker from preempting the router on the CPU they
    share before the router has sent the other shards their requests.
    """
    if slot < 0 or not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    try:
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError:  # the allowed set changed, or the policy is refused
        pass


def worker_main(
    channel: ShardChannel,
    fanout: int,
    fill: float,
    search_config: Optional[SearchConfig] = None,
    index: int = -1,
    cpu_slot: int = -1,
) -> None:
    """Process entry point: serve requests until ``stop`` (or EOF).

    Unexpected exceptions dump the flight ring before propagating, so a
    worker that dies of a bug leaves its last few thousand operations on
    disk for the post-mortem.  The worker binds itself to the CPU of its
    ``cpu_slot`` (:func:`pin_cpu`).
    """
    pin_cpu(cpu_slot)
    try:
        _serve(channel, fanout, fill, search_config, index)
    except BaseException:
        dump_on_crash("worker-exception")
        raise


def _serve(
    channel: ShardChannel,
    fanout: int,
    fill: float,
    search_config: Optional[SearchConfig],
    index: int,
) -> None:
    state = _WorkerState(fanout, fill, search_config)
    conn = channel

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # router went away
            return
        if msg is None:  # pragma: no cover — no timeout is set here
            continue
        cmd = msg[0]

        if cmd == "ping":
            mgr = state.manager
            conn.send("pong", mgr.epoch, len(mgr))

        elif cmd == "load":
            keys = conn.recv_array()
            values = conn.recv_array()
            state.load(keys, values)
            FLIGHT.note("load", {"shard": index, "n": int(keys.size)})
            conn.send("loaded", len(state.manager))

        elif cmd == "search":
            ctx = _trace_ctx(msg)
            if ctx is not None:
                worker_registry()  # ambient before the engine runs
            t0 = _clock()
            queries = conn.recv_array()
            t1 = _clock()
            out = state.manager.search_many(queries)
            t2 = _clock()
            conn.send("found")
            conn.send_array(np.ascontiguousarray(out, dtype=VALUE_DTYPE))
            t3 = _clock()
            FLIGHT.note("search", {"shard": index, "n": int(queries.size)})
            FLIGHT.latency("worker.search", t2 - t1)
            if ctx is not None:
                _ship_trace(conn, ctx, (t0, t1, t2, t3), "search",
                            int(queries.size))

        elif cmd == "apply":
            ctx = _trace_ctx(msg)
            if ctx is not None:
                worker_registry()
            t0 = _clock()
            kinds = conn.recv_array()
            keys = conn.recv_array()
            values = conn.recv_array()
            t1 = _clock()
            ops = _decode_ops(kinds, keys, values)
            state.manager.submit_many(ops)
            res = state.manager.flush()
            t2 = _clock()
            if res is None:
                conn.send("applied", 0, 0, 0, 0, 0)
            else:
                conn.send(
                    "applied", res.inserted, res.updated, res.deleted,
                    res.failed, res.split_leaves,
                )
            t3 = _clock()
            FLIGHT.note("apply", {"shard": index, "n": int(kinds.size)})
            FLIGHT.latency("worker.apply", t2 - t1)
            if ctx is not None:
                _ship_trace(conn, ctx, (t0, t1, t2, t3), "apply",
                            int(kinds.size))

        elif cmd == "range":
            ctx = _trace_ctx(msg)
            if ctx is not None:
                worker_registry()
            t0 = _clock()
            los = conn.recv_array()
            his = conn.recv_array()
            t1 = _clock()
            res = state.manager.range_search_batch(los, his)
            t2 = _clock()
            conn.send("ranged")
            conn.send_array(res.counts)
            conn.send_array(res.keys)
            conn.send_array(res.values)
            t3 = _clock()
            FLIGHT.note("range", {"shard": index, "n": int(los.size)})
            FLIGHT.latency("worker.range", t2 - t1)
            if ctx is not None:
                _ship_trace(conn, ctx, (t0, t1, t2, t3), "range",
                            int(los.size))

        elif cmd == "dump":
            mgr = state.manager
            # Merged visible contents: base snapshot plus any undrained
            # delta.
            keys, values = mgr.dump_items()
            FLIGHT.note("dump", {"shard": index, "n": int(keys.size)})
            conn.send("dumped", mgr.epoch)
            conn.send_array(np.ascontiguousarray(keys))
            conn.send_array(np.ascontiguousarray(values))

        elif cmd == "crash":  # failure-injection hook (tests)
            FLIGHT.note("crash", {"shard": index})
            dump_on_crash("crash-command")
            os._exit(17)

        elif cmd == "stop":
            conn.send("stopped")
            return

        else:  # pragma: no cover — protocol violation
            conn.send("error", f"unknown command {cmd!r}")


__all__ = ["DRAIN_THRESHOLD", "worker_main"]
