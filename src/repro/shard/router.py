"""The sharded service front-end: scatter, dispatch, gather.

:class:`ShardedTree` serves the :class:`~repro.core.tree.HarmoniaTree`
API over a fleet of worker *processes*, one contiguous key range each
(:class:`~repro.shard.partition.Partitioner`), to get past the GIL cap
on CPU-bound batch replay and fan-out query service:

* **scatter** — one ``np.searchsorted`` pass routes every query / op to
  its shard; a stable argsort groups the batch per shard (arrival order
  is preserved inside each shard, the invariant update replay needs);
* **dispatch** — from the caller's thread, every involved shard's
  request is sent first and the replies are then read in the order they
  complete, so the workers compute in parallel while the router waits
  on all their pipes at once; arrays travel as raw bytes, never pickle
  (:class:`~repro.shard.transport.ShardChannel`);
* **gather** — results scatter back into caller order through the
  routing permutation (searches), sum into one
  :class:`~repro.core.update.BatchResult` (updates), or are stitched
  into one :class:`~repro.core.search.RangeBatch` by offset arithmetic
  (range scans — shard order *is* key order, so each query's shard
  parts simply follow one another).

Robustness is the router's job, not the workers': every worker is a
deterministic function of its **base snapshot** (the arrays it was
loaded with) plus the **op log** (the batches routed to it since), both
of which the router keeps.  A dead worker — detected by liveness checks
or a broken pipe mid-call — is restarted and rebuilt from snapshot +
log replay, then the failed request is re-sent once.  A batch enters a
shard's op log when the router reads that shard's full reply, so the
log always equals what the worker acknowledged; a request that fails
any other way restarts every shard whose reply was not read.
:meth:`checkpoint` folds the log back into the base to bound replay
cost, and :meth:`rebalance` re-cuts the key space by fresh quantiles
(merging shrunken shards, splitting swollen ones) when the size skew
exceeds a threshold.

Everything is observable through the ``shard.*`` metric family
(docs/observability.md): scatter/dispatch/gather spans, per-shard batch
sizes, restart and rebalance counters, the live skew gauge.

**Distributed tracing.**  When the router runs inside a recording
(``obs.active.enabled``), every routed request mints a
:class:`~repro.obs.trace.TraceContext` and ships it with each shard's
command; workers reply with their own span registries, which merge back
here under ``shard[i].`` namespaces — one registry, one Chrome trace
with per-process lanes (docs/observability.md).  Outside a recording
the wire protocol is exactly the pre-tracing one.  Independently, the
always-on :data:`~repro.obs.flight.FLIGHT` ring notes every request and
restart with its latency, recording-on or off.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.obs.flight import FLIGHT
from repro.obs.trace import TraceContext, shard_prefix
from repro.constants import DEFAULT_FANOUT, NOT_FOUND, VALUE_DTYPE
from repro.core.config import SearchConfig
from repro.core.search import RangeBatch, range_bounds, run_index
from repro.core.merge import concat_sorted_runs
from repro.core.update import BatchResult, OpBatch, Operation, OpsLike
from repro.errors import ConfigError
from repro.shard.partition import Partitioner
from repro.shard.transport import ShardChannel
from repro.shard.worker import worker_main
from repro.utils.validation import (
    ensure_block,
    ensure_fanout,
    ensure_fill,
    ensure_key_array,
    ensure_scalar_key,
)

_clock = time.perf_counter

#: What a dead worker's pipe raises (BrokenPipeError is an OSError).
_DEAD = (EOFError, OSError)

#: One shard's part of a request: ``(shard index, *payload)``.
Job = Tuple[Any, ...]

#: CPU slots of the workers this process spawns: workers take the
#: allowed CPUs round robin across every tree, so two trees alive at
#: once do not stack their shards on the same CPUs
#: (:func:`~repro.shard.worker.pin_cpu`).
_CPU_SLOTS = itertools.count()


@dataclass
class _Shard:
    """Router-side record of one worker: link, lifecycle, rebuild state."""

    index: int
    proc: mp.Process
    channel: ShardChannel
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Base snapshot (sorted keys/values the worker was last loaded with).
    base_keys: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    base_values: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=VALUE_DTYPE)
    )
    #: Op batches the worker acknowledged since the base.
    oplog: List[OpBatch] = field(default_factory=list)
    restarts: int = 0
    #: Which CPU the worker binds to (kept across restarts).
    cpu_slot: int = -1


def _send_ops(ch: ShardChannel, batch: OpBatch) -> None:
    """An ``apply`` command's payload: the batch's three arrays."""
    ch.send_array(batch.kinds)
    ch.send_array(batch.keys)
    ch.send_array(batch.values)


def _request(ch: ShardChannel, cmd: str, s: int,
             ctx: Optional[TraceContext]) -> None:
    """Send command ``cmd`` to shard ``s``, with its trace context when
    the request is traced."""
    if ctx is not None:
        ch.send(cmd, ctx.for_shard(s))
    else:
        ch.send(cmd)


def _expect(ch: ShardChannel, s: int, tag: str) -> tuple:
    """Read one reply tuple, which must be tagged ``tag``; anything else
    means the worker is gone."""
    reply = ch.recv()
    if not reply or reply[0] != tag:
        raise EOFError(f"shard {s} wanted {tag!r}, got {reply!r}")
    return reply


class ShardedTree:
    """Key-space sharded, multi-process Harmonia service tier.

    >>> st = ShardedTree.from_sorted(range(0, 1000, 2), n_shards=2)
    >>> int(st.search(4))
    4
    >>> st.close()

    Results are identical to a single :class:`HarmoniaTree` holding the
    same data — hypothesis-pinned in ``tests/test_shard_equivalence.py``.
    Use as a context manager (or call :meth:`close`) so the worker
    processes shut down deterministically.
    """

    def __init__(
        self,
        partitioner: Partitioner,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 1.0,
        search_config: Optional[SearchConfig] = None,
    ) -> None:
        self.partitioner = partitioner
        self.fanout = fanout
        self.fill = fill
        # Workers run their own recording (or none): the trace knob is a
        # per-process registry reference that cannot cross the boundary.
        cfg = search_config or SearchConfig()
        self.search_config = cfg.with_(trace=None)
        self._closed = False
        self._shards: List[_Shard] = [
            self._spawn(i, next(_CPU_SLOTS))
            for i in range(partitioner.n_shards)
        ]

    # ------------------------------------------------------------- builders

    @classmethod
    def from_sorted(
        cls,
        keys: Sequence[int],
        values: Optional[Sequence[int]] = None,
        n_shards: int = 2,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 1.0,
        search_config: Optional[SearchConfig] = None,
    ) -> "ShardedTree":
        """Bulk-build: quantile-partition sorted ``keys`` and load one
        contiguous slice per worker.  The input is validated here, before
        any worker starts: unsorted or duplicate keys, the ``KEY_MAX``
        sentinel, values that overflow the value dtype and a bad fanout
        or fill are rejected with no process spawned."""
        karr, varr = ensure_block(keys, values)
        ensure_fanout(fanout)
        ensure_fill(fill)
        part = Partitioner.from_keys(karr, n_shards)
        tree = cls(
            part, fanout=fanout, fill=fill, search_config=search_config,
        )
        bounds = np.searchsorted(
            part.boundaries, karr, side="left"
        ) if karr.size else np.empty(0, dtype=np.int64)
        cuts = np.searchsorted(bounds, np.arange(part.n_shards + 1))
        for s in range(part.n_shards):
            lo, hi = int(cuts[s]), int(cuts[s + 1])
            tree._load_shard(s, karr[lo:hi], varr[lo:hi])
        return tree

    # ------------------------------------------------------------ lifecycle

    @property
    def n_shards(self) -> int:
        return self.partitioner.n_shards

    def _spawn(self, index: int, cpu_slot: int) -> _Shard:
        router_side, worker_side = ShardChannel.pair()
        proc = mp.Process(
            target=worker_main,
            args=(worker_side, self.fanout, self.fill,
                  self.search_config, index, cpu_slot),
            daemon=True,
            name=f"harmonia-shard-{index}",
        )
        proc.start()
        # The worker side of the pipe belongs to the child now.
        worker_side.conn.close()
        return _Shard(index=index, proc=proc, channel=router_side,
                      cpu_slot=cpu_slot)

    def _load_shard(
        self, s: int, keys: np.ndarray, values: np.ndarray
    ) -> None:
        """Replace shard ``s``'s contents (and its rebuild base)."""

        def send(job: Job, ch: ShardChannel) -> None:
            ch.send("load")
            ch.send_array(keys)
            ch.send_array(values)

        def recv(job: Job, ch: ShardChannel) -> None:
            _expect(ch, s, "loaded")
            shard = self._shards[s]
            shard.base_keys = keys
            shard.base_values = values
            shard.oplog = []

        self._fan_out([(s,)], send, recv)

    def _restart_locked(self, s: int) -> None:
        """Rebuild a dead worker from base snapshot + op-log replay.

        Caller holds the shard lock.  The new worker sees exactly the
        batches the old one acknowledged — an unacknowledged in-flight
        batch is *not* in the log, so the caller's retry applies it
        exactly once.
        """
        shard = self._shards[s]
        try:
            shard.channel.close()
        finally:
            if shard.proc.is_alive():  # hung, or holding an unread reply
                shard.proc.terminate()
            shard.proc.join(timeout=5.0)
        fresh = self._spawn(s, shard.cpu_slot)
        shard.proc = fresh.proc
        shard.channel = fresh.channel
        shard.restarts += 1
        ch = shard.channel
        ch.send("load")
        ch.send_array(shard.base_keys)
        ch.send_array(shard.base_values)
        reply = ch.recv()
        if not reply or reply[0] != "loaded":  # pragma: no cover
            raise ConfigError(f"shard {s} rebuild load failed: {reply!r}")
        for batch in shard.oplog:
            ch.send("apply")
            _send_ops(ch, batch)
            reply = ch.recv()
            if not reply or reply[0] != "applied":  # pragma: no cover
                raise ConfigError(
                    f"shard {s} rebuild replay failed: {reply!r}"
                )
        FLIGHT.note("restart", {"shard": s, "oplog": len(shard.oplog)})
        rec = obs.active
        if rec.enabled:
            rec.counter("shard.restarts")

    def _recv_trace(self, s: int, ch: ShardChannel,
                    ctx: Optional[TraceContext]) -> None:
        """Absorb the worker's trailing trace tuple into the ambient
        registry under this shard's namespace (traced requests only)."""
        if ctx is None:
            return
        payload = _expect(ch, s, "trace")[1]
        rec = obs.active
        if rec.enabled and payload is not None:
            rec.merge_remote(payload, prefix=shard_prefix(s))

    def _fan_out(
        self,
        jobs: Sequence[Job],
        send: Callable[[Job, ShardChannel], None],
        recv: Callable[[Job, ShardChannel], Any],
        timeout: Optional[float] = None,
    ) -> List[Any]:
        """Run one request on every shard in ``jobs`` (ascending shard
        order) from the caller's thread; returns ``recv``'s results in
        job order.

        All requests are sent before any reply is read; replies are read
        as they complete.  A worker that is dead, dies mid-request or is
        silent past ``timeout`` is restarted and its job re-run once; a
        second failure propagates.  On any exception, every shard whose
        reply was not fully read is restarted before its lock is
        released, so no worker keeps an unlogged batch or a stale reply.
        """
        shards = [self._shards[job[0]] for job in jobs]
        results: List[Any] = [None] * len(jobs)
        retried = [False] * len(jobs)
        unread = set()  # jobs sent whose reply is not fully read yet
        pending = {}  # connection → index of the job awaiting its reply

        def retry(i: int, exc: BaseException) -> None:
            if retried[i]:
                raise exc
            retried[i] = True
            self._restart_locked(shards[i].index)
            send(jobs[i], shards[i].channel)
            pending[shards[i].channel.conn] = i

        with ExitStack() as held:
            for shard in shards:
                held.enter_context(shard.lock)
            try:
                for i, shard in enumerate(shards):
                    unread.add(i)
                    try:
                        if not shard.proc.is_alive():
                            raise EOFError(f"shard {shard.index} is dead")
                        send(jobs[i], shard.channel)
                        pending[shard.channel.conn] = i
                    except _DEAD as exc:
                        retry(i, exc)
                while pending:
                    ready = wait(list(pending), timeout)
                    for conn in ready or list(pending):
                        i = pending.pop(conn)
                        try:
                            if not ready:
                                raise EOFError(
                                    f"shard {shards[i].index} silent for "
                                    f"{timeout}s")
                            results[i] = recv(jobs[i], shards[i].channel)
                            unread.discard(i)
                        except _DEAD as exc:
                            retry(i, exc)
            except BaseException:
                for i in sorted(unread):
                    self._restart_locked(shards[i].index)
                raise
        return results

    def _account(self, op: str, size: Tuple[str, int],
                 times: Tuple[float, float, float, float],
                 ctx: Optional[TraceContext], n_shards: int,
                 counters: dict) -> None:
        """Bookkeeping shared by the routed requests: the flight ring
        always; ``counters``, the ``shard.request_s`` histogram and the
        request/scatter/dispatch/gather spans when traced.  ``size`` is
        the request's span argument (``("nq", n)`` …)."""
        t0, t1, t2, t3 = times
        FLIGHT.note(op, {"n": size[1], "shards": n_shards})
        FLIGHT.latency(f"router.{op}", t3 - t0)
        if ctx is None:
            return
        rec = obs.active
        for name, value in counters.items():
            rec.counter(name, value)
        rec.counter("trace.requests")
        rec.histogram("shard.request_s", t3 - t0)
        tid = ctx.trace_id
        sized = {size[0]: size[1]}
        rec.span_at("shard.request", t0, t3, cat="shard", trace_id=tid,
                    **sized)
        rec.span_at("shard.scatter", t0, t1, cat="shard", trace_id=tid,
                    **sized)
        rec.span_at("shard.dispatch", t1, t2, cat="shard",
                    shards=n_shards, trace_id=tid)
        rec.span_at("shard.gather", t2, t3, cat="shard", trace_id=tid)
        FLIGHT.publish(rec)

    def _slices(self, bounds: np.ndarray, rec) -> List[Job]:
        """``(shard, lo, hi)`` for every shard with a non-empty slice of
        one scattered batch."""
        jobs: List[Job] = []
        for s in range(self.n_shards):
            lo, hi = int(bounds[s]), int(bounds[s + 1])
            if hi > lo:
                jobs.append((s, lo, hi))
                if rec.enabled:
                    rec.histogram("shard.batch_size", hi - lo)
        return jobs

    def close(self) -> None:
        """Stop all workers and release the channels (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            with shard.lock:
                try:
                    shard.channel.send("stop")
                    shard.channel.recv(timeout=2.0)
                except _DEAD:
                    pass
                shard.channel.close()
                if shard.proc.is_alive():
                    shard.proc.join(timeout=2.0)
                if shard.proc.is_alive():  # pragma: no cover — hung worker
                    shard.proc.terminate()
                    shard.proc.join(timeout=2.0)

    def __enter__(self) -> "ShardedTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover — GC safety net
        try:
            self.close()
        except Exception:
            pass

    # --------------------------------------------------------------- health

    def ping(self, s: int, timeout: float = 5.0) -> Tuple[int, int]:
        """(epoch, n_keys) of shard ``s``; restarts it first if dead."""

        def recv(job: Job, ch: ShardChannel) -> Tuple[int, int]:
            reply = _expect(ch, s, "pong")
            return int(reply[1]), int(reply[2])

        return self._fan_out([(s,)], lambda job, ch: ch.send("ping"), recv,
                             timeout=timeout)[0]

    def health_check(self, timeout: float = 5.0) -> List[int]:
        """Ping every worker; dead ones are restarted and rebuilt.
        Returns the indices that needed a restart."""
        revived: List[int] = []
        for s, shard in enumerate(self._shards):
            before = shard.restarts
            self.ping(s, timeout=timeout)
            if self._shards[s].restarts > before:
                revived.append(s)
        return revived

    def shard_counts(self) -> np.ndarray:
        """Per-shard key counts (one ping round)."""
        return np.asarray(
            [self.ping(s)[1] for s in range(self.n_shards)], dtype=np.int64
        )

    def stats(self) -> List[dict]:
        """Per-shard service stats (epoch, keys, restarts, boundaries)."""
        out = []
        for s in range(self.n_shards):
            epoch, n_keys = self.ping(s)
            lo = (int(self.partitioner.boundaries[s - 1]) + 1 if s > 0
                  else None)
            hi = (int(self.partitioner.boundaries[s])
                  if s < self.n_shards - 1 else None)
            out.append({
                "shard": s, "epoch": epoch, "n_keys": n_keys,
                "restarts": self._shards[s].restarts,
                "range_lo": lo, "range_hi": hi,
            })
        return out

    def __len__(self) -> int:
        return int(self.shard_counts().sum())

    # -------------------------------------------------------------- queries

    def search(self, key: int) -> Optional[int]:
        """Single-key convenience over the batched path."""
        out = self.search_many(np.asarray([ensure_scalar_key(key)]))
        return None if out[0] == NOT_FOUND else int(out[0])

    def search_many(self, queries: Sequence[int]) -> np.ndarray:
        """Batched point lookup: scatter by boundary key, send every
        owning worker its slice, gather into caller order.

        Identical results to ``HarmoniaTree.search_many`` on the same
        data (misses map to :data:`~repro.constants.NOT_FOUND`).
        """
        q = ensure_key_array(np.asarray(queries), "queries")
        rec = obs.active
        out = np.empty(q.size, dtype=VALUE_DTYPE)
        if q.size == 0:
            return out
        ctx = TraceContext.mint() if rec.enabled else None
        t0 = _clock()
        ids, order, bounds = self.partitioner.scatter(q)
        routed = q[order]
        jobs = self._slices(bounds, rec)
        t1 = _clock()

        def send(job: Job, ch: ShardChannel) -> None:
            s, lo, hi = job
            _request(ch, "search", s, ctx)
            ch.send_array(routed[lo:hi])

        def recv(job: Job, ch: ShardChannel) -> np.ndarray:
            _expect(ch, job[0], "found")
            res = ch.recv_array()
            self._recv_trace(job[0], ch, ctx)
            return res

        results = self._fan_out(jobs, send, recv)
        t2 = _clock()
        for (s, lo, hi), res in zip(jobs, results):
            out[order[lo:hi]] = res
        t3 = _clock()
        self._account("search", ("nq", int(q.size)), (t0, t1, t2, t3),
                      ctx, len(jobs),
                      {"shard.batches": 1, "shard.queries": q.size})
        return out

    # -------------------------------------------------------------- updates

    def apply_batch(self, ops: OpsLike) -> BatchResult:
        """Apply one update batch across the shards (§3.2.2 per shard):
        an :class:`OpBatch` or a sequence of :class:`Operation`,
        validated before any shard is sent anything.

        The batch is scattered by key with the same stable grouping the
        queries use, so each shard replays its ops in arrival order;
        per-key outcomes (and therefore the summed accounting below) are
        identical to the unsharded path because an op's success depends
        only on same-key history.  Structural counters
        (``split_leaves`` …) stay zero: the shards write through their
        deltas.  A shard's slice enters its op log (the restart-and-rebuild
        source) when the router reads that shard's full reply; a crash
        mid-batch is retried after rebuild, exactly once.
        """
        rec = obs.active
        result = BatchResult()
        t0 = _clock()
        batch = OpBatch.of(ops)
        n = len(batch)
        if n == 0:
            return result
        ctx = TraceContext.mint() if rec.enabled else None
        ids, order, bounds = self.partitioner.scatter(batch.keys)
        routed = batch[order]
        jobs = self._slices(bounds, rec)
        t1 = _clock()

        def send(job: Job, ch: ShardChannel) -> None:
            s, lo, hi = job
            _request(ch, "apply", s, ctx)
            _send_ops(ch, routed[lo:hi])

        def recv(job: Job, ch: ShardChannel) -> tuple:
            s, lo, hi = job
            reply = _expect(ch, s, "applied")
            self._recv_trace(s, ch, ctx)
            self._shards[s].oplog.append(routed[lo:hi])
            return reply[1:]

        results = self._fan_out(jobs, send, recv)
        t2 = _clock()
        (result.inserted, result.updated, result.deleted,
         result.failed) = map(sum, zip(*results))
        t3 = _clock()
        self._account("apply", ("ops", n), (t0, t1, t2, t3), ctx,
                      len(jobs), {"shard.batches": 1, "shard.ops": n})
        return result

    def insert(self, key: int, value: int) -> bool:
        return self.apply_batch([Operation("insert", key, value)]).inserted == 1

    def update(self, key: int, value: int) -> bool:
        return self.apply_batch([Operation("update", key, value)]).updated == 1

    def delete(self, key: int) -> bool:
        return self.apply_batch([Operation("delete", key)]).deleted == 1

    # ---------------------------------------------------------- range scans

    def range_search(self, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        """Global range scan ``[lo, hi]``: per-shard leaf-region slices,
        joined in shard order (= key order)."""
        return self.range_search_batch([lo], [hi])[0]

    def range_search_batch(
        self, los: Sequence[int], his: Sequence[int]
    ) -> RangeBatch:
        """Batch of global range scans as one
        :class:`~repro.core.search.RangeBatch`.

        Each range is clipped to the shards it overlaps; every shard
        scans its clips in one request and replies with its CSR arrays
        (per-query counts, keys, values).  Shard order is key order, so
        query ``q``'s result is its shards' parts end to end: the
        stitch is offset arithmetic, one scatter per shard.
        """
        lo_arr, hi_arr = range_bounds(los, his)
        n = lo_arr.size
        if n == 0:
            return RangeBatch.empty()
        rec = obs.active
        ctx = TraceContext.mint() if rec.enabled else None
        t0 = _clock()
        firsts = self.partitioner.shard_of(lo_arr)
        lasts = self.partitioner.shard_of(hi_arr)
        valid = lo_arr <= hi_arr
        # Per shard: the (query, clipped-bounds) list it must scan.
        jobs: List[Job] = []
        for s in range(self.n_shards):
            qidx = np.flatnonzero(valid & (firsts <= s) & (lasts >= s))
            if qidx.size == 0:
                continue
            clo = lo_arr[qidx]
            chi = hi_arr[qidx]
            if s > 0:
                np.maximum(clo, int(self.partitioner.boundaries[s - 1]) + 1,
                           out=clo)
            if s < self.n_shards - 1:
                np.minimum(chi, int(self.partitioner.boundaries[s]),
                           out=chi)
            jobs.append((s, qidx, clo, chi))
        t1 = _clock()

        def send(job: Job, ch: ShardChannel) -> None:
            s, _qidx, clo, chi = job
            _request(ch, "range", s, ctx)
            ch.send_array(clo)
            ch.send_array(chi)

        def recv(job: Job, ch: ShardChannel):
            _expect(ch, job[0], "ranged")
            counts = ch.recv_array()
            keys = ch.recv_array()
            vals = ch.recv_array()
            self._recv_trace(job[0], ch, ctx)
            return counts, keys, vals

        results = self._fan_out(jobs, send, recv)
        t2 = _clock()

        # Stitch: shards ascend, so each shard's part of query q goes
        # right after the parts written by the shards before it.
        total = np.zeros(n, dtype=np.int64)
        for (_s, qidx, _clo, _chi), (counts, _k, _v) in zip(jobs, results):
            total[qidx] += counts
        size = int(total.sum())
        out = RangeBatch.from_counts(total, np.empty(size, dtype=np.int64),
                                     np.empty(size, dtype=VALUE_DTYPE))
        written = out.offsets[:-1].copy()
        for (_s, qidx, _clo, _chi), (counts, k, v) in zip(jobs, results):
            dest = run_index(written[qidx], counts)
            out.keys[dest] = k
            out.values[dest] = v
            written[qidx] += counts
        t3 = _clock()
        self._account(
            "range", ("ranges", n), (t0, t1, t2, t3), ctx, len(jobs),
            {"shard.range_queries": int(np.count_nonzero(valid))},
        )
        return out

    # ---------------------------------------------------- rebalance / ckpt

    def _dump(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """Shard ``s``'s full sorted contents."""

        def recv(job: Job, ch: ShardChannel):
            _expect(ch, s, "dumped")
            return ch.recv_array(), ch.recv_array()

        return self._fan_out([(s,)], lambda job, ch: ch.send("dump"),
                             recv)[0]

    def checkpoint(self) -> None:
        """Fold every shard's op log into its base snapshot.

        Bounds restart-and-rebuild replay cost after long update runs;
        contents and boundaries are unchanged.
        """
        for s in range(self.n_shards):
            keys, values = self._dump(s)
            shard = self._shards[s]
            with shard.lock:
                shard.base_keys = keys
                shard.base_values = values
                shard.oplog = []

    def skew(self) -> float:
        """Current size skew (``max shard / ideal share``, 1.0 = even)."""
        return Partitioner.skew(self.shard_counts())

    def rebalance(
        self, threshold: float = 1.5, force: bool = False
    ) -> bool:
        """Re-cut the key space when shard sizes drift apart.

        When ``skew() > threshold`` (or ``force``), every shard is
        dumped, the global sorted contents are re-joined
        (:func:`~repro.core.merge.concat_sorted_runs` — shard order is
        key order) and fresh key-count quantiles become the new
        boundaries: swollen shards are split, shrunken neighbours merged
        in one pass.  Workers are reloaded with their new slices (which
        also checkpoints: op logs reset).  Returns whether a rebalance
        ran.
        """
        if threshold < 1.0:
            raise ConfigError(
                f"rebalance threshold must be >= 1.0, got {threshold}"
            )
        rec = obs.active
        current = self.skew()
        if rec.enabled:
            rec.gauge("shard.skew", current)
        if not force and current <= threshold:
            return False
        dumps = [self._dump(s) for s in range(self.n_shards)]
        keys, values = concat_sorted_runs(dumps)
        self.partitioner = Partitioner.from_keys(keys, self.n_shards)
        bounds = np.searchsorted(self.partitioner.boundaries, keys,
                                 side="left")
        cuts = np.searchsorted(bounds, np.arange(self.n_shards + 1))
        for s in range(self.n_shards):
            lo, hi = int(cuts[s]), int(cuts[s + 1])
            self._load_shard(s, keys[lo:hi], values[lo:hi])
        if rec.enabled:
            rec.counter("shard.rebalances")
            rec.gauge("shard.skew", self.skew())
        return True

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"ShardedTree(shards={self.n_shards}, fanout={self.fanout})"
        )


__all__ = ["ShardedTree"]
