"""Double-buffered streaming query executor — §4.1.3's sort/traverse overlap.

PSA (§4.1) buys coalesced traversals by spending CPU time sorting the top
``N`` bits of each query batch, and the paper is explicit about where that
cost goes: "the sorting of the next batch of queries can be overlapped with
the current query batch processing" (§4.1.3) — the sort runs on the host
while the device traverses the previous batch, so in steady state only the
*longer* of the two stages is on the critical path.  The repo has modeled
that overlap analytically since the start (:mod:`repro.gpusim.pipeline`'s
``double_buffer`` mode); this module *executes* it on the host path.

:class:`StreamExecutor` splits incoming query traffic into fixed-size
batches and runs a two-stage pipeline over them:

* **sort stage** — background worker(s) run
  :func:`~repro.sort.radix.partial_radix_argsort` on batch ``i+1`` (and
  further, up to the lookahead bound) and gather the issue-order queries
  into that batch's slot buffer;
* **traverse stage** — the main thread runs the
  :class:`~repro.core.engine.BatchQueryEngine` lookup on batch ``i``'s
  issued queries and delivers results in arrival order with one direct
  scatter through the sort permutation (``out[order] = values`` — the inverse
  permutation is never built, there is no post-hoc reorder pass).

Backpressure is structural: there are exactly ``depth`` reusable slot
buffers (issued queries + values), batch ``j`` owns slot ``j % depth``, and
at most ``depth - 1`` sorts are in flight ahead of the batch being
traversed — so slot reuse is race-free by construction and memory stays
bounded no matter how long the stream is.

Every batch records a :class:`BatchTrace` with wall-clock intervals per
stage; :class:`StreamStats` reduces them to steady-state per-batch means,
the measured sort/traverse overlap (interval intersection), and the
:mod:`~repro.gpusim.pipeline`-shaped model totals (``sort`` playing H2D,
``traverse`` the kernel, ``scatter`` D2H) so measured overlap can be put
next to the analytic model the repo already had.

A note on cores: on a single-CPU host the sort worker and the traverse
thread time-share, so overlap cannot *remove* work — the wins here come
from the sort being off the critical path on multicore hosts, and from the
executor's mechanical savings (slot reuse, direct scatter) everywhere.
:class:`StreamStats` reports ``cpu_count`` so readers can interpret the
overlap numbers honestly.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.constants import NOT_FOUND, VALUE_DTYPE
from repro.core.engine import BatchQueryEngine
from repro.core.layout import HarmoniaLayout
from repro.core.psa import optimal_sort_bits
from repro.errors import ConfigError
from repro.sort.radix import partial_radix_argsort
from repro.utils.validation import ensure_key_array

#: Executor modes: ``serial`` runs sort → traverse → scatter back to back
#: per batch (the §4.1.2 cost stack); ``overlap`` pipelines the sort of
#: batch *i+1* under the traversal of batch *i* (§4.1.3).
STREAM_MODES = ("serial", "overlap")

#: Default queries per batch — matches the evaluation's mid-size windows.
DEFAULT_STREAM_BATCH = 1 << 14

_clock = time.perf_counter


@dataclass(frozen=True)
class BatchTrace:
    """Wall-clock record of one batch's trip through the pipeline.

    All times are seconds relative to the stream's start; ``sort`` covers
    the partial radix argsort plus the gather into issue order, ``traverse``
    the engine lookup, ``scatter`` the ordered delivery into
    the caller's output slice.
    """

    index: int
    n: int
    sort_start: float
    sort_end: float
    traverse_start: float
    traverse_end: float
    scatter_start: float
    scatter_end: float
    sort_passes: int

    @property
    def sort_s(self) -> float:
        return self.sort_end - self.sort_start

    @property
    def traverse_s(self) -> float:
        return self.traverse_end - self.traverse_start

    @property
    def scatter_s(self) -> float:
        return self.scatter_end - self.scatter_start


def _merge_intervals(
    intervals: Sequence[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Union of intervals as a sorted disjoint list."""
    ivs = sorted((s, e) for s, e in intervals if e > s)
    merged: List[Tuple[float, float]] = []
    for s, e in ivs:
        if merged and s <= merged[-1][1]:
            ps, pe = merged[-1]
            merged[-1] = (ps, max(pe, e))
        else:
            merged.append((s, e))
    return merged


def _intersection_s(
    a: List[Tuple[float, float]], b: List[Tuple[float, float]]
) -> float:
    """Total measure of the intersection of two disjoint interval lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if e > s:
            total += e - s
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass(frozen=True)
class StreamStats:
    """Execution record of one :meth:`StreamExecutor.run` call.

    Steady-state figures exclude batch 0 (the pipeline fill: its sort can
    overlap nothing), mirroring how
    :func:`repro.gpusim.pipeline.pipeline_time` separates fill/drain from
    the steady term.
    """

    mode: str
    n_queries: int
    n_batches: int
    batch_size: int
    depth: int
    sort_workers: int
    bits_sorted: int
    wall_s: float
    cpu_count: int
    traces: Tuple[BatchTrace, ...]

    # ------------------------------------------------------------- totals

    @property
    def sort_s(self) -> float:
        return sum(t.sort_s for t in self.traces)

    @property
    def traverse_s(self) -> float:
        return sum(t.traverse_s for t in self.traces)

    @property
    def scatter_s(self) -> float:
        return sum(t.scatter_s for t in self.traces)

    def throughput(self) -> float:
        """Queries per second end to end."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_queries / self.wall_s

    # ------------------------------------------------- steady-state figures

    @property
    def _steady(self) -> Tuple[BatchTrace, ...]:
        return self.traces[1:] if len(self.traces) > 1 else self.traces

    @property
    def steady_sort_s(self) -> float:
        """Mean per-batch sort time, pipeline fill excluded."""
        st = self._steady
        return sum(t.sort_s for t in st) / len(st) if st else 0.0

    @property
    def steady_traverse_s(self) -> float:
        st = self._steady
        return sum(t.traverse_s for t in st) / len(st) if st else 0.0

    @property
    def steady_scatter_s(self) -> float:
        st = self._steady
        return sum(t.scatter_s for t in st) / len(st) if st else 0.0

    @property
    def sort_hidden(self) -> bool:
        """§4.1.3's hiding condition: the steady-state sort fits under the
        steady-state traversal, so overlap can take it off the critical
        path entirely."""
        return self.steady_sort_s <= self.steady_traverse_s

    @property
    def overlapped_s(self) -> float:
        """Measured wall-clock time during which a sort and a
        traverse/scatter were in flight simultaneously (interval
        intersection over the recorded traces)."""
        sorts = _merge_intervals([(t.sort_start, t.sort_end) for t in self.traces])
        work = _merge_intervals(
            [(t.traverse_start, t.scatter_end) for t in self.traces]
        )
        return _intersection_s(sorts, work)

    @property
    def occupancy(self) -> float:
        """Fraction of the wall during which the traverse stage was busy —
        1.0 means the sort stage never stalled the pipeline."""
        if self.wall_s <= 0:
            return 0.0
        busy = _merge_intervals(
            [(t.traverse_start, t.scatter_end) for t in self.traces]
        )
        return sum(e - s for s, e in busy) / self.wall_s

    # ----------------------------------------------------------- model hooks

    def model_total_s(self, mode: str) -> float:
        """The :mod:`repro.gpusim.pipeline` cost formulas applied to the
        *measured* steady per-batch stage times, with the host mapping
        sort := H2D, traverse := kernel, scatter := D2H:

        * ``serial``:        ``n · (sort + traverse + scatter)``
        * ``double_buffer``: ``sort + max(traverse, sort + scatter)·(n−1)
          + traverse + scatter``

        Comparing ``wall_s`` against these says how close the executor
        runs to its own analytic model.
        """
        if mode not in ("serial", "double_buffer"):
            raise ConfigError(
                f"mode must be 'serial'|'double_buffer', got {mode!r}"
            )
        n = self.n_batches
        if n == 0:
            return 0.0
        srt, trv, sct = (
            self.steady_sort_s,
            self.steady_traverse_s,
            self.steady_scatter_s,
        )
        if mode == "serial":
            return n * (srt + trv + sct)
        steady = max(trv, srt + sct)
        return srt + steady * (n - 1) + trv + sct

    def record_to(self, rec) -> None:
        """Publish the run-level figures into an obs recorder (gauges:
        last run wins — per-batch detail goes in via :meth:`StreamExecutor`'s
        per-consume counters/histograms/spans as the stream runs)."""
        rec.gauge("stream.wall_s", self.wall_s)
        rec.gauge("stream.throughput_qps", self.throughput())
        rec.gauge("stream.occupancy", self.occupancy)
        rec.gauge("stream.overlap_s", self.overlapped_s)
        trv = self.steady_traverse_s
        if trv > 0:
            rec.gauge("stream.sort_hidden_ratio", self.steady_sort_s / trv)

    def summary(self) -> dict:
        """JSON-ready digest (what the bench and experiment emit)."""
        return {
            "mode": self.mode,
            "n_queries": self.n_queries,
            "n_batches": self.n_batches,
            "batch_size": self.batch_size,
            "depth": self.depth,
            "sort_workers": self.sort_workers,
            "bits_sorted": self.bits_sorted,
            "cpu_count": self.cpu_count,
            "wall_s": self.wall_s,
            "throughput_qps": self.throughput(),
            "steady_sort_s": self.steady_sort_s,
            "steady_traverse_s": self.steady_traverse_s,
            "steady_scatter_s": self.steady_scatter_s,
            "sort_hidden": self.sort_hidden,
            "overlapped_s": self.overlapped_s,
            "occupancy": self.occupancy,
            "model_serial_s": self.model_total_s("serial"),
            "model_double_buffer_s": self.model_total_s("double_buffer"),
        }


class StreamExecutor:
    """Two-stage (sort ∥ traverse) streaming executor over one layout
    snapshot.

    Results are bit-identical to
    :meth:`~repro.core.tree.HarmoniaTree.search_batch` on the same queries
    for every batch split, mode and worker count — batching never changes
    lookup results, and delivery scatters each batch's values straight into
    its slice of the output in arrival order.

    Not thread-safe: one ``run`` at a time per executor (slot buffers and
    the engine scratch are reused across batches).  Concurrent streams each
    take their own executor — :meth:`~repro.core.tree.HarmoniaTree.search_stream`
    does exactly that; all of them share the snapshot's immutable packed
    leaf block (:meth:`~repro.core.layout.HarmoniaLayout.packed_leaves`).
    """

    def __init__(
        self,
        layout: HarmoniaLayout,
        batch_size: int = DEFAULT_STREAM_BATCH,
        depth: int = 2,
        sort_workers: int = 1,
        mode: str = "overlap",
        bits: Optional[int] = None,
        use_psa: bool = True,
        engine_workers: int = 1,
        keys_per_cacheline: int = 16,
        tile=None,
    ) -> None:
        if not isinstance(layout, HarmoniaLayout):
            raise ConfigError("StreamExecutor needs a HarmoniaLayout")
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        if mode not in STREAM_MODES:
            raise ConfigError(
                f"mode must be one of {STREAM_MODES}, got {mode!r}"
            )
        min_depth = 2 if mode == "overlap" else 1
        if depth < min_depth:
            raise ConfigError(
                f"depth must be >= {min_depth} for mode {mode!r}, got {depth}"
            )
        if sort_workers < 1:
            raise ConfigError(f"sort_workers must be >= 1, got {sort_workers}")

        self.layout = layout
        self.batch_size = int(batch_size)
        self.depth = int(depth)
        self.sort_workers = int(sort_workers)
        self.mode = mode
        self.engine = BatchQueryEngine(layout, n_workers=engine_workers)

        # Equation 2 over the effective key space, exactly as
        # HarmoniaTree.prepare_queries resolves it.
        space_bits = layout.key_space_bits()
        if not use_psa:
            resolved = 0
        elif bits is not None:
            if bits < 0:
                raise ConfigError(f"bits must be >= 0, got {bits}")
            resolved = min(bits, space_bits)
        else:
            resolved = optimal_sort_bits(
                max(layout.n_keys, 1), keys_per_cacheline, key_bits=space_bits
            )
        self.bits = int(resolved)
        self.key_bits = int(space_bits)

        # Slot buffers: batch j owns slot j % depth for both its issued
        # queries and its raw values.  Allocated once, reused stream-long.
        self._issued = [
            np.empty(self.batch_size, dtype=np.int64) for _ in range(self.depth)
        ]
        self._values = [
            np.empty(self.batch_size, dtype=VALUE_DTYPE)
            for _ in range(self.depth)
        ]
        self._pool: Optional[ThreadPoolExecutor] = None
        self._overlay = None  # per-run delta overlay hook (see run())
        self.last_stats: Optional[StreamStats] = None

        # Optional bounded-memory tiling of the traverse stage: each
        # batch runs through the tile scheduler in fixed-size tiles, so
        # engine scratch peaks at O(tile) instead of O(batch) — the FPGA
        # level-wise discipline (docs/join.md).  Values are identical.
        self._tiler = None
        if tile is not None:
            from repro.join.tiles import TileConfig, TileScheduler

            if not isinstance(tile, TileConfig):
                tile = TileConfig(tile_size=int(tile))
            self._tiler = TileScheduler(self.engine, tile)

    def _sort_pool(self) -> ThreadPoolExecutor:
        """The sort-stage worker pool — created on first use and kept for
        the executor's lifetime, so repeated ``run`` calls don't pay the
        thread-spawn latency inside the measured stream."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.sort_workers, thread_name_prefix="psa-sort"
            )
        return self._pool

    def close(self) -> None:
        """Shut the sort pool down (idempotent; also runs at GC)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def __del__(self) -> None:  # pragma: no cover — GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    @classmethod
    def from_config(cls, layout: HarmoniaLayout, config) -> "StreamExecutor":
        """Build from a :class:`~repro.core.config.SearchConfig`'s
        ``stream_*`` knobs — O(1): the packed leaf block is the
        snapshot's, built once however many executors read it."""
        return cls(
            layout,
            batch_size=config.stream_batch,
            depth=config.stream_depth,
            sort_workers=config.stream_sort_workers,
            mode=config.stream_mode,
            bits=config.psa_bits,
            use_psa=config.use_psa,
            engine_workers=config.engine_workers,
            keys_per_cacheline=config.keys_per_cacheline,
            tile=config.stream_tile,
        )

    # --------------------------------------------------------------- running

    def run(
        self,
        queries,
        out: Optional[np.ndarray] = None,
        overlay=None,
    ) -> np.ndarray:
        """Stream ``queries`` through the pipeline; returns values aligned
        with the input order (absent keys map to ``NOT_FOUND``).

        ``out`` optionally supplies the full result buffer (shape
        ``(len(queries),)``, value dtype); it is written in full.
        ``overlay`` is an optional ``fn(keys, values)`` post-pass run on
        each batch's issued slice before delivery (the snapshot-epoch
        delta overlay — elementwise by key, so applying it in issue order
        before the scatter equals applying it after the restore); the
        stream never buffers the whole result, so the overlay streams too.
        """
        self._overlay = overlay
        q = ensure_key_array(np.asarray(queries), "queries")
        n = q.size
        if out is None:
            out = np.empty(n, dtype=VALUE_DTYPE)
        elif out.shape != (n,) or out.dtype != np.dtype(VALUE_DTYPE):
            raise ConfigError(
                f"out must be shape ({n},) dtype {np.dtype(VALUE_DTYPE)}, "
                f"got shape {out.shape} dtype {out.dtype}"
            )
        bounds = [
            (s, min(s + self.batch_size, n)) for s in range(0, n, self.batch_size)
        ]
        t0 = _clock()
        if not bounds:
            self.last_stats = self._stats(0, (), _clock() - t0)
            return out
        if self.mode == "serial":
            traces = self._run_serial(q, out, bounds, t0)
        else:
            traces = self._run_overlap(q, out, bounds, t0)
        t_end = _clock()
        self.last_stats = self._stats(n, tuple(traces), t_end - t0)
        rec = obs.active
        if rec.enabled:
            self.last_stats.record_to(rec)
            rec.span_at("stream.run", t0, t_end, cat="stream",
                        mode=self.mode, n=n, batches=len(traces))
        return out

    def _stats(
        self, n: int, traces: Tuple[BatchTrace, ...], wall: float
    ) -> StreamStats:
        return StreamStats(
            mode=self.mode,
            n_queries=n,
            n_batches=len(traces),
            batch_size=self.batch_size,
            depth=self.depth,
            sort_workers=self.sort_workers,
            bits_sorted=self.bits,
            wall_s=wall,
            cpu_count=os.cpu_count() or 1,
            traces=traces,
        )

    # ---------------------------------------------------------------- stages

    def _sort_batch(self, q: np.ndarray, bi: int, s: int, e: int):
        """Sort stage for batch ``bi``: partial argsort + gather into the
        slot's issued buffer.  Runs on a worker thread in overlap mode —
        it reads only ``q`` (shared, immutable here) and writes only slot
        ``bi % depth``, which no other in-flight batch can own."""
        t_s = _clock()
        bn = e - s
        issued = self._issued[bi % self.depth]
        if self.bits > 0 and bn > 1:
            res = partial_radix_argsort(
                q[s:e], bits=self.bits, key_bits=self.key_bits
            )
            order = res.order
            np.take(q[s:e], order, out=issued[:bn])
            passes = res.passes
        else:
            order = None
            issued[:bn] = q[s:e]
            passes = 0
        # The thread ident travels with the result so the consuming thread
        # can file this sort span on the worker's trace track.
        return bi, order, passes, t_s, _clock(), threading.get_ident()

    def _consume(
        self,
        sorted_batch,
        bounds,
        out: np.ndarray,
        traces: List[BatchTrace],
        t0: float,
    ) -> None:
        """Traverse + ordered delivery of one sorted batch (main thread)."""
        bi, order, passes, t_s, t_e, sort_tid = sorted_batch
        s, e = bounds[bi]
        bn = e - s
        issued = self._issued[bi % self.depth][:bn]
        values = self._values[bi % self.depth][:bn]
        tr_s = _clock()
        if self._tiler is not None:
            self._tiler.run(issued, out=values, overlay=self._overlay)
        else:
            self.engine.execute(issued, out=values, overlay=self._overlay)
        tr_e = _clock()
        view = out[s:e]
        if order is None:
            view[:] = values
        else:
            view[order] = values  # direct scatter: arrival order, one store
        sc_e = _clock()
        rec = obs.active
        if rec.enabled:
            rec.counter("stream.batches")
            rec.counter("stream.queries", bn)
            rec.counter("stream.sort_passes", passes)
            rec.histogram("stream.sort_s", t_e - t_s)
            rec.histogram("stream.traverse_s", tr_e - tr_s)
            rec.histogram("stream.scatter_s", sc_e - tr_e)
            # Spans come from the already-measured stage timestamps — no
            # extra timing work on the hot path, and the sort span lands on
            # its worker thread's track so the §4.1.3 overlap is visible.
            rec.span_at("stream.sort", t_s, t_e, cat="stream",
                        tid=sort_tid, batch=bi, passes=passes)
            rec.span_at("stream.traverse", tr_s, tr_e, cat="stream",
                        batch=bi, n=bn)
            rec.span_at("stream.scatter", tr_e, sc_e, cat="stream", batch=bi)
        traces.append(
            BatchTrace(
                index=bi,
                n=bn,
                sort_start=t_s - t0,
                sort_end=t_e - t0,
                traverse_start=tr_s - t0,
                traverse_end=tr_e - t0,
                scatter_start=tr_e - t0,
                scatter_end=sc_e - t0,
                sort_passes=passes,
            )
        )

    def _run_serial(self, q, out, bounds, t0) -> List[BatchTrace]:
        traces: List[BatchTrace] = []
        for bi, (s, e) in enumerate(bounds):
            self._consume(self._sort_batch(q, bi, s, e), bounds, out, traces, t0)
        return traces

    def _run_overlap(self, q, out, bounds, t0) -> List[BatchTrace]:
        """Double-buffered loop: at most ``depth - 1`` sorts run ahead of
        the batch being traversed, so batch ``j``'s slot (``j % depth``)
        is free by the time its sort is submitted."""
        traces: List[BatchTrace] = []
        nb = len(bounds)
        lookahead = self.depth - 1
        pool = self._sort_pool()
        pending = deque(
            pool.submit(self._sort_batch, q, j, *bounds[j])
            for j in range(min(lookahead, nb))
        )
        next_submit = len(pending)
        rec = obs.active
        for bi in range(nb):
            fut = pending.popleft()
            # Refill the lookahead window *before* blocking: the sort
            # of batch bi + depth - 1 runs under bi's traversal.
            if next_submit < nb:
                pending.append(
                    pool.submit(
                        self._sort_batch, q, next_submit, *bounds[next_submit]
                    )
                )
                next_submit += 1
            if rec.enabled:
                rec.histogram("stream.queue_depth", len(pending))
            self._consume(fut.result(), bounds, out, traces, t0)
        return traces


__all__ = [
    "STREAM_MODES",
    "DEFAULT_STREAM_BATCH",
    "BatchTrace",
    "StreamStats",
    "StreamExecutor",
]
