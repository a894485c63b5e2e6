"""Streaming query executor — §4.1.3's batch pipeline, run serially.

PSA (§4.1) buys coalesced traversals by spending CPU time sorting the top
``N`` bits of each query batch, and the paper is explicit about where that
cost goes: "the sorting of the next batch of queries can be overlapped with
the current query batch processing" (§4.1.3) — the sort runs on the host
while the *device* traverses the previous batch, so in steady state only
the longer of the two stages is on the critical path.

This host reproduction has no device to overlap with.  An earlier version
ran the sort of batch *i+1* on a background thread under the traversal of
batch *i*; measured on a 2-vCPU host it never paid (0.95–1.03× serial
across the bench grid; 130.0 vs 122.1 ms streaming 2^20 queries in
2^14-query batches, median of 15 runs), so it was removed.  The overlap survives where it is
evidence — as model output: :mod:`repro.gpusim.pipeline`'s
``double_buffer`` mode, and :meth:`StreamStats.model_total_s` applied to
the stage times measured here.

:class:`StreamExecutor` splits incoming query traffic into fixed-size
batches and runs each through three stages on the calling thread:

* **sort** — :func:`~repro.sort.radix.partial_radix_argsort` over the
  Equation-2 bits, and a gather of the batch into issue order in the slot
  buffer;
* **traverse** — the :class:`~repro.core.engine.BatchQueryEngine` lookup
  of the issued queries into the slot's value buffer (plus the per-batch
  delta overlay, when one is pinned);
* **scatter** — delivery in arrival order with one direct scatter through
  the sort permutation (``out[order] = values`` — the inverse permutation
  is never built).

One slot (issued queries + values) is allocated per executor and reused
for every batch, so memory stays O(batch) however long the stream is.

Every batch records a :class:`BatchTrace` with wall-clock intervals per
stage; :class:`StreamStats` reduces them to steady-state per-batch means,
§4.1.3's hiding condition (steady sort ≤ steady traverse), and the
:mod:`~repro.gpusim.pipeline`-shaped model totals (``sort`` playing H2D,
``traverse`` the kernel, ``scatter`` D2H).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.constants import VALUE_DTYPE
from repro.core.engine import BatchQueryEngine
from repro.core.layout import HarmoniaLayout
from repro.core.snapshot import Snapshot
from repro.core.psa import optimal_sort_bits
from repro.errors import ConfigError
from repro.sort.radix import partial_radix_argsort
from repro.utils.validation import ensure_key_array

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


@dataclass(frozen=True)
class StreamStats:
    """Execution record of one :meth:`StreamExecutor.run` call.

    Steady-state figures exclude batch 0 (the pipeline fill: its sort can
    overlap nothing), mirroring how
    :func:`repro.gpusim.pipeline.pipeline_time` separates fill/drain from
    the steady term.
    """

    n_queries: int
    n_batches: int
    batch_size: int
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
        steady-state traversal, so a device overlapping the two would take
        it off the critical path entirely."""
        return self.steady_sort_s <= self.steady_traverse_s

    # ----------------------------------------------------------- model hooks

    def model_total_s(self, mode: str) -> float:
        """Model output: the :mod:`repro.gpusim.pipeline` cost formulas
        applied to the *measured* steady per-batch stage times, with the
        host mapping sort := H2D, traverse := kernel, scatter := D2H:

        * ``serial``:        ``n · (sort + traverse + scatter)``
        * ``double_buffer``: ``sort + max(traverse, sort + scatter)·(n−1)
          + traverse + scatter``

        ``wall_s`` tracks the ``serial`` total (the executor runs its
        stages back to back); ``double_buffer`` is what §4.1.3's overlap
        would cost with the sort on another device.
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
        per-batch counters/histograms/spans as the stream runs)."""
        rec.gauge("stream.wall_s", self.wall_s)
        rec.gauge("stream.throughput_qps", self.throughput())
        trv = self.steady_traverse_s
        if trv > 0:
            rec.gauge("stream.sort_hidden_ratio", self.steady_sort_s / trv)

    def summary(self) -> dict:
        """JSON-ready digest (what the bench and experiment emit)."""
        return {
            "n_queries": self.n_queries,
            "n_batches": self.n_batches,
            "batch_size": self.batch_size,
            "bits_sorted": self.bits_sorted,
            "cpu_count": self.cpu_count,
            "wall_s": self.wall_s,
            "throughput_qps": self.throughput(),
            "steady_sort_s": self.steady_sort_s,
            "steady_traverse_s": self.steady_traverse_s,
            "steady_scatter_s": self.steady_scatter_s,
            "sort_hidden": self.sort_hidden,
            "model_serial_s": self.model_total_s("serial"),
            "model_double_buffer_s": self.model_total_s("double_buffer"),
        }


class StreamExecutor:
    """Batch-at-a-time (sort → traverse → scatter) streaming executor over
    one snapshot (or bare layout), run on the calling thread.

    Results are bit-identical to
    :meth:`~repro.core.tree.HarmoniaTree.search_batch` on the same queries
    for every batch split — batching never changes lookup results, and
    delivery scatters each batch's values straight into its slice of the
    output in arrival order.

    Not thread-safe: one ``run`` at a time per executor (the slot buffers
    and the engine scratch are reused across batches).  Concurrent streams
    each take their own executor —
    :meth:`~repro.core.tree.HarmoniaTree.search_stream` does exactly that;
    all of them share the snapshot's immutable packed leaf block.
    """

    def __init__(
        self,
        snapshot,
        batch_size: int = DEFAULT_STREAM_BATCH,
        bits: Optional[int] = None,
        use_psa: bool = True,
        keys_per_cacheline: int = 16,
    ) -> None:
        if not isinstance(snapshot, (HarmoniaLayout, Snapshot)):
            raise ConfigError(
                "StreamExecutor needs a Snapshot or a HarmoniaLayout"
            )
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")

        self.batch_size = int(batch_size)
        self.engine = BatchQueryEngine(snapshot)
        self.snapshot = snap = self.engine.snapshot

        # Equation 2 over the effective key space, exactly as
        # HarmoniaTree.prepare_queries resolves it.
        space_bits = snap.key_space_bits()
        if not use_psa:
            resolved = 0
        elif bits is not None:
            if bits < 0:
                raise ConfigError(f"bits must be >= 0, got {bits}")
            resolved = min(bits, space_bits)
        else:
            resolved = optimal_sort_bits(
                max(snap.n_keys, 1), keys_per_cacheline, key_bits=space_bits
            )
        self.bits = int(resolved)
        self.key_bits = int(space_bits)

        # The slot: every batch's issued queries and raw values.
        # Allocated once, reused stream-long.
        self._issued = np.empty(self.batch_size, dtype=np.int64)
        self._values = np.empty(self.batch_size, dtype=VALUE_DTYPE)
        self.last_stats: Optional[StreamStats] = None

    @classmethod
    def from_config(cls, snapshot, config) -> "StreamExecutor":
        """Build from a :class:`~repro.core.config.SearchConfig` — O(1):
        the packed leaf block is the snapshot's, built once however many
        executors read it."""
        return cls(
            snapshot,
            batch_size=config.stream_batch,
            bits=config.psa_bits,
            use_psa=config.use_psa,
            keys_per_cacheline=config.keys_per_cacheline,
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
        q = ensure_key_array(np.asarray(queries), "queries")
        n = q.size
        if out is None:
            out = np.empty(n, dtype=VALUE_DTYPE)
        elif out.shape != (n,) or out.dtype != np.dtype(VALUE_DTYPE):
            raise ConfigError(
                f"out must be shape ({n},) dtype {np.dtype(VALUE_DTYPE)}, "
                f"got shape {out.shape} dtype {out.dtype}"
            )
        t0 = _clock()
        traces = tuple(
            self._batch(q, bi, s, min(s + self.batch_size, n), out, overlay, t0)
            for bi, s in enumerate(range(0, n, self.batch_size))
        )
        t_end = _clock()
        self.last_stats = StreamStats(
            n_queries=n,
            n_batches=len(traces),
            batch_size=self.batch_size,
            bits_sorted=self.bits,
            wall_s=t_end - t0,
            cpu_count=os.cpu_count() or 1,
            traces=traces,
        )
        rec = obs.active
        if rec.enabled and traces:
            self.last_stats.record_to(rec)
            rec.span_at("stream.run", t0, t_end, cat="stream",
                        n=n, batches=len(traces))
        return out

    def _batch(
        self,
        q: np.ndarray,
        bi: int,
        s: int,
        e: int,
        out: np.ndarray,
        overlay,
        t0: float,
    ) -> BatchTrace:
        """Sort → traverse → scatter of batch ``bi`` (``q[s:e]``) through
        the slot, delivering into ``out[s:e]``."""
        bn = e - s
        batch = q[s:e]
        issued = self._issued[:bn]
        values = self._values[:bn]
        t_s = _clock()
        if self.bits > 0 and bn > 1:
            res = partial_radix_argsort(batch, bits=self.bits,
                                        key_bits=self.key_bits)
            order, passes = res.order, res.passes
            np.take(batch, order, out=issued)
        else:
            order, passes = None, 0
            issued[:] = batch
        tr_s = _clock()
        self.engine.execute(issued, out=values, overlay=overlay)
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
            rec.histogram("stream.sort_s", tr_s - t_s)
            rec.histogram("stream.traverse_s", tr_e - tr_s)
            rec.histogram("stream.scatter_s", sc_e - tr_e)
            # Spans come from the already-measured stage timestamps — no
            # extra timing work on the hot path.
            rec.span_at("stream.sort", t_s, tr_s, cat="stream",
                        batch=bi, passes=passes)
            rec.span_at("stream.traverse", tr_s, tr_e, cat="stream",
                        batch=bi, n=bn)
            rec.span_at("stream.scatter", tr_e, sc_e, cat="stream", batch=bi)
        return BatchTrace(
            index=bi,
            n=bn,
            sort_start=t_s - t0,
            sort_end=tr_s - t0,
            traverse_start=tr_s - t0,
            traverse_end=tr_e - t0,
            scatter_start=tr_e - t0,
            scatter_end=sc_e - t0,
            sort_passes=passes,
        )


__all__ = [
    "DEFAULT_STREAM_BATCH",
    "BatchTrace",
    "StreamStats",
    "StreamExecutor",
]
