"""Bounded-memory tile scheduler — the FPGA level-wise discipline on host.

The level-wise FPGA batch-search paper (PAPERS.md) processes a huge
query batch through a B+tree one level at a time in fixed-size tiles so
the on-chip footprint is O(tile), not O(batch).  The host analog: the
engine's scratch pools are shape-sticky
(:class:`~repro.core.engine.EngineScratch`), so driving a 2^22-query
batch through the engine in 2^16-query tiles keeps its lookup buffers
(the miss mask) at tile size.  Each tile reads its slice of the caller's
query array and writes its slice of the output in place, so only those
two caller-owned arrays are batch-sized; the resident working set is the
engine scratch, and :class:`TileScheduler` *measures* that peak
(``stream.tile_peak_bytes``) instead of estimating it.

The scheduler bounds memory for unbounded probe streams:
:func:`repro.join.merge_join` drives its probe stream through it, and
:meth:`repro.core.tree.HarmoniaTree.search_sorted_many` does when given
``tile=``.  A streaming-executor batch is already bounded by
``SearchConfig.stream_batch``, so the stream does not tile.

Imports are deliberately shallow (engine/constants/errors/obs only).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.constants import VALUE_DTYPE
from repro.core.engine import BatchQueryEngine, ensure_ascending
from repro.errors import ConfigError
from repro.utils.validation import ensure_key_array

_clock = time.perf_counter

#: Default tile: 2^16 queries (64 KB of engine scratch) — large enough
#: that per-tile engine dispatch amortizes, small enough that a
#: 2^22-query batch runs in 64 tiles of O(tile) scratch.
DEFAULT_TILE_SIZE = 1 << 16


@dataclass(frozen=True)
class TileConfig:
    """Shape of the bounded-memory schedule: ``tile_size`` is the
    per-tile query count (the O(tile) unit)."""

    tile_size: int = DEFAULT_TILE_SIZE

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ConfigError(
                f"tile_size must be >= 1, got {self.tile_size}"
            )


class TileScheduler:
    """Drive batches through one engine tile by tile.

    Each tile runs the engine on its slice of the queries with the
    matching output slice as ``out=``, so the engine's shape-sticky
    scratch stays tile-sized across the whole batch.
    ``last_peak_bytes`` reports the measured peak engine scratch of the
    last :meth:`run`.
    """

    def __init__(
        self,
        engine: BatchQueryEngine,
        tile: Optional[TileConfig] = None,
    ) -> None:
        if not isinstance(engine, BatchQueryEngine):
            raise ConfigError("TileScheduler needs a BatchQueryEngine")
        self.engine = engine
        self.tile = tile or TileConfig()
        self.last_peak_bytes = 0
        self.last_tiles = 0

    def run(
        self,
        queries,
        out: Optional[np.ndarray] = None,
        overlay=None,
        hinted: bool = False,
    ) -> np.ndarray:
        """Resolve ``queries`` tile-by-tile; identical values to one
        whole-batch :meth:`~repro.core.engine.BatchQueryEngine.execute`
        (or ``execute_hinted`` when ``hinted=True`` — the batch must
        then be ascending, which every tile slice of an ascending batch
        is).  The engine's :attr:`~repro.core.engine.BatchQueryEngine.
        last_stats` then describe the last tile.  ``overlay`` is applied
        per tile: it is elementwise by key, so tiling commutes with it.
        """
        rec = obs.active
        t_start = _clock() if rec.enabled else 0.0
        q = ensure_key_array(np.asarray(queries), "queries")
        if hinted:
            ensure_ascending(q)
        nq = q.size
        if out is None:
            values = np.empty(nq, dtype=VALUE_DTYPE)
        else:
            if out.shape != (nq,) or out.dtype != np.dtype(VALUE_DTYPE):
                raise ConfigError(
                    f"out must be shape ({nq},) dtype "
                    f"{np.dtype(VALUE_DTYPE)}, got shape {out.shape} "
                    f"dtype {out.dtype}"
                )
            values = out
        ts = self.tile.tile_size
        n_tiles = -(-nq // ts) if nq else 0
        # The batch is validated once above; each tile goes straight to
        # the engine's lookup kernel.
        engine = self.engine
        model = (hinted, True if hinted else None, None)
        peak = 0
        for s in range(0, nq, ts):
            e = min(s + ts, nq)
            engine._lookup(q[s:e], values[s:e], overlay, model)
            peak = max(peak, engine.scratch_nbytes)
        self.last_peak_bytes = int(peak)
        self.last_tiles = n_tiles
        if rec.enabled:
            rec.counter("stream.tiles", n_tiles)
            rec.gauge("stream.tile_peak_bytes", float(peak))
            rec.span_at(
                "stream.tile_run", t_start, _clock(), cat="stream",
                nq=nq, tiles=n_tiles, tile_size=ts, hinted=hinted,
            )
        return values


__all__ = ["TileConfig", "TileScheduler", "DEFAULT_TILE_SIZE"]
