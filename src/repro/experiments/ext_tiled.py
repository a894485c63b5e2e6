"""Extension — bounded-memory tiled batch search (FPGA discipline).

The level-wise FPGA batch-search paper (PAPERS.md) bounds on-chip memory
by processing a large batch through the tree level by level in fixed
tiles.  The host analog (:class:`repro.join.tiles.TileScheduler`,
docs/join.md) drives each tile through the engine's lookup with
recycled scratch, so the resident lookup footprint is O(tile) however
large the batch.

This experiment sweeps tile sizes over one large batch and reports, per
tile size, the *measured* peak resident footprint (engine scratch, the
``stream.tile_peak_bytes`` gauge) against the untiled engine's
whole-batch scratch, plus the throughput cost of tiling —
values pinned identical to the untiled run first.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engine import BatchQueryEngine
from repro.experiments.common import (
    ExperimentResult,
    build_eval_point,
    resolve_scale,
)
from repro.join import TileConfig, TileScheduler
from repro.workloads.datasets import scaled_tree_sizes

_clock = time.perf_counter


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = _clock()
        fn()
        best = min(best, _clock() - t0)
    return best


def run(scale="default", seed: int = 0,
        trace_out: str = None) -> ExperimentResult:
    sc = resolve_scale(scale)
    n_keys = scaled_tree_sizes(sc)[-1]
    n_queries = max(sc.n_queries, 1 << 16)
    tree, keys, queries = build_eval_point(n_keys, n_queries, seed)
    layout = tree.layout

    result = ExperimentResult(
        experiment="ext_tiled",
        title="Bounded-memory tiled batch search (level-wise FPGA "
              "discipline)",
        scale=sc.name,
        paper_reference={
            "claim": "beyond the paper — level-wise tiling: a batch of "
            "any size runs in fixed-size tiles with recycled per-tile "
            "scratch, so peak traversal memory is O(tile), not O(batch)"
        },
    )

    engine = BatchQueryEngine(layout)
    baseline = engine.execute(queries)
    untiled_s = _best_of(lambda: engine.execute(queries))
    untiled_bytes = engine.scratch_nbytes
    result.add_row(
        tile_size=0,
        tiles=1,
        peak_bytes=untiled_bytes,
        peak_ratio=1.0,
        wall_ms=round(untiled_s * 1e3, 3),
        throughput_ratio=1.0,
    )

    for shift in (12, 14, 16):
        tile = TileConfig(tile_size=1 << shift)
        sched = TileScheduler(BatchQueryEngine(layout), tile)
        out = sched.run(queries)
        assert np.array_equal(out, baseline)
        tiled_s = _best_of(lambda: sched.run(queries))
        result.add_row(
            tile_size=tile.tile_size,
            tiles=sched.last_tiles,
            peak_bytes=sched.last_peak_bytes,
            peak_ratio=round(sched.last_peak_bytes / untiled_bytes, 4),
            wall_ms=round(tiled_s * 1e3, 3),
            throughput_ratio=round(untiled_s / tiled_s, 3),
        )

    if trace_out is not None:
        import os

        import repro.obs as obs
        from repro.obs.export import write_chrome_trace, write_snapshot

        sched = TileScheduler(
            BatchQueryEngine(layout), TileConfig(tile_size=1 << 14)
        )
        with obs.recording() as rec:
            traced = sched.run(queries)
        assert np.array_equal(traced, baseline)
        os.makedirs(trace_out, exist_ok=True)
        write_snapshot(rec.snapshot(),
                       os.path.join(trace_out, "ext_tiled.snapshot.json"))
        write_chrome_trace(rec,
                           os.path.join(trace_out, "ext_tiled.trace.json"))
        result.note(f"obs snapshot + Chrome trace written to {trace_out}")

    result.note(
        "shape criteria: every tiled run byte-identical to the untiled "
        "engine; measured peak footprint shrinks monotonically with tile "
        "size and the smallest tile stays under 25% of the untiled "
        "scratch; throughput stays within 35% of untiled at the largest "
        "tile (per-tile dispatch overhead shrinks as tiles grow)"
    )
    return result


def shape_ok(result: ExperimentResult) -> bool:
    untiled = result.rows[0]
    tiled = result.rows[1:]
    peaks = [r["peak_bytes"] for r in tiled]
    return (
        untiled["peak_ratio"] == 1.0
        and peaks == sorted(peaks)
        and tiled[0]["peak_ratio"] <= 0.25
        and tiled[-1]["throughput_ratio"] >= 0.65
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
