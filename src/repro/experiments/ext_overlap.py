"""Extension — §4.1.3's sort/traverse overlap, measured against the model.

The paper hides PSA's sort cost by overlapping the CPU sort of the next
query batch with the kernel of the current one (§4.1.3); the repo's
:mod:`repro.gpusim.pipeline` has modeled that double-buffering analytically
since PR 0.  This experiment runs the *actual* streaming executor
(:class:`repro.core.stream.StreamExecutor`) in its ``serial`` and
``overlap`` modes over the same traffic and puts three numbers side by
side per mode:

* measured wall clock;
* the pipeline model's ``serial`` and ``double_buffer`` totals evaluated
  on the *measured* steady-state stage times (sort ↦ H2D, traverse ↦
  kernel, scatter ↦ D2H);
* the hiding condition itself — steady-state sort ≤ steady-state traverse
  per batch, which is what makes the overlap free on a multicore host.

On a single-CPU host (the container this repo grows in has one) the two
stages time-share, so overlap mode cannot beat serial by more than
measurement noise — the model rows make that legible: ``double_buffer``
only pulls ahead of ``serial`` by ``min(sort, traverse)`` per batch, and
with one core the executor's wall tracks the *serial* model in both modes.
The shape check therefore asserts the honest invariants (sort is hidden,
the model orders correctly, overlap adds no real overhead and loses
nothing) rather than a speedup the hardware cannot produce.
"""

from __future__ import annotations

import numpy as np

from repro.core.stream import StreamExecutor
from repro.experiments.common import (
    ExperimentResult,
    build_eval_point,
    gc_paused,
    resolve_scale,
)
from repro.workloads.datasets import scaled_tree_sizes


def run(scale="default", seed: int = 0,
        trace_out: str = None) -> ExperimentResult:
    """``trace_out`` (a directory path) additionally captures one
    *recorded* overlap run — after the timed loops, so recording overhead
    never touches the measured rows — and writes the obs snapshot plus the
    Chrome trace of the §4.1.3 timeline there."""
    sc = resolve_scale(scale)
    n_keys = scaled_tree_sizes(sc)[-1]
    tree, keys, queries = build_eval_point(n_keys, sc.n_queries, seed)
    layout = tree.layout
    batch = max(1 << 13, sc.n_queries // 4)

    result = ExperimentResult(
        experiment="ext_overlap",
        title="Streaming sort/traverse overlap vs the pipeline model",
        scale=sc.name,
        paper_reference={
            "claim": "§4.1.3 — sorting the next batch of queries is "
            "overlapped with the current batch's processing, so the PSA "
            "sort leaves the critical path"
        },
    )

    reference = None
    for mode in ("serial", "overlap"):
        executor = StreamExecutor(layout, batch_size=batch, mode=mode)
        with gc_paused():
            out = executor.run(queries)  # warm slot buffers + packed leaves
            st = executor.last_stats
            for _ in range(4):  # best of 4: thread scheduling is noisy
                out = executor.run(queries)
                if executor.last_stats.wall_s < st.wall_s:
                    st = executor.last_stats
        if reference is None:
            reference = out.copy()
        else:
            assert np.array_equal(out, reference)
        result.add_row(
            mode=mode,
            n_batches=st.n_batches,
            batch_size=st.batch_size,
            bits_sorted=st.bits_sorted,
            cpu_count=st.cpu_count,
            wall_ms=round(st.wall_s * 1e3, 2),
            steady_sort_ms=round(st.steady_sort_s * 1e3, 3),
            steady_traverse_ms=round(st.steady_traverse_s * 1e3, 3),
            steady_scatter_ms=round(st.steady_scatter_s * 1e3, 3),
            sort_hidden=st.sort_hidden,
            overlapped_ms=round(st.overlapped_s * 1e3, 3),
            occupancy=round(st.occupancy, 3),
            model_serial_ms=round(st.model_total_s("serial") * 1e3, 2),
            model_db_ms=round(st.model_total_s("double_buffer") * 1e3, 2),
        )
    if trace_out is not None:
        import os

        import repro.obs as obs
        from repro.obs.export import write_chrome_trace, write_snapshot

        executor = StreamExecutor(layout, batch_size=batch, mode="overlap")
        with obs.recording() as rec:
            traced = executor.run(queries)
        assert np.array_equal(traced, reference)
        os.makedirs(trace_out, exist_ok=True)
        write_snapshot(rec.snapshot(),
                       os.path.join(trace_out, "ext_overlap.snapshot.json"))
        write_chrome_trace(rec,
                           os.path.join(trace_out, "ext_overlap.trace.json"))
        result.note(f"obs snapshot + Chrome trace written to {trace_out}")
    result.note(
        "shape criteria: both modes agree bit-for-bit; steady-state sort "
        "fits under the traversal (the §4.1.3 hiding condition); the "
        "double-buffer model never exceeds the serial model; overlap mode "
        "costs at most 15% + 1ms over serial in wall clock (the "
        "thread-scheduling tax on one core; ahead on multicore)"
    )
    return result


def shape_ok(result: ExperimentResult) -> bool:
    by_mode = {r["mode"]: r for r in result.rows}
    serial, overlap = by_mode["serial"], by_mode["overlap"]
    return (
        overlap["sort_hidden"]
        and all(r["model_db_ms"] <= r["model_serial_ms"] + 1e-9 for r in result.rows)
        and overlap["wall_ms"] <= serial["wall_ms"] * 1.15 + 1.0
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
