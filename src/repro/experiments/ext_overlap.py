"""Extension — §4.1.3's hiding condition, measured per batch.

The paper hides PSA's sort cost by overlapping the CPU sort of the next
query batch with the GPU kernel of the current one (§4.1.3): in steady
state only the longer stage is on the critical path, so the sort is free
whenever it fits under the traversal.  This host reproduction has no
device to overlap with, so it *measures* the condition and *models* the
overlap: the streaming executor
(:class:`repro.core.stream.StreamExecutor`) runs each batch's sort,
traverse and scatter back to back on one thread and traces every stage;
the experiment reports

* the measured per-batch stage times over the steady batches (the first
  batch, the pipeline fill, is dropped) — medians, so one slow batch
  cannot decide the result;
* the hiding condition judged on the median steady batch — its sort /
  traverse ratio is at most 1;
* model output: :mod:`repro.gpusim.pipeline`'s ``serial`` and
  ``double_buffer`` totals evaluated on the measured steady means (sort ↦
  H2D, traverse ↦ kernel, scatter ↦ D2H).

An earlier version also ran the sort on a background thread and required
that overlapped run to cost at most 15% + 1 ms over serial; on a 2-vCPU
host it measured 0.95–1.03× serial, the thread was removed, and that
criterion went with it.
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
    *recorded* run — after the timed loop, so recording overhead never
    touches the measured row — and writes the obs snapshot plus the
    Chrome trace of the per-batch stage timeline there."""
    sc = resolve_scale(scale)
    n_keys = scaled_tree_sizes(sc)[-1]
    tree, keys, queries = build_eval_point(n_keys, sc.n_queries, seed)
    layout = tree.layout
    # 16 batches: 15 steady ones at every scale.
    batch = max(1 << 10, sc.n_queries // 16)

    result = ExperimentResult(
        experiment="ext_overlap",
        title="Streaming stage times and §4.1.3's hiding condition",
        scale=sc.name,
        paper_reference={
            "claim": "§4.1.3 — sorting the next batch of queries is "
            "overlapped with the current batch's processing, so the PSA "
            "sort leaves the critical path"
        },
    )

    executor = StreamExecutor(layout, batch_size=batch)
    with gc_paused():
        out = executor.run(queries)  # warm the slot and the packed leaves
        st = executor.last_stats
        for _ in range(4):  # best of 4 by wall clock
            out = executor.run(queries)
            if executor.last_stats.wall_s < st.wall_s:
                st = executor.last_stats
    identical = bool(np.array_equal(out, tree.search_batch(queries)))
    steady = st.traces[1:]
    sort_ms = np.median([t.sort_s for t in steady]) * 1e3
    trav_ms = np.median([t.traverse_s for t in steady]) * 1e3
    scat_ms = np.median([t.scatter_s for t in steady]) * 1e3
    ratio = float(np.median([t.sort_s / t.traverse_s for t in steady]))
    result.add_row(
        n_batches=st.n_batches,
        steady_batches=len(steady),
        batch_size=st.batch_size,
        bits_sorted=st.bits_sorted,
        cpu_count=st.cpu_count,
        identical=identical,
        wall_ms=round(st.wall_s * 1e3, 2),
        median_sort_ms=round(float(sort_ms), 3),
        median_traverse_ms=round(float(trav_ms), 3),
        median_scatter_ms=round(float(scat_ms), 3),
        median_sort_traverse_ratio=round(ratio, 3),
        sort_hidden=ratio <= 1.0,
        model_serial_ms=round(st.model_total_s("serial") * 1e3, 2),
        model_db_ms=round(st.model_total_s("double_buffer") * 1e3, 2),
    )
    if trace_out is not None:
        import os

        import repro.obs as obs
        from repro.obs.export import write_chrome_trace, write_snapshot

        with obs.recording() as rec:
            traced = StreamExecutor(layout, batch_size=batch).run(queries)
        assert np.array_equal(traced, out)
        os.makedirs(trace_out, exist_ok=True)
        write_snapshot(rec.snapshot(),
                       os.path.join(trace_out, "ext_overlap.snapshot.json"))
        write_chrome_trace(rec,
                           os.path.join(trace_out, "ext_overlap.trace.json"))
        result.note(f"obs snapshot + Chrome trace written to {trace_out}")
    result.note(
        "model_serial_ms / model_db_ms are model output (gpusim.pipeline "
        "formulas on the measured steady stage means), not measurements; "
        "wall_ms is measured and tracks the serial model"
    )
    result.note(
        "shape criteria: results bit-identical to search_batch; the median "
        "steady batch hides its sort (sort/traverse <= 1, §4.1.3); the "
        "double-buffer model never exceeds the serial model.  The old "
        "'overlap <= 1.15x serial + 1 ms' criterion left with the "
        "background-sort mode it compared"
    )
    return result


def shape_ok(result: ExperimentResult) -> bool:
    (row,) = result.rows
    return (
        row["identical"]
        and row["sort_hidden"]
        and row["model_db_ms"] <= row["model_serial_ms"] + 1e-9
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
