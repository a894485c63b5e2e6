"""Extension — dual-tree merge-join: hinted walk vs per-key probing.

JZ-tree's dual tree walks (PAPERS.md) join two trees by descending both
at once and pruning subtree pairs whose key ranges cannot overlap.  The
Harmonia analog (:func:`repro.join.merge_join`, docs/join.md) flattens
that recursion into level order: ``tree_a``'s leaf region is already the
sorted probe stream.  On the host the probes resolve with one binary
search over ``tree_b``'s packed leaf block
(:meth:`~repro.core.engine.BatchQueryEngine.execute_hinted`); the work
model of that batch is the hinted walk a GPU kernel would run, carrying
a frontier of (node, lower-bound) pairs down ``tree_b`` and skipping
every subtree no probe lands in.

This experiment joins a probe tree against build trees of varying
overlap and puts three quantities side by side per workload:

* measured host wall clock of the join vs the same probe stream in
  arrival order through per-key ``search_many`` (PSA, lookup, restore);
* the work model's per-level distinct-node counts
  (:func:`~repro.core.engine.traversal_profile`) — the pruning made
  visible (disjoint key ranges ⇒ frontier collapses to one path);
* the dual-walk kernel model's transaction accounting
  (:func:`repro.gpusim.simulate_dual_walk`): probe-side sequential leaf
  scan + hinted descent vs the simulated per-key kernel.

Joins are verified byte-identical to the numpy sort-merge reference on
every row before any timing is reported.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.tree import HarmoniaTree
from repro.experiments.common import (
    ExperimentResult,
    build_eval_point,
    resolve_scale,
)
from repro.gpusim import simulate_dual_walk
from repro.join import merge_join, sort_merge_reference
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
    rng = np.random.default_rng(seed)

    tree_b, keys_b, _ = build_eval_point(n_keys, sc.n_queries, seed)
    space = int(keys_b.max()) + 1

    result = ExperimentResult(
        experiment="ext_join",
        title="Dual-tree merge-join: hinted walk vs per-key probing",
        scale=sc.name,
        paper_reference={
            "claim": "beyond the paper — JZ-tree dual walks: joining two "
            "trees prunes every subtree pair whose key ranges are "
            "disjoint; the work model of the engine's hinted probe path is "
            "that prune in level order"
        },
    )

    workloads = (
        ("overlapping", keys_b[rng.random(keys_b.size) < 0.5]),
        ("interleaved", np.unique(rng.integers(0, space, n_keys // 2))),
        ("disjoint", np.arange(space, space + n_keys // 4, dtype=np.int64)),
    )
    for name, keys_a in workloads:
        tree_a = HarmoniaTree.from_sorted(
            keys_a, keys_a % 1009 + 1, fanout=tree_b.fanout
        )
        res = merge_join(tree_a, tree_b, mode="inner")
        ref = sort_merge_reference(
            tree_a._merged_items(), tree_b._merged_items(), "inner"
        )
        assert np.array_equal(res.keys, ref.keys)
        assert np.array_equal(res.values_b, ref.values_b)

        hinted_s = _best_of(
            lambda: merge_join(tree_a, tree_b, mode="inner")
        )
        probe_keys = tree_a._merged_items()[0]
        naive_s = _best_of(lambda: tree_b.search_many(probe_keys))
        stats = tree_b.last_engine_stats  # hinted run rebinds after this
        merge_join(tree_a, tree_b, mode="inner")
        hstats = tree_b.last_engine_stats

        model = simulate_dual_walk(tree_a.layout, tree_b.layout)
        result.add_row(
            workload=name,
            n_probes=res.n_probes,
            selectivity=round(res.selectivity, 4),
            hinted_ms=round(hinted_s * 1e3, 3),
            naive_ms=round(naive_s * 1e3, 3),
            speedup=round(naive_s / hinted_s, 3),
            hinted_node_reads=hstats.total_node_reads,
            naive_node_reads=stats.total_node_reads,
            frontier_per_level=[
                int(u) for u in hstats.unique_nodes_per_level
            ],
            model_dualwalk_tx=model.total_transactions,
            model_naive_tx=model.naive_transactions,
            model_tx_speedup=round(model.transaction_speedup, 3),
        )

    if trace_out is not None:
        import os

        import repro.obs as obs
        from repro.obs.export import write_chrome_trace, write_snapshot

        tree_a = HarmoniaTree.from_sorted(
            workloads[0][1], None, fanout=tree_b.fanout
        )
        with obs.recording() as rec:
            merge_join(tree_a, tree_b, mode="inner")
        os.makedirs(trace_out, exist_ok=True)
        write_snapshot(rec.snapshot(),
                       os.path.join(trace_out, "ext_join.snapshot.json"))
        write_chrome_trace(rec,
                           os.path.join(trace_out, "ext_join.trace.json"))
        result.note(f"obs snapshot + Chrome trace written to {trace_out}")

    result.note(
        "shape criteria: every join byte-identical to the sort-merge "
        "reference; the hinted walk reads no more nodes than the naive "
        "path on every workload; the disjoint join's frontier collapses "
        "to one path per level (total subtree prune); the dual-walk "
        "kernel model prices fewer transactions than per-key probing"
    )
    return result


def shape_ok(result: ExperimentResult) -> bool:
    by = {r["workload"]: r for r in result.rows}
    disjoint = by["disjoint"]
    return (
        all(r["hinted_node_reads"] <= r["naive_node_reads"]
            for r in result.rows)
        and all(f <= 1 for f in disjoint["frontier_per_level"][:-1])
        and all(r["model_tx_speedup"] > 1.0 for r in result.rows)
    )


if __name__ == "__main__":  # pragma: no cover
    run().print()
