"""Figure 14 — batch update throughput: Harmonia vs HB+tree.

Paper: with a 5%-insert / 95%-update mix in 4096K-operation batches,
Harmonia's CPU batch update (auxiliary nodes + deferred movement) averages
≈70% of HB+tree's update throughput — "acceptable" because the query phase
dominates the scenario (read/write ≈ 35:1 in TPC-H, §3.2).

Both pipelines here are real executions (wall clock), not model numbers.
Harmonia's side is the production write (:meth:`HarmoniaTree.apply_batch`:
resolve the batch, merge it into the next packed leaf block); ``n_threads``
sizes only the HB+tree baseline's worker pool.
"""

from __future__ import annotations

import time

from repro.baselines.hbtree import HBTree
from repro.core import HarmoniaTree
from repro.experiments.common import ExperimentResult, geomean, resolve_scale
from repro.workloads.datasets import scaled_tree_sizes
from repro.workloads.generators import make_key_set
from repro.workloads.mixes import PAPER_UPDATE_MIX, make_update_batch


def run(scale="default", seed: int = 0, n_threads: int = 4) -> ExperimentResult:
    sc = resolve_scale(scale)
    result = ExperimentResult(
        experiment="fig14",
        title="Batch update throughput (5% insert / 95% update)",
        scale=sc.name,
        paper_reference={"harmonia_vs_hb": "≈0.7x", "absolute": "tens of Mops/s on a 28-core Xeon"},
    )
    ratios = []
    for n_keys in scaled_tree_sizes(sc):
        keys = make_key_set(n_keys, rng=seed)
        ops = make_update_batch(
            keys, sc.update_batch, mix=PAPER_UPDATE_MIX, rng=seed + 1
        )

        tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)
        t0 = time.perf_counter()
        res = tree.apply_batch(ops)
        harmonia_s = time.perf_counter() - t0
        tree.check_invariants()

        hb = HBTree.from_sorted(keys, fanout=64, fill=0.7)
        counts = hb.apply_batch(ops, n_threads=n_threads)
        hb_s = counts["total_s"]

        ha_tp = len(ops) / harmonia_s
        hb_tp = len(ops) / hb_s
        ratios.append(ha_tp / hb_tp)
        result.add_row(
            log2_tree_size=n_keys.bit_length() - 1,
            batch_ops=len(ops),
            harmonia_mops=round(ha_tp / 1e6, 3),
            hb_mops=round(hb_tp / 1e6, 3),
            ratio=round(ha_tp / hb_tp, 2),
            harmonia_apply_s=round(res.timer.get("apply"), 4),
            harmonia_movement_s=round(res.timer.get("movement"), 4),
            hb_sync_s=round(counts["sync_s"], 4),
        )
    result.note(f"geomean throughput ratio: {geomean(ratios):.2f}x")
    result.note(
        "shape criterion: Harmonia comparable to HB+ — geomean ratio >= "
        "0.45 and no size below 0.25 (paper: 0.7x; both pipelines here are "
        "wall-clock measurements, so per-size ratios carry timing noise)"
    )
    return result


def shape_ok(result: ExperimentResult) -> bool:
    ratios = [r["ratio"] for r in result.rows]
    return geomean(ratios) >= 0.45 and min(ratios) >= 0.25


if __name__ == "__main__":  # pragma: no cover
    run().print()
