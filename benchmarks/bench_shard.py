"""Shard bench — the multi-process sharded service tier vs the
single-process update+query path.

Two entry points:

* pytest-benchmark tests (``pytest benchmarks/bench_shard.py
  --benchmark-only``) timing one query batch and one paper-mix update
  batch through a 2-worker :class:`~repro.shard.ShardedTree`;
* a standalone emitter (``python benchmarks/bench_shard.py [--quick]``)
  that times a mixed search+update workload through the single-process
  path and through 2- and 4-worker sharded trees, and writes
  ``BENCH_shard.json`` at the repo root.

The acceptance criterion (>= 1.5x over single-process) is measured on
the host that runs the emitter and recorded as measured, ``ok: false``
included.  The record also carries ``cpu_count``, ``core_limited``
(fewer than 4 cores, where workers time-share the CPUs and fan-out
cannot beat one process) and the routing overhead (scatter + gather
spans) from a recorded run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core import HarmoniaTree
from repro.shard import ShardedTree
from repro.workloads.generators import make_key_set, uniform_queries
from repro.workloads.mixes import PAPER_UPDATE_MIX, make_update_batch
from benchmarks.conftest import BENCH_SCALE


# --------------------------------------------------------- pytest-benchmark


@pytest.fixture(scope="module")
def sharded_tree(bench_keys):
    tree = ShardedTree.from_sorted(bench_keys, n_shards=2, fanout=64,
                                   fill=0.7)
    yield tree
    tree.close()


def test_shard_search(benchmark, sharded_tree, bench_queries):
    res = benchmark.pedantic(
        lambda: sharded_tree.search_many(bench_queries),
        rounds=3, iterations=1,
    )
    benchmark.extra_info["queries"] = int(bench_queries.size)
    benchmark.extra_info["n_shards"] = 2
    assert res.size == bench_queries.size


def test_shard_apply(benchmark, sharded_tree, bench_keys):
    ops = make_update_batch(bench_keys, BENCH_SCALE.update_batch,
                            mix=PAPER_UPDATE_MIX, rng=92)
    res = benchmark.pedantic(
        lambda: sharded_tree.apply_batch(ops), rounds=3, iterations=1
    )
    benchmark.extra_info["ops"] = len(ops)
    benchmark.extra_info["n_shards"] = 2
    # Later rounds re-apply the same batch to the mutated tree, so some
    # inserts legitimately fail; the accounting must still add up.
    assert res.inserted + res.updated + res.deleted + res.failed == len(ops)


# ------------------------------------------------------------ JSON emitter


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _workload(keys, batch_log2, seed):
    queries = uniform_queries(keys, 1 << batch_log2, rng=seed)
    ops = make_update_batch(keys, 1 << batch_log2, mix=PAPER_UPDATE_MIX,
                            rng=seed + 1)
    return queries, ops


def _single_round(keys, queries, ops):
    """One single-process round: query batch then update batch, the same
    work the router fans out.  A fresh tree per call keeps rounds
    independent (apply_batch swaps the layout in place)."""
    tree = HarmoniaTree.from_sorted(keys, fanout=64, fill=0.7)

    def run():
        tree.search_many(queries)
        tree.apply_batch(ops)

    return run


def measure(tree_log2: int, batch_log2: int, n_shards: int,
            seed: int = 1234, reps: int = 3) -> dict:
    """One sweep point: the mixed workload through ``n_shards`` workers
    (1 means the in-process, unsharded path)."""
    keys = make_key_set(1 << tree_log2, rng=seed)
    queries, ops = _workload(keys, batch_log2, seed + 7)

    if n_shards == 1:
        t = _best_of(lambda: _single_round(keys, queries, ops)(), reps)
    else:
        def one_round():
            with ShardedTree.from_sorted(keys, n_shards=n_shards,
                                         fanout=64, fill=0.7) as st:
                t0 = time.perf_counter()
                st.search_many(queries)
                st.apply_batch(ops)
                return time.perf_counter() - t0

        # Spawn/load happens outside the timed region: the service tier
        # is long-lived, so steady-state rounds are what we compare.
        t = min(one_round() for _ in range(reps))
    n_items = 2 * (1 << batch_log2)
    return {
        "tree_log2": tree_log2,
        "batch_log2": batch_log2,
        "n_shards": n_shards,
        "time_s": round(t, 6),
        "kops": round(n_items / t / 1e3, 1),
    }


def _routing_overhead(tree_log2: int, batch_log2: int, n_shards: int,
                      seed: int = 1234) -> dict:
    """One *recorded* sharded round — outside the timed loops — returning
    the scatter/gather span totals (the router-side serial work that a
    multi-core host cannot hide) plus the full metrics snapshot."""
    import repro.obs as obs
    from repro.obs.schema import validate_snapshot

    keys = make_key_set(1 << tree_log2, rng=seed)
    queries, ops = _workload(keys, batch_log2, seed + 7)
    with ShardedTree.from_sorted(keys, n_shards=n_shards, fanout=64,
                                 fill=0.7) as st:
        with obs.recording() as rec:
            st.search_many(queries)
            st.apply_batch(ops)
        snapshot = rec.snapshot()
        spans = rec.spans()
    problems = validate_snapshot(snapshot)
    if problems:
        raise AssertionError(f"bench metrics failed validation: {problems}")
    # SpanRecord = (name, cat, start_s, end_s, track, depth, args)
    route_s = sum(
        end - start for name, _, start, end, *_ in spans
        if name in ("shard.scatter", "shard.gather")
    )
    # Recording also turns tracing on, so the snapshot carries the merged
    # ``shard[i].*`` worker metrics and one process lane per worker.
    counters = snapshot.get("counters", {})
    tracing = {
        "process_lanes": 1 + len(rec.remote_processes()),
        "requests": int(counters.get("trace.requests", 0)),
        "spans_merged": int(counters.get("trace.spans_merged", 0)),
    }
    return {"route_s": round(route_s, 6), "snapshot": snapshot,
            "tracing": tracing}


def main(out_path: str = None, smoke: bool = False) -> dict:
    tree_log2, batch_log2 = (16, 12) if smoke else (18, 14)
    shard_counts = (1, 2) if smoke else (1, 2, 4)
    rows = [measure(tree_log2, batch_log2, n) for n in shard_counts]
    single = rows[0]
    best_sharded = min(rows[1:], key=lambda r: r["time_s"])
    speedup = round(single["time_s"] / best_sharded["time_s"], 2)

    overhead = _routing_overhead(tree_log2, batch_log2,
                                 best_sharded["n_shards"])
    cpu_count = os.cpu_count() or 1

    record = {
        "bench": "shard",
        "workload": "uniform query batch + paper-mix update batch "
        f"(2^{batch_log2} each) on a 2^{tree_log2}-key tree, fanout 64",
        "cpu_count": cpu_count,
        "acceptance": {
            "criterion": "sharded service >= 1.5x the single-process "
            "update+query path, measured on this host",
            "speedup": speedup,
            "ok": speedup >= 1.5,
            "core_limited": cpu_count < 4,
            "route_overhead_s": overhead["route_s"],
            "note": (
                f"on this {cpu_count}-CPU host the workers time-share "
                "the cores, so fan-out cannot beat a single process; the "
                "measured ratio is transport and routing overhead."
            ) if cpu_count < 4 else (
                "measured on a multi-core host; workers run on their "
                "own cores."
            ),
        },
        "rows": rows,
        "tracing": overhead["tracing"],
        "metrics": overhead["snapshot"],
    }
    path = pathlib.Path(
        out_path or pathlib.Path(__file__).parent.parent / "BENCH_shard.json"
    )
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path}")
    print(json.dumps(record["acceptance"], indent=2))
    return record


if __name__ == "__main__":  # pragma: no cover
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", "--smoke", dest="smoke", action="store_true",
                    help="single small sweep point (CI)")
    ap.add_argument("--out", default=None)
    ns = ap.parse_args()
    main(ns.out, smoke=ns.smoke)
