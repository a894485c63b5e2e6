"""The repository's end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uniform_read --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/PREDICTIONS.md``):
``uniform_read`` (HarmoniaTree), ``zipf_rw_epoch`` (EpochManager,
concurrent) and ``scan_shard`` (2-shard ShardedTree).  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` runs the workload twice
for half the time each — plain, then with every public read decomposed
into timed per-layer calls — and reports the per-layer metrics.

Human-readable tables go to stdout first, untraced ones with ungated
context (fastest-tenth throughput and latencies, p50s); the last stdout
line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Each run also writes its record, with every batch latency
(and the spans when traced), under ``.perfbench/`` in the working
directory.  A run whose outputs disagree with the oracle prints
``correct: false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import numpy as np

from measure import Spans, pct, reference_rate, write_json

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(".perfbench")

WORKLOADS = ("uniform_read", "zipf_rw_epoch", "scan_shard")

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("read_mean_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("write_mean_ms", "ms"),
    ("setup_s", "s"),
    ("bytes_per_key", "bytes"),
)

PER_LAYER = (
    ("layout.build_s", "s"),
    ("layout.occupancy", "fraction"),
    ("psa.prepare_s", "s"),
    ("engine.execute_s", "s"),
    ("engine.pin_rebuild_s", "s"),
    ("engine.node_reads_per_query", "count"),
    ("engine.compaction_ratio", "ratio"),
    ("engine.broadcast_levels", "count"),
    ("epoch.pin_s", "s"),
    ("epoch.flush_s", "s"),
    ("epoch.sync_s", "s"),
    ("epoch.drains", "count"),
    ("epoch.drain_overlap_share", "fraction"),
    ("delta.overlay_s", "s"),
    ("delta.size_mean", "count"),
    ("delta.runs_mean", "count"),
    ("update.apply_s", "s"),
    ("update.split_leaves_per_op", "ratio"),
    ("shard.scatter_s", "s"),
    ("shard.request_s", "s"),
    ("shard.rtt_s", "s"),
    ("shard.worker_exec_s", "s"),
    ("shard.transport_share", "fraction"),
    ("search.range_batch_s", "s"),
    ("search.rows_per_scan", "count"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_share", "fraction"),
)

#: Timed parts of one decomposed point read, per workload.
_READ_PARTS = {
    "uniform_read": ("psa.prepare", "engine.execute"),
    "zipf_rw_epoch": ("epoch.pin", "psa.prepare", "engine.execute",
                      "delta.overlay"),
}


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def end_to_end(phase) -> dict:
    # Mean, not median, per batch: the host's speed moves in phases of
    # seconds, so batch latencies form one narrow cluster per phase and a
    # run's median jumps between clusters, while its mean moves with the
    # share of time spent in each.
    return {
        "ops_per_s": phase.ops_per_s,
        "read_mean_ms": 1e3 * _mean(phase.read_lat),
        "read_p90_ms": 1e3 * pct(phase.read_lat, 90),
        "write_mean_ms": 1e3 * _mean(phase.write_lat),
        "setup_s": statistics.median(phase.setup),
        "bytes_per_key": phase.bytes_per_key,
    }


def context(phase) -> dict:
    """Ungated figures of an untraced phase, for the printed table: the
    fastest tenth tells the code's speed apart from a slowed host."""
    return {
        "peak_ops_per_s": phase.peak_ops_per_s,
        "read_p10_ms": 1e3 * pct(phase.read_lat, 10),
        "read_p50_ms": 1e3 * pct(phase.read_lat, 50),
        "write_p10_ms": 1e3 * pct(phase.write_lat, 10),
        "write_p50_ms": 1e3 * pct(phase.write_lat, 50),
    }


def per_layer(workload: str, plain, traced) -> dict:
    """Per-layer metrics of a traced phase; ``plain`` is the untraced
    phase of the same run, the base of the trace bookkeeping."""
    sp = traced.spans
    scatter = sp.durations("shard.scatter").sum()
    execs = float(np.sum(sp.samples.get("shard.worker_exec", [])))
    requests = sp.durations("shard.request").sum()
    # Untraced public-call time against the sum of its timed parts.
    if workload == "scan_shard":
        public = plain.read_lat + plain.write_lat
        parts = sp.mean("shard.scatter") + sp.sample_mean("shard.worker_exec")
    else:
        public = plain.read_lat
        parts = sum(sp.mean(name) for name in _READ_PARTS[workload])
    public_mean = float(np.mean(public)) if public else 0.0
    builds = sp.durations("layout.build")
    return {
        "layout.build_s": float(np.median(builds)) if builds.size else 0.0,
        "layout.occupancy": traced.layer["layout.occupancy"],
        "psa.prepare_s": sp.mean("psa.prepare"),
        "engine.execute_s": sp.mean("engine.execute"),
        "engine.pin_rebuild_s": sp.sample_mean("engine.pin_rebuild_s"),
        "engine.node_reads_per_query":
            sp.sample_mean("engine.node_reads_per_query"),
        "engine.compaction_ratio": sp.sample_mean("engine.compaction_ratio"),
        "engine.broadcast_levels": sp.sample_mean("engine.broadcast_levels"),
        "epoch.pin_s": sp.mean("epoch.pin"),
        "epoch.flush_s": sp.mean("epoch.flush"),
        "epoch.sync_s": sp.mean("epoch.sync"),
        "epoch.drains": float(traced.layer.get("epoch.drains", 0)),
        "epoch.drain_overlap_share": sp.sample_mean("epoch.drain_overlap"),
        "delta.overlay_s": sp.mean("delta.overlay"),
        "delta.size_mean": sp.sample_mean("delta.size"),
        "delta.runs_mean": sp.sample_mean("delta.runs"),
        "update.apply_s": sp.mean("update.apply"),
        "update.split_leaves_per_op":
            sp.sample_mean("update.split_leaves_per_op"),
        "shard.scatter_s": sp.mean("shard.scatter"),
        "shard.request_s": sp.mean("shard.request"),
        "shard.rtt_s": sp.mean("shard.rtt"),
        "shard.worker_exec_s": sp.sample_mean("shard.worker_exec"),
        "shard.transport_share":
            1.0 - (scatter + execs) / requests if requests else 0.0,
        "search.range_batch_s": sp.mean("search.range_batch"),
        "search.rows_per_scan": sp.sample_mean("search.rows_per_scan"),
        "trace.overhead":
            traced.ops_per_s / plain.ops_per_s if plain.ops_per_s else 0.0,
        "trace.unattributed_share":
            1.0 - parts / public_mean if public_mean else 0.0,
    }


def _table(title: str, rows) -> str:
    lines = [title]
    for name, unit, value in rows:
        lines.append(f"  {name:<30} {value:>16.6g} {unit}")
    return "\n".join(lines)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes=None) -> dict:
    """Run one workload; returns the result record (``metrics`` keyed by
    name, each ``{"value", "unit"}``) plus the diagnostics.  Needs the
    ``repro`` package importable."""
    from drivers import DRIVERS
    from inputs import FULL

    sizes = sizes or FULL
    drive = DRIVERS[workload]
    ref_before = reference_rate()
    if trace:
        plain = drive(seed, seconds / 2, sizes)
        traced = drive(seed, seconds / 2, sizes, Spans())
        phases = (plain, traced)
        values = per_layer(workload, plain, traced)
        units = PER_LAYER
    else:
        phases = (drive(seed, seconds, sizes),)
        values = end_to_end(phases[0])
        units = END_TO_END
    ref_after = reference_rate()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.errors for p in phases)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": {n: {"value": float(values[n]), "unit": u}
                    for n, u in units},
        "context": None if trace else context(phases[0]),
        "samples": {
            "read_batches": len(phases[0].read_lat),
            "write_batches": len(phases[0].write_lat),
            "setup_builds": len(phases[0].setup),
        },
        "setup_s": phases[0].setup,
        "read_lat_s": phases[0].read_lat,
        "write_lat_s": phases[0].write_lat,
        "identity_checks": sum(p.identity_checks for p in phases),
        "identity_failures": sum(p.identity_failures for p in phases),
        "host_ref_per_s": {"before": ref_before, "after": ref_after},
        "spans": phases[-1].spans.to_json() if trace else None,
    }


def report(rec: dict) -> str:
    m = rec["metrics"]
    kind = "per-layer (traced)" if rec["trace"] else "end-to-end"
    rows = [(n, v["unit"], v["value"]) for n, v in m.items()]
    rows.append(("error_rate", "fraction", rec["error_rate"]))
    s = rec["samples"]
    ref = rec["host_ref_per_s"]
    lines = [_table(f"{rec['workload']} seed={rec['seed']} — {kind}", rows)]
    if rec["context"]:
        lines.append(_table("  context (not gated; moves with the host):", [
            (n, "ops/s" if n == "peak_ops_per_s" else "ms", v)
            for n, v in rec["context"].items()]))
    return "\n".join(lines + [
        f"  samples: {s['read_batches']} read batches, "
        f"{s['write_batches']} write batches, {s['setup_builds']} builds",
        f"  decomposition identity: {rec['identity_checks']} checked, "
        f"{rec['identity_failures']} differ",
        f"  host reference loop: {ref['before']:.2f}/s before, "
        f"{ref['after']:.2f}/s after (context only, not gated)",
    ])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    rec = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    write_json(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
               ".json", rec)
    print(report(rec))
    if not rec["correct"]:
        print(f"perfbench: {rec['failed']} of {rec['attempted']} operations "
              f"disagree with the oracle or raised", file=sys.stderr)
    print(json.dumps({k: rec[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
