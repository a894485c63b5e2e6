"""Metric name catalogue and snapshot validation for :mod:`repro.obs`.

Every metric the instrumented hot paths emit is declared here — name,
kind, unit, and (for histograms) the fixed bucket edges.  The catalogue
serves three purposes:

* **drift detection** — :func:`validate_snapshot` rejects snapshots that
  contain names not in the catalogue, so an instrumentation site that
  invents a metric without documenting it fails CI rather than silently
  shipping an untracked counter;
* **self-describing exports** — exporters and the report renderer look
  units and docs up here instead of hard-coding them;
* **stable schema** — :data:`SCHEMA_VERSION` is embedded in every
  snapshot; consumers (``repro obs diff``, the bench ``metrics``
  sections) refuse to compare snapshots across incompatible versions.

Names are dotted, ``subsystem.metric``; per-level families use an ``l``
prefix on the level index (``engine.unique_nodes.l0`` … ``l{h-1}``) and
are declared once with a trailing ``*`` wildcard.  The catalogue is the
single source of truth for docs/observability.md's table.

**Namespaces.**  Metrics merged from another process's registry
(:meth:`~repro.obs.registry.MetricsRegistry.merge_remote`) carry an
instance prefix such as ``shard[0].`` — ``shard[0].engine.batches`` is
the worker-0 copy of ``engine.batches``.  :func:`lookup` and
:func:`validate_snapshot` strip any chain of ``name[index].`` prefixes
before consulting the catalogue, so namespaced metrics validate against
the same declarations as local ones (:func:`strip_namespace`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Version of the snapshot layout.  Bump only when the layout changes.
#: Adding a name needs no bump, and neither does removing or renaming
#: one: a committed snapshot that still carries the old name fails
#: :func:`validate_snapshot` as an unknown name, which is how it gets
#: found and regenerated.
SCHEMA_VERSION = 1

#: Metric families a snapshot may contain, in snapshot-key order.
KINDS = ("counter", "gauge", "histogram", "span")

# Shared fixed bucket ladders.  Histograms are fixed-bucket by design
# (bounded memory, mergeable across snapshots); these 1-2-5 / power-of-two
# ladders cover the dynamic ranges the instrumented paths produce.
TIME_EDGES_S: Tuple[float, ...] = tuple(
    m * (10.0 ** e) for e in range(-6, 1) for m in (1.0, 2.0, 5.0)
)  # 1µs … 5s
COUNT_EDGES: Tuple[float, ...] = tuple(float(1 << i) for i in range(0, 25))
BITS_EDGES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0,
                                 24.0, 32.0, 40.0, 48.0, 56.0, 64.0)

#: Fallback ladder for histogram names observed before being catalogued
#: (kept so ad-hoc use in notebooks works; validation still flags them).
DEFAULT_EDGES: Tuple[float, ...] = COUNT_EDGES


@dataclass(frozen=True)
class MetricSpec:
    """One catalogue entry.  ``name`` may end in ``*`` (prefix wildcard)
    for families whose tail is dynamic (per-level counters, bench rows)."""

    name: str
    kind: str  # one of KINDS
    unit: str
    doc: str
    edges: Optional[Tuple[float, ...]] = None  # histograms only

    def matches(self, name: str) -> bool:
        if self.name.endswith("*"):
            prefix = self.name[:-1]
            return name.startswith(prefix) and len(name) > len(prefix)
        return name == self.name


CATALOGUE: List[MetricSpec] = [
    # ------------------------------------------------------------ engine
    MetricSpec("engine.batches", "counter", "batches",
               "BatchQueryEngine lookup batches"),
    MetricSpec("engine.queries", "counter", "queries",
               "point lookups resolved by the engine"),
    MetricSpec("engine.levels.grouped", "counter", "levels",
               "work model: internal levels the GPU kernel serves with one "
               "grouped search per distinct node"),
    MetricSpec("engine.levels.broadcast", "counter", "levels",
               "work model: internal levels whose frontier runs are too "
               "short, served by the per-query broadcast compare"),
    MetricSpec("engine.levels.capped", "counter", "levels",
               "work model: broadcast levels that sweep only the per-level "
               "NTG scan window (a multiple of the level's degree) instead "
               "of the full key row"),
    MetricSpec("engine.node_reads", "counter", "nodes",
               "work model: distinct node-row reads (sum of frontier runs "
               "over levels) — the host analog of gld_transactions"),
    MetricSpec("engine.hinted_batches", "counter", "batches",
               "batches profiled as the monotone dual walk "
               "(execute_hinted: frontier lower-bound hints + subtree "
               "pruning)"),
    MetricSpec("engine.unique_nodes.l*", "counter", "nodes",
               "work model: frontier runs (= distinct nodes for a "
               "PSA-sorted batch) at tree level l<N> — Figure 12's "
               "per-level transaction analog"),
    MetricSpec("engine.run_length", "histogram", "queries/run",
               "work model: mean frontier run length per level (batch size "
               "/ runs); the PSA locality a GPU warp exploits",
               edges=COUNT_EDGES),
    # -------------------------------------------------------------- join
    MetricSpec("join.joins", "counter", "joins",
               "merge_join invocations (dual-tree merge-joins)"),
    MetricSpec("join.probes", "counter", "probes",
               "probe-side keys streamed through dual-tree joins"),
    MetricSpec("join.matches", "counter", "probes",
               "probe keys that found a build-side partner"),
    MetricSpec("join.selectivity", "gauge", "ratio",
               "matched fraction of the last join's probe stream"),
    # --------------------------------------------------------------- ntg
    MetricSpec("ntg.level_degree.l*", "gauge", "threads",
               "thread-group width chosen for tree level l<N> "
               "(harmonia.cuh's ntg_degree[depth]; non-increasing with "
               "depth, last prepared batch wins)"),
    MetricSpec("ntg.profile_s", "gauge", "s",
               "wall time of the last §4.2 static-profiling selection "
               "(cache misses only; cached selections skip profiling)"),
    # --------------------------------------------------------------- psa
    MetricSpec("psa.batches", "counter", "batches",
               "query batches prepared for issue (PSA or identity)"),
    MetricSpec("psa.bits_sorted", "histogram", "bits",
               "most-significant bits sorted per prepared batch (Equation 2)",
               edges=BITS_EDGES),
    MetricSpec("psa.perm_displacement", "histogram", "slots",
               "mean |issue position - arrival position| per batch — "
               "permutation locality of the partial sort", edges=COUNT_EDGES),
    # -------------------------------------------------------------- sort
    MetricSpec("sort.passes", "counter", "passes",
               "stable counting passes executed by partial_radix_argsort"),
    MetricSpec("sort.keys", "counter", "keys",
               "elements fed through partial_radix_argsort"),
    # ------------------------------------------------------------ gpusim
    MetricSpec("gpusim.kernels", "counter", "kernels",
               "simulated search-kernel invocations"),
    MetricSpec("gpusim.queries", "counter", "queries",
               "queries executed by simulated kernels"),
    MetricSpec("gpusim.warps", "counter", "warps",
               "warps launched by simulated kernels"),
    MetricSpec("gpusim.gld_transactions", "counter", "transactions",
               "global-memory transactions (nvprof gld_transactions)"),
    MetricSpec("gpusim.gld_requests", "counter", "requests",
               "warp global-memory requests (nvprof gld_requests)"),
    MetricSpec("gpusim.warp_steps", "counter", "steps",
               "warp-serialized execution steps (divergence cost unit)"),
    MetricSpec("gpusim.const_requests", "counter", "requests",
               "constant-memory child-region accesses (footnote 1)"),
    MetricSpec("gpusim.readonly_requests", "counter", "requests",
               "read-only-cache child-region accesses (§3.1 spill)"),
    MetricSpec("gpusim.l1_requests", "counter", "requests",
               "key-region warp loads served entirely from L1 (intra-level "
               "line reuse under narrow per-level NTG degrees)"),
    MetricSpec("gpusim.key_transactions.l*", "counter", "transactions",
               "key-region transactions at tree level l<N> (Figure 2's "
               "per-level quantity)"),
    MetricSpec("gpusim.transactions_per_warp", "gauge", "transactions/warp",
               "mean per-warp key transactions over levels — Figure 2's "
               "headline number (last simulated kernel)"),
    MetricSpec("gpusim.transactions_per_request", "gauge", "ratio",
               "memory divergence: transactions per request, 1.0 = coalesced "
               "(last simulated kernel)"),
    MetricSpec("gpusim.warp_coherence", "gauge", "ratio",
               "coherent fraction of warp issue slots (footnote 4; last "
               "simulated kernel)"),
    MetricSpec("gpusim.utilization", "gauge", "ratio",
               "useful / executed lane comparisons (Figure 9; last simulated "
               "kernel)"),
    MetricSpec("gpusim.pipeline.*", "gauge", "s|ratio",
               "host-device pipeline model stage times and occupancy, "
               "namespaced by mode (serial / double_buffer / pipeline)"),
    MetricSpec("gpusim.dualwalk.*", "gauge", "transactions|x",
               "dual-walk join kernel model: probe-side leaf-scan and "
               "hinted-descent transactions vs the per-key baseline "
               "(leaf_scan_tx / descent_tx / naive_tx / tx_speedup)"),
    # ------------------------------------------------------------ update
    MetricSpec("update.batches", "counter", "batches",
               "batches applied by the merge write "
               "(HarmoniaTree.apply_batch)"),
    MetricSpec("update.ops", "counter", "ops",
               "operations fed through the merge write"),
    MetricSpec("update.throughput_ops", "gauge", "ops/s",
               "end-to-end throughput of the last merge-write batch "
               "(resolve + merge)"),
    # ------------------------------------------------------- epoch / delta
    MetricSpec("epoch.flushes", "counter", "flushes",
               "concurrent-mode flushes: batches resolved and folded into "
               "the visible delta (no rebuild on the writer's path)"),
    MetricSpec("epoch.drains", "counter", "drains",
               "background drains: the pinned delta folded into a fresh "
               "base snapshot"),
    MetricSpec("epoch.drained_ops", "counter", "entries",
               "net delta entries folded into the base across all drains"),
    MetricSpec("delta.overlay_keys", "counter", "keys",
               "point-lookup keys passed through the snapshot-then-delta "
               "overlay"),
    MetricSpec("delta.size", "gauge", "entries",
               "visible delta entries, one per key (after the last "
               "flush/drain)"),
    MetricSpec("delta.runs", "gauge", "runs",
               "flushes published into the delta and not yet drained"),
    MetricSpec("epoch.snapshot_age", "gauge", "epochs",
               "published epochs the base snapshot trails the visible state "
               "(0 = fully drained)"),
    # ------------------------------------------------------------- shard
    MetricSpec("shard.batches", "counter", "batches",
               "query/update batches routed by the ShardedTree front-end"),
    MetricSpec("shard.queries", "counter", "queries",
               "point lookups fanned out across shard workers"),
    MetricSpec("shard.ops", "counter", "ops",
               "update operations fanned out across shard workers"),
    MetricSpec("shard.range_queries", "counter", "queries",
               "range scans served by the sharded global-scan path"),
    MetricSpec("shard.restarts", "counter", "workers",
               "worker processes restarted and rebuilt from snapshot + "
               "op-log replay"),
    MetricSpec("shard.rebalances", "counter", "rebalances",
               "key-space re-cuts performed by ShardedTree.rebalance"),
    MetricSpec("shard.batch_size", "histogram", "items",
               "per-shard slice size of each routed batch (scatter balance)",
               edges=COUNT_EDGES),
    MetricSpec("shard.skew", "gauge", "ratio",
               "shard size skew (max shard / ideal share) at the last "
               "rebalance check"),
    MetricSpec("shard.request_s", "histogram", "s",
               "end-to-end router request latency (scatter through gather), "
               "one observation per routed batch — obs report derives "
               "p50/p95/p99 from it", edges=TIME_EDGES_S),
    # --------------------------------------------------------- obs / trace
    MetricSpec("obs.dropped_spans", "counter", "spans",
               "spans discarded because the registry hit max_spans (the "
               "snapshot-visible mirror of the drop count; never silent)"),
    MetricSpec("trace.requests", "counter", "requests",
               "router requests that carried a trace context into the "
               "shard workers"),
    MetricSpec("trace.spans_merged", "counter", "spans",
               "worker-side spans merged back into the router registry"),
    MetricSpec("flight.events", "gauge", "events",
               "events currently buffered by the always-on flight recorder "
               "(bounded by its ring capacity)"),
    MetricSpec("flight.dropped", "gauge", "events",
               "flight-recorder events overwritten by ring wrap-around "
               "since startup"),
    # ------------------------------------------------------- epoch waits
    MetricSpec("epoch.publish_wait_s", "histogram", "s",
               "time spent waiting for the publish lock on the "
               "flush/drain publication path — overlay-vs-drain "
               "contention made visible", edges=TIME_EDGES_S),
    # ------------------------------------------------------------- bench
    MetricSpec("bench.*", "gauge", "s|x",
               "benchmark emitter timing blocks (BENCH_*.json metrics "
               "sections)"),
    # ------------------------------------------------------------- spans
    MetricSpec("engine.lookup", "span", "-",
               "one host lookup batch: packed-leaf search (+ delta overlay)"),
    MetricSpec("engine.profile", "span", "-",
               "traversal_profile of one batch, computed while recording "
               "(never part of engine.lookup)"),
    MetricSpec("join.run", "span", "-",
               "one dual-tree merge-join (probe extraction through "
               "classification)"),
    MetricSpec("psa.prepare", "span", "-",
               "prepare_batch: partial sort + gather to issue order"),
    MetricSpec("update.apply", "span", "-",
               "one merge-write batch: update.resolve then update.merge"),
    MetricSpec("update.resolve", "span", "-",
               "batch resolution: the existence probe of the block + each "
               "key's ops folded in arrival order into one sorted run"),
    MetricSpec("update.merge", "span", "-",
               "the resolved run merged into the packed leaf block — the "
               "next snapshot (§3.2.2's movement step)"),
    MetricSpec("delta.overlay", "span", "-",
               "snapshot-then-delta overlay pass of one lookup batch"),
    MetricSpec("epoch.publish", "span", "-",
               "concurrent flush: batch resolution + delta merge + "
               "publication"),
    MetricSpec("delta.merge", "span", "-",
               "one publish's two-way last-wins merge of the new run into "
               "the visible delta (inside epoch.publish, outside the "
               "publish lock)"),
    MetricSpec("epoch.drain", "span", "-",
               "one background drain: shadow rebuild + base swap"),
    MetricSpec("shard.scatter", "span", "-",
               "routing pass of one sharded batch (searchsorted + stable "
               "grouping)"),
    MetricSpec("shard.dispatch", "span", "-",
               "concurrent worker round-trip of one sharded batch"),
    MetricSpec("shard.gather", "span", "-",
               "reassembly of worker results into caller order"),
    MetricSpec("shard.request", "span", "-",
               "one whole routed request at the ShardedTree front-end "
               "(scatter through gather); carries the minted trace_id"),
    MetricSpec("worker.deserialize", "span", "-",
               "worker-side receive of a request's arrays off the shared "
               "block"),
    MetricSpec("worker.execute", "span", "-",
               "worker-side search/apply/range execution (engine and "
               "epoch spans nest inside)"),
    MetricSpec("worker.reply", "span", "-",
               "worker-side reply serialization back through the shared "
               "block"),
]

_EXACT: Dict[str, MetricSpec] = {s.name: s for s in CATALOGUE
                                 if not s.name.endswith("*")}
_WILDCARDS: List[MetricSpec] = [s for s in CATALOGUE if s.name.endswith("*")]

#: One ``instance[index].`` namespace segment (e.g. ``shard[3].``).
_NAMESPACE_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*\[\d+\]\.")


def strip_namespace(name: str) -> str:
    """Strip every leading ``instance[index].`` segment from ``name``.

    ``shard[0].engine.batches`` → ``engine.batches``; plain names pass
    through unchanged.  This is how merged remote metrics resolve against
    the same catalogue entries as their local counterparts.
    """
    while True:
        m = _NAMESPACE_RE.match(name)
        if m is None:
            return name
        name = name[m.end():]


def lookup(name: str) -> Optional[MetricSpec]:
    """Resolve a concrete metric name against the catalogue
    (namespace-aware: ``shard[0].engine.batches`` resolves like
    ``engine.batches``)."""
    spec = _EXACT.get(name)
    if spec is not None:
        return spec
    for wild in _WILDCARDS:
        if wild.matches(name):
            return wild
    bare = strip_namespace(name)
    if bare != name:
        return lookup(bare)
    return None


def default_edges_for(name: str) -> Tuple[float, ...]:
    """Bucket edges for a histogram name (catalogue or the fallback)."""
    spec = lookup(name)
    if spec is not None and spec.edges is not None:
        return spec.edges
    return DEFAULT_EDGES


def validate_snapshot(snapshot) -> List[str]:
    """Check a snapshot dict against the catalogue.

    Returns a list of problems (empty = valid): structural issues, schema
    version mismatches, unknown metric names, and names recorded under the
    wrong kind.  ``repro obs validate`` turns a non-empty list into a
    non-zero exit code — the CI tripwire against instrumentation drift.
    """
    problems: List[str] = []
    if not isinstance(snapshot, dict):
        return [f"snapshot is {type(snapshot).__name__}, expected dict"]
    version = snapshot.get("schema_version")
    if version is None:
        problems.append("missing schema_version")
    elif version != SCHEMA_VERSION:
        problems.append(
            f"schema_version {version} != supported {SCHEMA_VERSION}"
        )
    for kind, key in (("counter", "counters"), ("gauge", "gauges"),
                      ("histogram", "histograms")):
        family = snapshot.get(key, {})
        if not isinstance(family, dict):
            problems.append(f"{key} is {type(family).__name__}, expected dict")
            continue
        for name in family:
            spec = lookup(name)
            if spec is None:
                problems.append(f"unknown metric name {name!r} ({key})")
            elif spec.kind != kind:
                problems.append(
                    f"{name!r} recorded as {kind} but catalogued as "
                    f"{spec.kind}"
                )
    for name, hist in snapshot.get("histograms", {}).items():
        if not isinstance(hist, dict):
            problems.append(f"histogram {name!r} is not a dict")
            continue
        edges = hist.get("edges", [])
        counts = hist.get("counts", [])
        if len(counts) != len(edges) + 1:
            problems.append(
                f"histogram {name!r}: {len(counts)} buckets for "
                f"{len(edges)} edges (want edges + 1)"
            )
        elif hist.get("count") != sum(counts):
            problems.append(
                f"histogram {name!r}: count {hist.get('count')} != bucket "
                f"sum {sum(counts)}"
            )
    spans = snapshot.get("spans", {})
    if isinstance(spans, dict):
        for name in spans.get("names", {}):
            spec = lookup(name)
            if spec is None:
                problems.append(f"unknown span name {name!r}")
            elif spec.kind != "span":
                problems.append(
                    f"{name!r} recorded as span but catalogued as {spec.kind}"
                )
    return problems


__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "MetricSpec",
    "CATALOGUE",
    "TIME_EDGES_S",
    "COUNT_EDGES",
    "BITS_EDGES",
    "DEFAULT_EDGES",
    "lookup",
    "strip_namespace",
    "default_edges_for",
    "validate_snapshot",
]
