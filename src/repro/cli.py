"""``harmonia-tool`` — build, query, inspect and simulate indexes from the
shell.

    harmonia-tool build  --random 100000 --out index.npz --fanout 64
    harmonia-tool build  --keys keys.txt --out index.npz
    harmonia-tool query  index.npz 42 4711
    harmonia-tool range  index.npz 100 200
    harmonia-tool stats  index.npz
    harmonia-tool simulate index.npz --queries 65536 --device k80
    harmonia-tool obs record --out obs/       # recorded run + trace + report
    harmonia-tool obs record --shards 2       # + traced sharded requests
    harmonia-tool obs report obs/snapshot.json
    harmonia-tool obs diff A.json B.json      # counter/gauge deltas
    harmonia-tool obs validate obs/snapshot.json
    harmonia-tool obs flight                  # list flight-recorder dumps
    harmonia-tool obs flight DUMP.json        # render one dump

(The figure-regeneration CLI is separate: ``harmonia-experiments``.)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.constants import NOT_FOUND
from repro.core import HarmoniaTree, SearchConfig, layout_stats, load_tree, save_tree
from repro.errors import ReproError
from repro.utils.validation import ensure_key_array


def _read_keys(path: str) -> np.ndarray:
    """Keys from a ``.npy``/``.npz`` array or a text file of integers."""
    if path.endswith(".npy"):
        return ensure_key_array(np.load(path))
    if path.endswith(".npz"):
        with np.load(path) as data:
            first = list(data)[0]
            return ensure_key_array(data[first])
    with open(path) as fh:
        values = [int(line) for line in fh if line.strip()]
    return ensure_key_array(np.asarray(values, dtype=np.int64))


def _cmd_build(args: argparse.Namespace) -> int:
    if args.random is not None:
        from repro.workloads.generators import make_key_set

        keys = make_key_set(args.random, rng=args.seed)
        values = None
    else:
        keys = np.unique(_read_keys(args.keys))
        values = None
    tree = HarmoniaTree.from_sorted(keys, values, fanout=args.fanout,
                                    fill=args.fill)
    save_tree(tree, args.out)
    st = layout_stats(tree.layout)
    print(f"built {args.out}: {st.n_keys} keys, fanout {st.fanout}, "
          f"height {st.height}, key region {st.key_region_bytes / 1e6:.2f} MB, "
          f"child region {st.child_region_bytes / 1e3:.2f} KB")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    tree = load_tree(args.index)
    if args.targets:
        targets = np.asarray([int(t) for t in args.targets], dtype=np.int64)
    elif args.file:
        targets = _read_keys(args.file)
    else:
        targets = ensure_key_array(
            np.asarray([int(l) for l in sys.stdin if l.strip()],
                       dtype=np.int64)
        )
    cfg = SearchConfig.full() if args.optimized else SearchConfig.baseline_tree()
    out = tree.search_batch(targets, cfg)
    misses = 0
    for key, value in zip(targets, out):
        if value == NOT_FOUND:
            print(f"{key}\tMISS")
            misses += 1
        else:
            print(f"{key}\t{value}")
    print(f"# {targets.size - misses}/{targets.size} hits", file=sys.stderr)
    return 0


def _cmd_range(args: argparse.Namespace) -> int:
    tree = load_tree(args.index)
    keys, values = tree.range_search(args.lo, args.hi)
    for k, v in zip(keys, values):
        print(f"{k}\t{v}")
    print(f"# {keys.size} pairs in [{args.lo}, {args.hi}]", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    tree = load_tree(args.index)
    st = layout_stats(tree.layout)
    for key, value in st.to_dict().items():
        print(f"{key:26s} {value}")
    print(f"{'const_resident_levels':26s} {st.const_resident_levels()}"
          f" / {st.height}")
    for lvl in st.levels:
        print(f"  level {lvl.level}: {lvl.n_nodes} nodes, "
              f"occupancy {lvl.mean_occupancy:.0%} "
              f"(min {lvl.min_keys}, max {lvl.max_keys} keys)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.gpusim import TESLA_K80, TITAN_V, simulate_harmonia_search
    from repro.gpusim.perfmodel import estimate_sort_time, modeled_throughput
    from repro.workloads.datasets import miniaturized_device
    from repro.workloads.generators import uniform_queries

    tree = load_tree(args.index)
    base = {"titanv": TITAN_V, "k80": TESLA_K80}[args.device]
    device = miniaturized_device(len(tree), args.queries, base)
    rng = np.random.default_rng(args.seed)
    queries = uniform_queries(tree.layout.all_keys(), args.queries, rng=rng)
    prep = tree.prepare_queries(queries, SearchConfig.full())
    metrics = simulate_harmonia_search(
        tree.layout, prep.queries, prep.group_size, device=device
    )
    sort_s = estimate_sort_time(args.queries, prep.psa.sort_passes, device)
    tp = modeled_throughput(metrics, tree.layout, device, sort_s=sort_s)
    print(f"device                 {device.name}")
    print(f"queries                {args.queries}")
    print(f"psa sorted bits        {prep.psa.bits_sorted} "
          f"({prep.psa.sort_passes} passes)")
    print(f"ntg group size         {prep.group_size}")
    for key, value in metrics.summary().items():
        print(f"{key:22s} {value}")
    print(f"modeled throughput     {tp / 1e9:.3f} Gq/s")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    """Demo run of the sharded service tier: build, serve a mixed
    search/update workload across worker processes, report per-shard
    stats (and per-batch skew/rebalance when asked)."""
    import os
    import time

    from repro.shard import ShardedTree
    from repro.workloads.generators import make_key_set, uniform_queries
    from repro.workloads.mixes import PAPER_UPDATE_MIX, make_update_batch

    rng = np.random.default_rng(args.seed)
    keys = make_key_set(args.keys, rng=args.seed)
    n_ops = max(args.batch // 4, 1)
    print(f"sharding {keys.size} keys across {args.shards} workers "
          f"(batch {args.batch} queries + {n_ops} ops, "
          f"{args.batches} rounds)")
    import contextlib

    import repro.obs as obs
    from repro.obs.export import write_chrome_trace, write_snapshot
    from repro.obs.schema import validate_snapshot

    # --trace-out wraps the whole run in a recording: the router mints
    # trace ids, worker registries merge back, and the merged snapshot +
    # multi-process Chrome trace land in the given directory.
    recording = obs.recording() if args.trace_out else contextlib.nullcontext()
    with recording as rec, \
            ShardedTree.from_sorted(keys, n_shards=args.shards,
                                    fanout=args.fanout) as st:
        t0 = time.perf_counter()
        for _ in range(args.batches):
            st.search_many(uniform_queries(keys, args.batch, rng=rng))
            st.apply_batch(
                make_update_batch(keys, n_ops, PAPER_UPDATE_MIX, rng=rng)
            )
        wall = time.perf_counter() - t0
        revived = st.health_check()
        rebalanced = st.rebalance(args.rebalance_threshold)
        done = args.batches * (args.batch + n_ops)
        print(f"served {done} requests in {wall:.3f}s "
              f"({done / wall / 1e6:.3f} Mreq/s), skew {st.skew():.3f}"
              + (", rebalanced" if rebalanced else "")
              + (f", revived {revived}" if revived else ""))
        for row in st.stats():
            lo = "-inf" if row["range_lo"] is None else row["range_lo"]
            hi = "+inf" if row["range_hi"] is None else row["range_hi"]
            print(f"  shard {row['shard']}: {row['n_keys']} keys, "
                  f"epoch {row['epoch']}, restarts {row['restarts']}, "
                  f"range ({lo}, {hi}]")
        if args.trace_out:
            snapshot = rec.snapshot()
            os.makedirs(args.trace_out, exist_ok=True)
            snap_path = write_snapshot(
                snapshot, os.path.join(args.trace_out, "snapshot.json")
            )
            trace_path = write_chrome_trace(
                rec, os.path.join(args.trace_out, "trace.json")
            )
            print(f"snapshot: {snap_path}")
            print(f"chrome trace: {trace_path} "
                  f"({len(rec.remote_processes()) + 1} process lanes)")
            for p in validate_snapshot(snapshot):
                print(f"harmonia-tool: obs: {p}", file=sys.stderr)
                return 1
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    """Build two trees from key files and merge-join them (docs/join.md):
    the first tree's leaf region streams through the second's hinted
    dual walk; ``--trace-out`` records the join.* metrics + spans."""
    import contextlib
    import os
    import time

    import repro.obs as obs
    from repro.join import merge_join
    from repro.obs.export import write_chrome_trace, write_snapshot
    from repro.obs.schema import validate_snapshot

    keys_a = np.unique(_read_keys(args.keys_a))
    keys_b = np.unique(_read_keys(args.keys_b))
    tree_a = HarmoniaTree.from_sorted(keys_a, None, fanout=args.fanout)
    tree_b = HarmoniaTree.from_sorted(keys_b, None, fanout=args.fanout)

    recording = obs.recording() if args.trace_out else contextlib.nullcontext()
    with recording as rec:
        t0 = time.perf_counter()
        result = merge_join(tree_a, tree_b, mode=args.mode)
        wall = time.perf_counter() - t0
        print(f"{args.mode} join: {keys_a.size} probe keys x "
              f"{keys_b.size} build keys -> {result.keys.size} rows "
              f"in {wall:.3f}s (selectivity {result.selectivity:.1%})")
        shown = min(result.keys.size, args.limit)
        for i in range(shown):
            row = f"{result.keys[i]}\t{result.values_a[i]}"
            if result.values_b is not None:
                row += f"\t{result.values_b[i]}"
            print(row)
        if result.keys.size > shown:
            print(f"# ... {result.keys.size - shown} more rows",
                  file=sys.stderr)
        if args.trace_out:
            snapshot = rec.snapshot()
            os.makedirs(args.trace_out, exist_ok=True)
            snap_path = write_snapshot(
                snapshot, os.path.join(args.trace_out, "snapshot.json")
            )
            trace_path = write_chrome_trace(
                rec, os.path.join(args.trace_out, "trace.json")
            )
            print(f"snapshot: {snap_path}")
            print(f"chrome trace: {trace_path}")
            for p in validate_snapshot(snapshot):
                print(f"harmonia-tool: obs: {p}", file=sys.stderr)
                return 1
    return 0


#: Batches ``obs record`` splits its queries into.
OBS_RECORD_BATCHES = 8


def _cmd_obs_record(args: argparse.Namespace) -> int:
    """One instrumented end-to-end run: the queries as
    :data:`OBS_RECORD_BATCHES` ``search_many`` batches, then the simulated
    kernel, under a single recording, exported as snapshot + Chrome trace.

    This is the acceptance run for the observability layer: the trace
    shows each batch's ``psa.prepare`` (sort) then ``engine.lookup``
    (traverse), and the snapshot carries both ``engine.unique_nodes.l*``
    and ``gpusim.transactions_per_warp`` for ``obs report``.
    """
    import os

    import repro.obs as obs
    from repro.gpusim import simulate_harmonia_search
    from repro.obs.export import write_chrome_trace, write_snapshot
    from repro.obs.report import render_report
    from repro.obs.schema import validate_snapshot
    from repro.workloads.datasets import miniaturized_device
    from repro.workloads.generators import make_key_set, uniform_queries

    rng = np.random.default_rng(args.seed)
    keys = make_key_set(args.keys, rng=args.seed)
    tree = HarmoniaTree.from_sorted(keys, fanout=args.fanout)
    queries = uniform_queries(tree.layout.all_keys(), args.queries, rng=rng)

    with obs.recording() as rec:
        for batch in np.array_split(queries, OBS_RECORD_BATCHES):
            tree.search_many(batch)
        sim_n = min(args.queries, 1 << 12)
        prep = tree.prepare_queries(queries[:sim_n], SearchConfig.full())
        device = miniaturized_device(len(tree), sim_n)
        simulate_harmonia_search(
            tree.layout, prep.queries, prep.group_size, device=device
        )
        if args.shards:
            # One traced sharded batch: the recording makes the router
            # mint trace ids, so worker spans merge back and the Chrome
            # trace grows one process lane per worker.
            from repro.shard import ShardedTree

            with ShardedTree.from_sorted(
                keys, n_shards=args.shards, fanout=args.fanout
            ) as st:
                st.search_many(queries[: 1 << 12])

    snapshot = rec.snapshot()
    problems = validate_snapshot(snapshot)
    os.makedirs(args.out, exist_ok=True)
    snap_path = write_snapshot(snapshot, os.path.join(args.out, "snapshot.json"))
    trace_path = write_chrome_trace(rec, os.path.join(args.out, "trace.json"))
    print(render_report(snapshot))
    print(f"snapshot: {snap_path}")
    print(f"chrome trace: {trace_path} (load in chrome://tracing or "
          "https://ui.perfetto.dev)")
    if problems:
        for p in problems:
            print(f"harmonia-tool: obs: {p}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.export import load_metrics
    from repro.obs.report import render_report

    print(render_report(load_metrics(args.snapshot)), end="")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs.export import load_metrics
    from repro.obs.report import render_diff

    print(render_diff(load_metrics(args.a), load_metrics(args.b),
                      label_a=args.a, label_b=args.b), end="")
    return 0


def _cmd_obs_flight(args: argparse.Namespace) -> int:
    """Inspect the always-on flight recorder.

    With a dump file: render it (identity, latency percentiles, the most
    recent events).  Without: list the dumps in the flight directory
    (``$HARMONIA_FLIGHT_DIR``, default: the system temp dir) — that is
    where crashed shard workers leave their rings.
    """
    import glob
    import json
    import os

    from repro.obs.flight import flight_dir

    if args.dump is None:
        d = flight_dir()
        if d is None:
            print("flight dumps disabled (HARMONIA_FLIGHT_DIR is empty)")
            return 0
        found = sorted(glob.glob(os.path.join(d, "harmonia-flight-*.json")))
        if not found:
            print(f"no flight dumps in {d}")
            return 0
        for path in found:
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"{path}: unreadable ({exc})")
                continue
            print(f"{path}: pid {data.get('pid')} "
                  f"reason={data.get('reason')!r} "
                  f"events={data.get('events_recorded')} "
                  f"dropped={data.get('dropped')}")
        return 0

    with open(args.dump, encoding="utf-8") as fh:
        data = json.load(fh)
    print(f"== flight dump: {args.dump} ==")
    print(f"pid {data.get('pid')}  reason={data.get('reason')!r}  "
          f"capacity {data.get('capacity')}  "
          f"recorded {data.get('events_recorded')}  "
          f"dropped {data.get('dropped')}")
    latency = data.get("latency", {})
    if latency:
        print("-- latency (s) --")
        for op, row in latency.items():
            print(f"  {op:<20} n={row.get('count'):<8} "
                  f"p50={row.get('p50_s'):.6g} "
                  f"p95={row.get('p95_s'):.6g} "
                  f"p99={row.get('p99_s'):.6g}")
    events = data.get("events", [])
    tail = events[-args.tail:] if args.tail else events
    if tail:
        print(f"-- last {len(tail)} events --")
        for e in tail:
            print(f"  #{e.get('seq'):<8} {e.get('kind'):<12} "
                  f"{e.get('detail')}")
    return 0


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    from repro.obs.export import load_metrics
    from repro.obs.schema import validate_snapshot

    problems = validate_snapshot(load_metrics(args.snapshot))
    if problems:
        for p in problems:
            print(f"{args.snapshot}: {p}")
        return 1
    print(f"{args.snapshot}: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonia-tool",
        description="Build, query, inspect and simulate Harmonia indexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="bulk-build an index")
    src = b.add_mutually_exclusive_group(required=True)
    src.add_argument("--keys", help="file of keys (.txt/.npy/.npz)")
    src.add_argument("--random", type=int, help="generate N random keys")
    b.add_argument("--out", required=True)
    b.add_argument("--fanout", type=int, default=64)
    b.add_argument("--fill", type=float, default=0.7)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="point lookups")
    q.add_argument("index")
    q.add_argument("targets", nargs="*", help="keys (default: stdin)")
    q.add_argument("--file", help="file of query keys")
    q.add_argument("--no-optimized", dest="optimized", action="store_false",
                   help="skip PSA/NTG preprocessing")
    q.set_defaults(func=_cmd_query, optimized=True)

    r = sub.add_parser("range", help="range scan [LO, HI]")
    r.add_argument("index")
    r.add_argument("lo", type=int)
    r.add_argument("hi", type=int)
    r.set_defaults(func=_cmd_range)

    s = sub.add_parser("stats", help="structural statistics")
    s.add_argument("index")
    s.set_defaults(func=_cmd_stats)

    m = sub.add_parser("simulate", help="run the GPU model on the index")
    m.add_argument("index")
    m.add_argument("--queries", type=int, default=1 << 14)
    m.add_argument("--device", choices=("titanv", "k80"), default="titanv")
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=_cmd_simulate)

    sh = sub.add_parser(
        "shard",
        help="run a mixed workload through the sharded multi-process tier",
    )
    sh.add_argument("--keys", type=int, default=1 << 17)
    sh.add_argument("--shards", type=int, default=2)
    sh.add_argument("--batches", type=int, default=4)
    sh.add_argument("--batch", type=int, default=1 << 14,
                    help="queries per round (ops per round = batch / 4)")
    sh.add_argument("--fanout", type=int, default=64)
    sh.add_argument("--rebalance-threshold", type=float, default=1.5)
    sh.add_argument("--seed", type=int, default=0)
    sh.add_argument("--trace-out", default=None,
                    help="record the run with cross-process tracing and "
                         "write snapshot.json + trace.json here")
    sh.set_defaults(func=_cmd_shard)

    j = sub.add_parser(
        "join",
        help="merge-join two key files through the dual-tree walk",
    )
    j.add_argument("keys_a", help="probe-side keys (.npy/.npz/text)")
    j.add_argument("keys_b", help="build-side keys (.npy/.npz/text)")
    j.add_argument("--mode", choices=["inner", "semi", "anti"],
                   default="inner")
    j.add_argument("--fanout", type=int, default=64)
    j.add_argument("--limit", type=int, default=10,
                   help="result rows to print (default 10)")
    j.add_argument("--trace-out", default=None,
                   help="directory for the recorded snapshot.json + "
                        "trace.json of the join")
    j.set_defaults(func=_cmd_join)

    o = sub.add_parser(
        "obs", help="observability: record / report / diff / validate"
    )
    osub = o.add_subparsers(dest="obs_command", required=True)

    orec = osub.add_parser(
        "record",
        help="run instrumented point-read batches + simulation, write "
             "snapshot and Chrome trace",
    )
    orec.add_argument("--out", default="obs-run",
                      help="output directory (default: obs-run)")
    orec.add_argument("--keys", type=int, default=1 << 16)
    orec.add_argument("--queries", type=int, default=1 << 16)
    orec.add_argument("--fanout", type=int, default=32)
    orec.add_argument("--seed", type=int, default=0)
    orec.add_argument("--shards", type=int, default=0,
                      help="also run one traced batch through an N-shard "
                           "service (adds per-worker process lanes)")
    orec.set_defaults(func=_cmd_obs_record)

    orep = osub.add_parser("report", help="render a snapshot as text")
    orep.add_argument("snapshot")
    orep.set_defaults(func=_cmd_obs_report)

    odiff = osub.add_parser(
        "diff", help="counter/gauge/histogram deltas between two snapshots"
    )
    odiff.add_argument("a")
    odiff.add_argument("b")
    odiff.set_defaults(func=_cmd_obs_diff)

    oval = osub.add_parser(
        "validate", help="check a snapshot against the metric catalogue"
    )
    oval.add_argument("snapshot")
    oval.set_defaults(func=_cmd_obs_validate)

    ofl = osub.add_parser(
        "flight",
        help="list flight-recorder dumps, or render one dump file",
    )
    ofl.add_argument("dump", nargs="?", default=None,
                     help="a dump file to render (default: list the "
                          "flight directory)")
    ofl.add_argument("--tail", type=int, default=20,
                     help="events to show from the end (default: 20)")
    ofl.set_defaults(func=_cmd_obs_flight)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, FileNotFoundError, ValueError) as exc:
        print(f"harmonia-tool: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
