"""The three closed-loop workloads.

Each driver is one client thread issuing one public call at a time and
waiting for it: ``HarmoniaTree`` (uniform_read), ``EpochManager(
concurrent=True)`` (zipf_rw_epoch) and a 2-shard ``ShardedTree``
(scan_shard).  Inputs come prebuilt from :mod:`inputs`; every result is
checked against a benchmark-side oracle between the timed calls.

Untraced, a driver times only the public calls.  Traced (a
:class:`~measure.Spans` is passed), each public read is replaced by its
decomposition — pin, ``prepare_queries``, ``engine().execute_prepared``,
``delta.overlay_values`` — timed call by call, and the decomposed
result is compared byte for byte with the public call's.  Layers the
client cannot see (shard workers, the update executor behind an epoch)
are timed on in-process mirrors given the same inputs.
"""

from __future__ import annotations

import gc
import sys
from typing import Callable, List, Optional

import numpy as np

from repro import EpochManager, HarmoniaTree
from repro.constants import NOT_FOUND
from repro.shard import ShardedTree

from inputs import (
    FANOUT,
    FILL,
    KeyOracle,
    Sizes,
    SortedOracle,
    epoch_inputs,
    scan_inputs,
    uniform_inputs,
)
from measure import Phase, SetupSchedule, Spans, clock, same_bytes

N_SHARDS = 2


def layout_bytes(layout) -> int:
    """Key-region, child-region and value bytes of one layout."""
    return (layout.key_region_bytes() + layout.child_region_bytes()
            + layout.values_bytes())


def delta_bytes(view) -> int:
    if view is None:
        return 0
    return sum(r.keys.nbytes + r.values.nbytes + r.tombstones.nbytes
               for r in view.runs)


def outcome_errors(res, expected, n_ops: int) -> int:
    """Operations whose batch outcome disagrees with the expected
    (inserted, updated, deleted) counts; no operation may fail."""
    if res is None:
        return 0  # already counted as raised
    got = (res.inserted, res.updated, res.deleted)
    off = sum(abs(g - e) for g, e in zip(got, expected)) + res.failed
    return min(off, n_ops)


def contents_errors(keys, values, want_keys, want_values) -> int:
    """Entries by which visible contents differ from the oracle's."""
    if same_bytes(keys, want_keys) and same_bytes(values, want_values):
        return 0
    common, ia, ib = np.intersect1d(keys, want_keys, return_indices=True)
    wrong = int(np.count_nonzero(values[ia] != want_values[ib]))
    return wrong + (keys.size - common.size) + (want_keys.size - common.size)


def _settle() -> None:
    """Collect, then exempt the prebuilt inputs from later collections so
    the cyclic collector does not rescan them inside timed calls."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------- point reads


def traced_read(phase: Phase, rnd: int, tree, q: np.ndarray,
                public: Callable, pin: Optional[Callable] = None):
    """The public point read, decomposed in the order the public path
    runs it.  Returns ``(result, seconds)``, the seconds covering only
    the decomposed calls."""
    sp = phase.spans
    phase.attempted += q.size
    t0 = clock()
    facade = pin() if pin is not None else tree
    t1 = clock()
    prepared = facade.prepare_queries(q)
    t2 = clock()
    out = facade.engine().execute_prepared(prepared)
    t3 = clock()
    if facade.delta is not None:
        facade.delta.overlay_values(q, out)
    t4 = clock()
    if pin is not None:
        sp.add("epoch.pin", rnd, t0, t1)
        sp.add("delta.overlay", rnd, t3, t4)
    sp.add("psa.prepare", rnd, t1, t2)
    sp.add("engine.execute", rnd, t2, t3)
    stats = facade.last_engine_stats
    sp.sample("engine.node_reads_per_query",
              stats.total_node_reads / max(stats.n_queries, 1))
    sp.sample("engine.compaction_ratio", stats.compaction_ratio)
    sp.sample("engine.broadcast_levels", stats.broadcast_levels)
    # The same batch again on the same facade: whatever the first run
    # built once per facade (the packed leaf block) is reused now.
    t5 = clock()
    facade.engine().execute_prepared(prepared)
    sp.sample("engine.pin_rebuild_s", (t3 - t2) - (clock() - t5))
    phase.identity(same_bytes(out, public(q)))
    return out, t4 - t0


# ---------------------------------------------------------- uniform_read


def uniform_read(seed: int, seconds: float, sizes: Sizes,
                 spans: Optional[Spans] = None) -> Phase:
    """2^20 keys, batches of 2^15 uniform lookups.  Every
    ``uniform_write_every``-th round also applies one mixed write batch
    (the paper's small update mix) to a separate 2^17-key write tree that
    fits in L2, so the read tree never changes layout and shares the
    cache with nothing but its own reads."""
    inp = uniform_inputs(seed, sizes, seconds)
    base = KeyOracle(inp.keys, inp.values)  # the read tree's contents
    oracle = KeyOracle(inp.wkeys, inp.wvalues)  # the write tree's contents
    warm_want = base.lookup(inp.read_idx[0])
    phase = Phase(sizes.warmup_rounds, spans)
    _settle()

    def setup() -> HarmoniaTree:
        t0 = clock()
        tree = HarmoniaTree.from_sorted(inp.keys, inp.values,
                                        fanout=FANOUT, fill=FILL)
        t1 = clock()
        warm = tree.search_many(inp.reads[0])
        phase.setup.append(clock() - t0)
        if spans is not None:
            spans.add("layout.build", -1, t0, t1)
        phase.attempted += warm.size
        phase.mismatch(np.count_nonzero(warm != warm_want))
        return tree

    tree = setup()
    wtree = HarmoniaTree.from_sorted(inp.wkeys, inp.wvalues,
                                     fanout=FANOUT, fill=FILL)
    again = SetupSchedule(sizes.setup_builds - 1, seconds)
    rnd = w = 0
    start = clock()
    deadline = start + seconds
    while clock() < deadline:
        i = rnd % sizes.read_pool
        q = inp.reads[i]
        if spans is None:
            out, t0, t1 = phase.call(q.size, tree.search_many, q)
            dt = t1 - t0
        else:
            out, dt = traced_read(phase, rnd, tree, q, tree.search_many)
        phase.record(rnd, "read", dt, q.size)
        if out is not None:
            phase.mismatch(
                np.count_nonzero(out != base.lookup(inp.read_idx[i])))
        if rnd % sizes.uniform_write_every == 0 and w < len(inp.writes):
            batch = inp.writes[w]
            res, t0, t1 = phase.call(len(batch.ops), wtree.apply_batch,
                                     batch.ops)
            phase.record(rnd, "write", t1 - t0, len(batch.ops))
            phase.mismatch(outcome_errors(res, batch.counts, len(batch.ops)))
            oracle.apply(batch)
            if spans is not None and res is not None:
                spans.add("update.apply", w, t0, t1)
                spans.sample("update.split_leaves_per_op",
                             res.split_leaves / len(batch.ops))
            w += 1
        if again.due(clock() - start):
            setup()
        rnd += 1

    keys, values = oracle.contents()
    phase.mismatch(np.count_nonzero(wtree.search_many(keys) != values))
    gone = wtree.search_many(inp.wkeys[~oracle.alive])
    phase.mismatch(np.count_nonzero(gone != NOT_FOUND))
    phase.mismatch(abs(len(wtree) - oracle.live))
    phase.mismatch(abs(len(tree) - base.live))
    phase.bytes_per_key = layout_bytes(tree.layout) / max(len(tree), 1)
    phase.layer["layout.occupancy"] = tree.layout.occupancy()
    return phase


# --------------------------------------------------------- zipf_rw_epoch


def _submit_and_flush(em: EpochManager, ops):
    em.submit_many(ops)
    return em.flush()


def zipf_rw_epoch(seed: int, seconds: float, sizes: Sizes,
                  spans: Optional[Spans] = None) -> Phase:
    """2^21 keys behind ``EpochManager(concurrent=True)``; each round is
    2^14 zipf reads then 2^11 mixed writes, with background drains at
    the default threshold and the closing ``sync()`` timed.  Runs all
    prebuilt rounds (a fixed operation count sized from ``seconds``)."""
    inp = epoch_inputs(seed, sizes, seconds)
    oracle = KeyOracle(inp.keys, inp.values)
    warm_want = oracle.lookup(inp.read_idx[0])
    phase = Phase(sizes.warmup_rounds, spans)
    _settle()

    def setup() -> EpochManager:
        t0 = clock()
        tree = HarmoniaTree.from_sorted(inp.keys, inp.values,
                                        fanout=FANOUT, fill=FILL)
        t1 = clock()
        em = EpochManager(tree, concurrent=True)
        warm = em.search_many(inp.reads[0])
        phase.setup.append(clock() - t0)
        if spans is not None:
            spans.add("layout.build", -1, t0, t1)
        phase.attempted += warm.size
        phase.mismatch(np.count_nonzero(warm != warm_want))
        return em

    em = setup()
    again = SetupSchedule(sizes.setup_builds - 1, len(inp.writes))
    # Traced only: a side tree with the same write history, on which each
    # batch is replayed through HarmoniaTree.apply_batch.
    side = None
    if spans is not None:
        side = HarmoniaTree.from_sorted(inp.keys, inp.values,
                                        fanout=FANOUT, fill=FILL)

    for rnd, batch in enumerate(inp.writes):
        i = rnd % sizes.read_pool
        q = inp.reads[i]
        if spans is None:
            out, t0, t1 = phase.call(q.size, em.search_many, q)
            dt = t1 - t0
        else:
            spans.sample("epoch.drain_overlap", em.drain_running)
            spans.sample("delta.size", em.delta_size)
            spans.sample("delta.runs", em.delta_runs)
            out, dt = traced_read(phase, rnd, None, q, em.search_many,
                                  pin=em.pin)
        phase.record(rnd, "read", dt, q.size)
        if out is not None:
            phase.mismatch(
                np.count_nonzero(out != oracle.lookup(inp.read_idx[i])))

        res, t0, t1 = phase.call(len(batch.ops), _submit_and_flush, em,
                                 batch.ops)
        phase.record(rnd, "write", t1 - t0, len(batch.ops))
        phase.mismatch(outcome_errors(res, batch.counts, len(batch.ops)))
        oracle.apply(batch)
        if side is not None:
            spans.add("epoch.flush", rnd, t0, t1)
            a = clock()
            sres = side.apply_batch(batch.ops)
            spans.add("update.apply", rnd, a, clock())
            spans.sample("update.split_leaves_per_op",
                         sres.split_leaves / len(batch.ops))
            phase.identity(res is not None and (
                (sres.inserted, sres.updated, sres.deleted, sres.failed)
                == (res.inserted, res.updated, res.deleted, res.failed)))
        # Cold set-ups only while no drain runs (drains start only from a
        # flush), so no drain work hides in the untimed gap.
        if not em.drain_running and again.due(rnd):
            setup().close()

    _, t0, t1 = phase.call(1, em.sync)
    phase.busy += t1 - t0
    if spans is not None:
        spans.add("epoch.sync", len(inp.writes), t0, t1)
    while again.due(len(inp.writes)):  # marks passed over during drains
        setup().close()

    keys, values = em.dump_items()
    want_k, want_v = oracle.contents()
    phase.mismatch(contents_errors(keys, values, want_k, want_v))
    if side is not None:
        items = side.layout.iter_leaf_items()
        phase.identity(same_bytes(np.ascontiguousarray(items[:, 0]), keys)
                       and same_bytes(np.ascontiguousarray(items[:, 1]),
                                      values))
    pinned = em.pin()
    phase.bytes_per_key = (
        (layout_bytes(pinned.layout) + delta_bytes(pinned.delta))
        / max(len(pinned), 1))
    phase.layer["layout.occupancy"] = pinned.layout.occupancy()
    phase.layer["epoch.drains"] = em.drains
    em.close()
    return phase


# ------------------------------------------------------------ scan_shard


def _range_jobs(part, los: np.ndarray, his: np.ndarray):
    """Per-shard (shard, query indices, clipped los, clipped his) — the
    router's scatter step for a scan batch, redone on the client."""
    firsts, lasts = part.shard_of(los), part.shard_of(his)
    jobs = []
    for s in range(part.n_shards):
        qidx = np.flatnonzero((firsts <= s) & (lasts >= s))
        if qidx.size == 0:
            continue
        clo, chi = los[qidx], his[qidx]
        if s > 0:
            clo = np.maximum(clo, part.boundaries[s - 1] + 1)
        if s < part.n_shards - 1:
            chi = np.minimum(chi, part.boundaries[s])
        jobs.append((s, qidx, clo, chi))
    return jobs


def scan_errors(res, counts, keys, values) -> int:
    """Scans whose window differs from the oracle's."""
    if len(res) != counts.size:
        return counts.size
    got = np.fromiter((k.size for k, _ in res), dtype=np.int64,
                      count=len(res))
    if np.array_equal(got, counts):
        gk = np.concatenate([k for k, _ in res])
        gv = np.concatenate([v for _, v in res])
        if np.array_equal(gk, keys) and np.array_equal(gv, values):
            return 0
    ends = np.cumsum(counts)
    bad = 0
    for j, (k, v) in enumerate(res):
        a, b = ends[j] - counts[j], ends[j]
        if not (np.array_equal(k, keys[a:b]) and np.array_equal(v, values[a:b])):
            bad += 1
    return bad


def _mirror_scans(spans: Spans, rnd: int, mirrors, jobs, n: int):
    """Run each shard's slice of a scan batch on its mirror; returns the
    per-query results stitched in shard order and the slowest shard's
    seconds."""
    per_query: List[list] = [[] for _ in range(n)]
    slowest = 0.0
    for s, qidx, clo, chi in jobs:
        a = clock()
        pairs = mirrors[s].range_search_batch(clo, chi)
        b = clock()
        spans.add("search.range_batch", rnd, a, b)
        slowest = max(slowest, b - a)
        for q, kv in zip(qidx.tolist(), pairs):
            per_query[q].append(kv)
    return per_query, slowest


def _same_scans(res, per_query) -> bool:
    empty = np.empty(0, dtype=np.int64)
    for (k, v), parts in zip(res, per_query):
        mk = np.concatenate([p[0] for p in parts]) if parts else empty
        mv = np.concatenate([p[1] for p in parts]) if parts else empty
        if not (same_bytes(k, mk) and same_bytes(v, mv)):
            return False
    return True


def scan_shard(seed: int, seconds: float, sizes: Sizes,
               spans: Optional[Spans] = None) -> Phase:
    """A 2-shard ShardedTree over 2^21 keys; each round is one batch of
    2048 scans of about 64 keys, then one apply_batch of 128 inserts."""
    inp = scan_inputs(seed, sizes, seconds)
    oracle = SortedOracle(inp.keys, inp.values)
    warm_want = oracle.windows(inp.los[0], inp.his[0])
    phase = Phase(sizes.warmup_rounds, spans)
    _settle()

    def setup() -> ShardedTree:
        t0 = clock()
        st = ShardedTree.from_sorted(inp.keys, inp.values, n_shards=N_SHARDS,
                                     fanout=FANOUT, fill=FILL)
        try:
            warm = st.range_search_batch(inp.los[0], inp.his[0])
        except BaseException:
            st.close()
            raise
        phase.setup.append(clock() - t0)
        phase.attempted += len(warm)
        phase.mismatch(scan_errors(warm, *warm_want))
        return st

    st = setup()
    try:
        again = SetupSchedule(sizes.setup_builds - 1, seconds)

        # In-process mirrors of the shard trees, built from the slices
        # the workers were loaded with.  Every write is replayed on them
        # between the timed calls, so they follow the workers' history.
        part = st.partitioner
        cuts = np.searchsorted(part.shard_of(inp.keys),
                               np.arange(N_SHARDS + 1))
        mirrors = []
        for s in range(N_SHARDS):
            a, b = int(cuts[s]), int(cuts[s + 1])
            t0 = clock()
            mirrors.append(HarmoniaTree.from_sorted(
                inp.keys[a:b], inp.values[a:b],
                fanout=FANOUT, fill=FILL))
            if spans is not None:
                spans.add("layout.build", -1, t0, clock())

        rnd = 0
        start = clock()
        deadline = start + seconds
        while clock() < deadline and rnd < len(inp.inserts):
            i = rnd % sizes.read_pool
            los, his = inp.los[i], inp.his[i]
            if spans is not None:
                a = clock()
                jobs = _range_jobs(part, los, his)
                spans.add("shard.scatter", rnd, a, clock())
            res, t0, t1 = phase.call(los.size, st.range_search_batch, los, his)
            phase.record(rnd, "read", t1 - t0, los.size)
            if res is not None:
                phase.mismatch(scan_errors(res, *oracle.windows(los, his)))
            if spans is not None:
                spans.add("shard.request", rnd, t0, t1)
                per_query, slowest = _mirror_scans(spans, rnd, mirrors, jobs,
                                                   los.size)
                spans.sample("shard.worker_exec", slowest)
                spans.sample("search.rows_per_scan", sum(
                    p[0].size for parts in per_query for p in parts)
                    / los.size)
                phase.identity(res is not None
                               and _same_scans(res, per_query))

            ops = inp.inserts[rnd]
            a = clock()
            _, order, bounds = part.scatter(inp.ins_keys[rnd])
            scattered = clock()
            res, t0, t1 = phase.call(len(ops), st.apply_batch, ops)
            phase.record(rnd, "write", t1 - t0, len(ops))
            phase.mismatch(outcome_errors(res, (len(ops), 0, 0), len(ops)))
            oracle.insert(inp.ins_keys[rnd], inp.ins_vals[rnd])
            slowest, got = 0.0, [0, 0, 0, 0]
            for s in range(N_SHARDS):
                sel = order[bounds[s]:bounds[s + 1]].tolist()
                if not sel:
                    continue
                c = clock()
                mres = mirrors[s].apply_batch([ops[j] for j in sel])
                d = clock()
                slowest = max(slowest, d - c)
                got = [g + x for g, x in zip(got, (
                    mres.inserted, mres.updated, mres.deleted, mres.failed))]
                if spans is not None:
                    spans.add("update.apply", rnd, c, d)
                    spans.sample("update.split_leaves_per_op",
                                 mres.split_leaves / len(sel))
            if spans is not None:
                spans.add("shard.scatter", rnd, a, scattered)
                spans.add("shard.request", rnd, t0, t1)
                spans.sample("shard.worker_exec", slowest)
                phase.identity(res is not None and got == [
                    res.inserted, res.updated, res.deleted, res.failed])
                for s in range(N_SHARDS):
                    a = clock()
                    st.ping(s)
                    spans.add("shard.rtt", rnd, a, clock())
            if again.due(clock() - start):
                setup().close()
            rnd += 1
        if rnd == len(inp.inserts):
            print(f"note: scan_shard ran all {rnd} prebuilt rounds before "
                  f"the deadline", file=sys.stderr)

        keys, values = st.range_search(int(oracle.keys[0]),
                                       int(oracle.keys[-1]))
        phase.mismatch(contents_errors(keys, values, oracle.keys,
                                       oracle.values))
        phase.mismatch(abs(len(st) - oracle.keys.size))
    finally:
        st.close()
    # The worker layouts are not visible to the client: footprint and
    # occupancy come from the mirrors, which replayed every write.
    layouts = [m.layout for m in mirrors]
    phase.bytes_per_key = (sum(layout_bytes(lay) for lay in layouts)
                           / sum(lay.n_keys for lay in layouts))
    phase.layer["layout.occupancy"] = (
        sum(lay.n_keys for lay in layouts)
        / sum(lay.n_leaves * lay.slots for lay in layouts))
    return phase


DRIVERS = {
    "uniform_read": uniform_read,
    "zipf_rw_epoch": zipf_rw_epoch,
    "scan_shard": scan_shard,
}
