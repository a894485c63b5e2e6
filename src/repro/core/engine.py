"""Host batch point lookup, and the GPU work model kept beside it.

Two different things live in this module, and only the first computes
results.

**The host lookup** (:class:`BatchQueryEngine`).  §3.2.1 stores every
leaf in one contiguous block, so the real leaf keys form one globally
sorted array once the ``KEY_MAX`` pads between rows are removed
(what a :class:`~repro.core.snapshot.Snapshot` stores).  A batch of point lookups is therefore one ``np.searchsorted``
of the batch over that block, a gather of the values, and a miss mask —
the internal levels are never walked.  PSA (§4.1) still pays on the host:
a PSA-ordered batch makes neighbouring binary searches land on
neighbouring leaves, which measures ~4× faster than the same batch in
arrival order on a 2^20-key tree.  The lookup runs on the calling thread:
splitting a batch over a thread pool measured 1.15–2.11× *slower* than
one thread on a 2-vCPU host, so the engine has no pool.

**The GPU work model** (:func:`traversal_profile`).  On the GPU the
paper's kernel does walk the tree level by level, and the walk is what
Figure 12 measures: how many distinct nodes each level of a batch
touches (the host analog of ``gld_transactions``), whether a level's
frontier runs are long enough for one grouped search per node or fall
back to a per-query broadcast compare, and whether that broadcast sweeps
only the per-level NTG scan window.  :func:`traversal_profile` derives
those counts — :class:`EngineStats` — from each query's leaf and the
parent map.  ``ext_engine``, ``ext_join``, ``fig12``, ``bench_engine``
and the obs recorder consume it; the lookup never does.

:attr:`BatchQueryEngine.last_stats` computes the profile of the most
recent batch on first access, so a lookup nobody inspects pays nothing
for it.  With an obs recorder enabled it is computed eagerly instead, and
the two costs are recorded as separate spans: ``engine.lookup`` and
``engine.profile``.

Caching discipline: the engine binds to one snapshot.  Batch updates
replace the snapshot (phase semantics), so holders re-bind by identity
check — see :meth:`repro.core.tree.HarmoniaTree.engine`.  The work model
walks the snapshot's layout, derived on the first profile.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.constants import NOT_FOUND, VALUE_DTYPE
from repro.core.layout import HarmoniaLayout
from repro.core.search import locate_leaves_bounds
from repro.core.snapshot import Snapshot
from repro.errors import ConfigError
from repro.utils.validation import ensure_key_array

_clock = time.perf_counter

#: Minimum mean frontier run length at which the modelled kernel serves a
#: level with one grouped search per distinct node; shorter runs fall back
#: to the per-query broadcast compare.
GROUP_THRESHOLD = 8


@dataclass(frozen=True)
class EngineStats:
    """GPU work model of one batch (see :func:`traversal_profile`).

    ``unique_nodes_per_level[l]`` counts the frontier *runs* at level
    ``l`` — for a PSA-grouped batch exactly the distinct nodes visited,
    the host-side analog of the simulator's ``gld_transactions``.
    ``grouped_levels`` / ``broadcast_levels`` count internal levels the
    modelled kernel serves with each strategy.  ``issue_sorted`` is the
    batch's PSA metadata.
    """

    n_queries: int
    height: int
    unique_nodes_per_level: np.ndarray  # (height,) int64
    grouped_levels: int
    broadcast_levels: int
    issue_sorted: Optional[bool]  #: PSA metadata, None when unknown
    #: Broadcast levels that sweep only the NTG scan window (a multiple
    #: of that level's degree) instead of the full row.
    capped_levels: int = 0
    #: True for the monotone dual-walk model of an ascending batch: the
    #: frontier carries lower-bound hints instead of per-query nodes.
    hinted: bool = False

    @property
    def total_node_reads(self) -> int:
        """Distinct node-row reads of the compacted traversal."""
        return int(self.unique_nodes_per_level.sum())

    @property
    def naive_node_reads(self) -> int:
        """Row reads the naive per-query traversal would have performed."""
        return int(self.n_queries) * int(self.height)

    @property
    def compaction_ratio(self) -> float:
        """How many times fewer node reads than the naive path (>= 1)."""
        reads = self.total_node_reads
        if reads == 0:
            return 1.0
        return self.naive_node_reads / reads

    def record_to(self, rec) -> None:
        """Publish this work model into an obs recorder."""
        rec.counter("engine.batches")
        rec.counter("engine.queries", self.n_queries)
        rec.counter("engine.levels.grouped", self.grouped_levels)
        rec.counter("engine.levels.broadcast", self.broadcast_levels)
        rec.counter("engine.levels.capped", self.capped_levels)
        if self.hinted:
            rec.counter("engine.hinted_batches")
        rec.counter("engine.node_reads", self.total_node_reads)
        nq = self.n_queries
        for lvl in range(self.height):
            u = int(self.unique_nodes_per_level[lvl])
            rec.counter(f"engine.unique_nodes.l{lvl}", u)
            if u > 0 and nq > 0:
                rec.histogram("engine.run_length", nq / u)


def ensure_ascending(q: np.ndarray) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless ``q`` is
    ascending — the contract of every hinted (dual-walk) batch."""
    if q.size > 1 and np.any(q[1:] < q[:-1]):
        raise ConfigError("a hinted batch must be ascending (sorted)")


def traversal_profile(
    layout: HarmoniaLayout,
    queries,
    hinted: bool = False,
    scan_widths=None,
    issue_sorted: Optional[bool] = None,
) -> EngineStats:
    """The per-level work the paper's GPU kernel does for one batch.

    Each query's node at every level follows from its leaf (one binary
    search over the leaf bounds,
    :func:`~repro.core.search.locate_leaves_bounds`)
    and the parent map (Equation 1 read backwards).  A level's frontier
    runs are the maximal stretches of queries sharing a node; by the
    disjoint-children property of Equation 1 their count never falls
    from one level to the next.  An internal level counts as grouped when
    its runs average at least :data:`GROUP_THRESHOLD` queries, else as
    broadcast; a broadcast level is capped when ``scan_widths`` (per
    level, from :func:`repro.core.ntg.level_scan_widths`) narrows its
    sweep below the full row.

    ``hinted=True`` models the dual walk of an **ascending** batch
    (:meth:`BatchQueryEngine.execute_hinted`): the frontier is the list
    of distinct nodes, so every internal level is grouped.  It raises
    :class:`~repro.errors.ConfigError` on a batch that is not ascending.
    """
    q = ensure_key_array(np.asarray(queries), "queries")
    nq, h = q.size, layout.height
    if hinted:
        ensure_ascending(q)
        issue_sorted = True
    if scan_widths is not None:
        scan_widths = tuple(int(w) for w in scan_widths)
        if len(scan_widths) != h:
            raise ConfigError(
                f"scan_widths length {len(scan_widths)} != height {h}"
            )
        if any(w < 1 for w in scan_widths):
            raise ConfigError("scan_widths entries must be >= 1")
    uniq = np.zeros(h, dtype=np.int64)
    grouped = broadcast = capped = 0
    if nq:
        node = locate_leaves_bounds(layout, q) + layout.leaf_start
        # Children of all internal nodes fill BFS slots 1..n_nodes-1 in
        # parent order, so parent[i - 1] is the parent of node i.
        parent = np.repeat(
            np.arange(layout.leaf_start, dtype=np.int64),
            np.diff(layout.prefix_sum[: layout.leaf_start + 1]),
        )
        for lvl in range(h - 1, -1, -1):
            runs = 1 + int(np.count_nonzero(node[1:] != node[:-1]))
            uniq[lvl] = runs
            if lvl < h - 1:
                if hinted or runs * GROUP_THRESHOLD <= nq:
                    grouped += 1
                else:
                    broadcast += 1
                    if (scan_widths is not None
                            and scan_widths[lvl] < layout.slots):
                        capped += 1
            if lvl:
                node = parent[node - 1]
    return EngineStats(
        nq, h, uniq, grouped, broadcast, issue_sorted, capped, hinted,
    )


class _BatchProfile:
    """One lookup batch's work-model inputs: its issue-order queries,
    ``hinted``, ``issue_sorted`` and ``scan_widths`` (a zero-argument
    callable or None).  :attr:`stats` profiles the batch on first read.
    Every lookup makes its own, so concurrent batches on one engine never
    profile each other's queries."""

    def __init__(self, snapshot: Snapshot, q: np.ndarray, hinted: bool,
                 issue_sorted: Optional[bool], widths) -> None:
        self.snapshot = snapshot
        self.q = q
        self.hinted = hinted
        self.issue_sorted = issue_sorted
        self.widths = widths

    @cached_property
    def stats(self) -> EngineStats:
        return traversal_profile(
            self.snapshot.layout, self.q, hinted=self.hinted,
            scan_widths=self.widths() if self.widths is not None else None,
            issue_sorted=self.issue_sorted,
        )


class BatchQueryEngine:
    """Batch point lookup over one snapshot's packed leaf block.

    Drop-in replacement for :func:`repro.core.search.search_batch`
    (bit-identical results on any query order); fastest when the batch
    went through PSA first.  Runs on the calling thread and holds no
    per-batch buffer, so any number of threads may share one engine.
    Binds to a :class:`~repro.core.snapshot.Snapshot` (a bare layout is
    wrapped in one); the lookup reads only the block, so it never derives
    the snapshot's layout — :attr:`last_stats` does.
    """

    def __init__(self, snapshot) -> None:
        if isinstance(snapshot, HarmoniaLayout):
            snapshot = Snapshot.of_layout(snapshot)
        elif not isinstance(snapshot, Snapshot):
            raise ConfigError(
                "BatchQueryEngine needs a Snapshot or a HarmoniaLayout"
            )
        self.snapshot = snapshot
        self._last: Optional[_BatchProfile] = None

    @property
    def layout(self) -> HarmoniaLayout:
        """The snapshot's layout — derived on first access; only the work
        model reads it."""
        return self.snapshot.layout

    @property
    def last_stats(self) -> Optional[EngineStats]:
        """GPU work model of the most recent batch (None before the
        first), computed by :func:`traversal_profile` on first access.

        The engine keeps a reference to that batch's queries until the
        next batch, so a caller that reuses its query buffer must read
        this before overwriting it.  With several threads on one engine,
        "most recent" is whichever batch finished last.
        """
        last = self._last
        return None if last is None else last.stats

    # ------------------------------------------------------------- execution

    def execute(
        self,
        queries,
        issue_sorted: Optional[bool] = None,
        overlay=None,
    ) -> np.ndarray:
        """Batch point lookup; values aligned with ``queries`` as given
        (no PSA restore — use :meth:`execute_prepared` for that).

        ``issue_sorted`` is PSA metadata carried into the stats.
        ``overlay`` is an optional ``fn(keys, values)`` post-pass applied
        to the finished batch in place — the snapshot-epoch read path
        passes :meth:`repro.core.delta.DeltaView.overlay_values` here, and
        since the overlay is elementwise by key it commutes with the PSA
        permutation.
        """
        q = ensure_key_array(np.asarray(queries), "queries")
        return self._lookup(q, overlay, False, issue_sorted)

    def execute_hinted(self, queries, overlay=None) -> np.ndarray:
        """Lookup of an **ascending** batch — the merge-join probe path.

        Values come from the same packed-leaf search as :meth:`execute`
        and are byte-identical to it; the only difference is the work
        model the stats describe: the JZ-tree dual walk, whose frontier
        is the list of distinct nodes and which never descends into a
        subtree no probe lands in (``hinted=True`` in
        :func:`traversal_profile`).  Raises
        :class:`~repro.errors.ConfigError` when the batch is not
        ascending.
        """
        q = ensure_key_array(np.asarray(queries), "queries")
        ensure_ascending(q)
        return self._lookup(q, overlay, True, True)

    def execute_prepared(self, prepared, overlay=None) -> np.ndarray:
        """Run a :class:`~repro.core.tree.PreparedBatch` and restore the
        results to arrival order (the full §4.1 contract).

        Restore is a direct scatter through the PSA permutation — the
        inverse permutation is never materialized.  The batch's NTG scan
        widths are read only if the stats are, since only the work model
        uses them.
        """
        psa = prepared.psa
        issue = self._lookup(
            psa.queries, overlay, False, psa.issue_sorted,
            lambda: prepared.scan_widths or None,
        )
        return psa.scatter_restore(issue)

    # -------------------------------------------------------------- internals

    def _lookup(self, q: np.ndarray, overlay, hinted: bool,
                issue_sorted: Optional[bool], widths=None) -> np.ndarray:
        """The one host lookup kernel behind every ``execute*`` entry.

        ``q`` must already be validated (``ensure_key_array``, plus
        :func:`ensure_ascending` for a hinted batch).  ``hinted``,
        ``issue_sorted`` and ``widths`` are what the work model needs to
        profile this batch (see :class:`_BatchProfile`).
        """
        rec = obs.active
        t_start = _clock() if rec.enabled else 0.0
        nq = q.size
        values = np.empty(nq, dtype=VALUE_DTYPE)
        if nq:
            keys, vals = self.snapshot.packed_leaves()
            _search_packed(keys, vals, q, values)
            if overlay is not None:
                overlay(q, values)
        self._last = batch = _BatchProfile(
            self.snapshot, q, hinted, issue_sorted, widths)
        if rec.enabled:
            t_lookup = _clock()
            rec.span_at("engine.lookup", t_start, t_lookup, cat="engine",
                        nq=nq, issue_sorted=issue_sorted)
            batch.stats.record_to(rec)
            rec.span_at("engine.profile", t_lookup, _clock(), cat="engine",
                        nq=nq, hinted=hinted)
        return values


def _search_packed(
    keys: np.ndarray, vals: np.ndarray, q: np.ndarray, out: np.ndarray
) -> None:
    """Resolve ``q`` against the packed leaf block into ``out``; misses
    get ``NOT_FOUND``.  The miss mask is this call's own, so concurrent
    lookups share nothing writable."""
    if keys.size == 0:
        out.fill(NOT_FOUND)
        return
    pos = np.searchsorted(keys, q, side="left")
    # mode="clip" writes straight into ``out`` (mode="raise" buffers it)
    # and maps a query past the last key onto that key, a miss.
    np.take(keys, pos, out=out, mode="clip")  # the key each query hit
    miss = out != q
    np.take(vals, pos, out=out, mode="clip")
    np.putmask(out, miss, NOT_FOUND)


__all__ = [
    "BatchQueryEngine",
    "EngineStats",
    "GROUP_THRESHOLD",
    "ensure_ascending",
    "traversal_profile",
]
