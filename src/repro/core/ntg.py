"""Narrowed Thread-Group traversal — NTG (paper §4.2).

Traditional GPU B+trees give every query ``fanout`` threads; most of those
comparisons are useless (Figure 9a, Figure 10).  NTG serves each query with
a smaller group of ``GS`` threads, packing ``warp_size / GS`` queries per
warp.  Narrowing trades useless comparisons for *query divergence*: one
level's time is set by the slowest group in the warp (Figure 9b).

The model (Equations 3-4):

    TP        ≈ warp_size / (GS · T),   T ∝ S  (max comparison steps)
    TP_a/TP_b ∝ (S_b / S_a) · G        (G = GS_b / GS_a = 2 per halving)

``S`` is estimated by *static profiling*: run ~1000 sample queries through
the index on the CPU, compute each query's per-level sequential comparison
count, group queries into warps exactly as the kernel would, and take the
warp-max step count.  Halve ``GS`` while the predicted ratio exceeds 1.

**Per-level degrees.**  The real CUDA Harmonia (``harmonia.cuh``) does not
stop at one global width: it tunes an ``ntg_degree[depth]`` array, one
group width per tree level, because each level has its own fanout /
occupancy / comparison profile (the root rarely needs 32 lanes; a partly filled
leaf level rarely needs more than a handful).  The kernel can only *split*
groups as the frontier descends — once lanes have diverged to different
children they cannot re-merge — so the degree vector is non-increasing
with depth.  :func:`choose_level_degrees` picks the optimal such vector by
dynamic programming over the per-level profiled step costs (the same
Equation 3/4 cost model, minimized exactly under the monotone constraint
instead of greedily), and :func:`choose_group_size` attaches it to the
returned :class:`NTGSelection` next to the aggregate single-width choice.
:func:`level_scan_widths` derives from the same trace the per-level
comparison-window widths the host engine's broadcast fallback uses to
avoid sweeping whole rows (a narrowed degree means most queries resolve
within a few chunks).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.constants import KEY_MAX as _KEY_MAX
from repro.core.layout import HarmoniaLayout
from repro.core.search import traverse_batch
from repro.errors import ConfigError
from repro.utils.validation import ensure_positive, ensure_power_of_two

#: Sample size the paper uses for static profiling ("for example, 1000
#: queries", §4.2).
DEFAULT_PROFILE_SAMPLE = 1000


def fanout_group_size(fanout: int, warp_size: int = 32) -> int:
    """The traditional (un-narrowed) group size: ``fanout`` threads per
    query, capped at the warp (§4.2 footnote 2), rounded up to a power of
    two so groups tile a warp exactly."""
    gs = 1
    while gs < fanout:
        gs <<= 1
    return min(gs, warp_size)


def group_steps(comparisons: np.ndarray, gs: int) -> np.ndarray:
    """Comparison steps a ``gs``-thread group needs: the group sweeps the
    node's keys ``gs`` at a time with an early exit once the target child is
    identified, so ``ceil(comparisons / gs)`` steps (min 1)."""
    steps = -(-comparisons // gs)
    return np.maximum(steps, 1)


def warp_max_steps(
    comparisons: np.ndarray, gs: int, warp_size: int = 32
) -> np.ndarray:
    """Per-warp, per-level *max* step count (the serialization the SIMT
    model imposes — Equation 4's ``S``).

    ``comparisons`` is the trace matrix ``(height, n_queries)``; queries are
    packed into warps in issue order, ``warp_size // gs`` per warp.  Returns
    ``(height, n_warps)``.
    """
    warp_size = ensure_power_of_two("warp_size", warp_size)
    gs = ensure_power_of_two("gs", gs)
    if gs > warp_size:
        raise ConfigError(f"group size {gs} exceeds warp size {warp_size}")
    qpw = warp_size // gs
    h, nq = comparisons.shape
    n_warps = -(-nq // qpw)
    steps = group_steps(comparisons, gs)
    padded = np.full((h, n_warps * qpw), 1, dtype=steps.dtype)
    padded[:, :nq] = steps
    return padded.reshape(h, n_warps, qpw).max(axis=2)


@dataclass(frozen=True)
class NTGProfile:
    """Profiled behaviour of one candidate group size."""

    gs: int
    queries_per_warp: int
    #: Mean over warps of the summed per-level max steps — the model's S.
    avg_warp_steps: float
    #: Mean warp-max steps per level (diagnostics; the paper profiles only
    #: the last levels since PSA keeps upper levels coherent).
    per_level: np.ndarray

    def throughput_proxy(self, warp_size: int = 32) -> float:
        """Equation 3 up to a constant: queries per warp / S."""
        if self.avg_warp_steps <= 0:
            return float("inf")
        return self.queries_per_warp / self.avg_warp_steps


@dataclass(frozen=True)
class NTGSelection:
    """Result of the §4.2 narrowing procedure."""

    group_size: int
    profiles: List[NTGProfile] = field(default_factory=list)
    #: Equation-4 ratios observed at each halving step, aligned with
    #: ``profiles[1:]`` (ratio of profile i over profile i-1).
    ratios: List[float] = field(default_factory=list)
    #: Per-level group widths, ``harmonia.cuh``'s ``ntg_degree[depth]``:
    #: one entry per tree level, root first, non-increasing with depth
    #: (groups can split as the frontier descends but never re-merge).
    #: Empty for legacy selections built before per-level profiling.
    ntg_degrees: tuple = ()
    #: Per-level key-window widths for the host engine's broadcast
    #: fallback: the smallest multiple of that level's degree covering
    #: the 95th-percentile comparison count.  Aligned with
    #: ``ntg_degrees``; empty when per-level profiling was skipped.
    scan_widths: tuple = ()


def profile_group_size(
    comparisons: np.ndarray,
    gs: int,
    warp_size: int = 32,
    levels: Optional[int] = None,
) -> NTGProfile:
    """Profile one group size on a comparison-trace matrix.

    ``levels`` restricts the profile to the last ``levels`` tree levels
    (None = all): the paper's shortcut, valid because PSA keeps earlier
    levels path-coherent.
    """
    if levels is not None:
        levels = ensure_positive("levels", levels)
        comparisons = comparisons[-levels:]
    wmax = warp_max_steps(comparisons, gs, warp_size)
    per_level = wmax.mean(axis=1)
    return NTGProfile(
        gs=gs,
        queries_per_warp=warp_size // gs,
        avg_warp_steps=float(wmax.sum(axis=0).mean()),
        per_level=per_level,
    )


def choose_level_degrees(
    full_scan: np.ndarray,
    early_exit: np.ndarray,
    warp_size: int = 32,
    min_gs: int = 1,
    fanout_gs: Optional[int] = None,
) -> tuple:
    """Pick the optimal non-increasing per-level degree vector.

    Candidates at every level are the halving chain ``fanout_gs,
    fanout_gs/2, …, min_gs``.  A level's cost under degree ``g`` is the
    total warp-step-slot count ``warp_max_steps(c_l, g).sum()`` — the exact
    quantity Equation 3's ``S`` aggregates — using the full-scan comparison
    row at the fanout width (the traditional kernel sweeps whole nodes) and
    the early-exit row below it.  The kernel can only *split* groups as the
    frontier descends, so the vector must be non-increasing with depth;
    that constraint makes the problem a longest-chain DP rather than h
    independent argmins.  Ties break toward the wider degree (fewer splits,
    better locality).

    ``full_scan`` / ``early_exit`` are ``(height, n_queries)`` comparison
    matrices in issue order.  Returns a tuple of length ``height``.
    """
    warp_size = ensure_power_of_two("warp_size", warp_size)
    min_gs = ensure_power_of_two("min_gs", min_gs)
    if fanout_gs is None:
        fanout_gs = warp_size
    fanout_gs = ensure_power_of_two("fanout_gs", fanout_gs)
    if min_gs > fanout_gs:
        raise ConfigError(
            f"min_gs {min_gs} exceeds the fanout group size {fanout_gs}"
        )
    h = early_exit.shape[0]
    if h == 0:
        return ()
    candidates: List[int] = []
    g = fanout_gs
    while True:
        candidates.append(g)
        if g <= min_gs:
            break
        g //= 2
    ncand = len(candidates)
    cost = np.empty((h, ncand), dtype=np.float64)
    for lvl in range(h):
        for i, gs in enumerate(candidates):
            row = full_scan[lvl] if gs == fanout_gs else early_exit[lvl]
            cost[lvl, i] = float(
                warp_max_steps(row[None, :], gs, warp_size).sum()
            )
    # DP: candidates are ordered widest-first, and "non-increasing degree
    # with depth" means the candidate *index* is non-decreasing with depth.
    # best[i] = cheapest cost of levels 0..lvl with level lvl at candidate
    # i; the parent may sit at any index <= i, so a strict-improvement
    # prefix-min (ties keep the earlier = wider index) gives both the
    # transition and the wide tie-break.
    best = cost[0].copy()
    parent = np.zeros((h, ncand), dtype=np.int64)
    for lvl in range(1, h):
        running = np.inf
        arg = 0
        pref = np.empty(ncand, dtype=np.float64)
        for i in range(ncand):
            if best[i] < running:
                running = best[i]
                arg = i
            pref[i] = running
            parent[lvl, i] = arg
        best = cost[lvl] + pref
    i = int(np.argmin(best))  # first minimum → widest on ties
    degrees = [0] * h
    for lvl in range(h - 1, 0, -1):
        degrees[lvl] = candidates[i]
        i = int(parent[lvl, i])
    degrees[0] = candidates[i]
    return tuple(degrees)


def level_scan_widths(
    early_exit: np.ndarray,
    degrees: Sequence[int],
    slots: int,
    quantile: float = 0.95,
) -> tuple:
    """Per-level comparison-window widths for the broadcast fallback.

    For each level, the smallest multiple of that level's degree covering
    the ``quantile``-th percentile of the profiled early-exit comparison
    counts, capped at ``slots``.  The engine compares only the first
    ``width`` columns of each node row and runs an exact fix-up pass for
    the rare queries that exhaust the window, so results are unchanged
    while the common case touches a fraction of the row.
    """
    slots = ensure_positive("slots", slots)
    if not 0.0 < quantile <= 1.0:
        raise ConfigError(f"quantile must be in (0, 1], got {quantile}")
    h = early_exit.shape[0]
    if h != len(degrees):
        raise ConfigError(
            f"degrees length {len(degrees)} != trace height {h}"
        )
    widths: List[int] = []
    for lvl, gs in enumerate(degrees):
        row = np.asarray(early_exit[lvl])
        if row.size == 0:
            widths.append(slots)
            continue
        k = min(row.size - 1, int(quantile * row.size))
        q = int(np.partition(row, k)[k])
        w = -(-max(q, 1) // int(gs)) * int(gs)
        widths.append(min(max(w, 1), slots))
    return tuple(widths)


def choose_group_size(
    layout: HarmoniaLayout,
    sample_queries: Sequence[int],
    warp_size: int = 32,
    levels: Optional[int] = 2,
    min_gs: int = 1,
) -> NTGSelection:
    """The paper's narrowing loop: start at the fanout-based group size and
    halve while Equation 4 predicts a gain.

    ``sample_queries`` should be in *issue order* (i.e. already PSA-permuted
    when PSA is enabled) because warp composition depends on it.

    Besides the aggregate single width the selection carries the per-level
    ``ntg_degrees`` vector (:func:`choose_level_degrees`) and matching
    ``scan_widths`` (:func:`level_scan_widths`), both derived from the same
    traversal trace.
    """
    warp_size = ensure_power_of_two("warp_size", warp_size)
    min_gs = ensure_power_of_two("min_gs", min_gs)
    trace = traverse_batch(layout, sample_queries)
    # The un-narrowed baseline is the traditional fanout-wide kernel, which
    # compares *every* key in the node (no early exit — §4.2, Figure 9a);
    # narrowed groups sweep sequentially and stop at the target child.
    nkeys_per_node = np.sum(
        layout.key_region != _KEY_MAX, axis=1
    ).astype(np.int64)
    full_scan = np.maximum(nkeys_per_node[trace.node_idx], 1)
    early_exit = trace.comparisons

    gs = fanout_group_size(layout.fanout, warp_size)
    current = profile_group_size(full_scan, gs, warp_size, levels)
    profiles = [current]
    ratios: List[float] = []
    while current.gs > min_gs:
        candidate = profile_group_size(
            early_exit, current.gs // 2, warp_size, levels
        )
        # Equation 4 with G = GS_before / GS_after = 2.
        ratio = (current.avg_warp_steps / candidate.avg_warp_steps) * 2.0
        profiles.append(candidate)
        ratios.append(float(ratio))
        if ratio <= 1.0:
            break
        current = candidate
    ntg_degrees = choose_level_degrees(
        full_scan, early_exit, warp_size, min_gs, fanout_gs=gs
    )
    scan_widths = level_scan_widths(early_exit, ntg_degrees, layout.slots)
    return NTGSelection(
        group_size=current.gs,
        profiles=profiles,
        ratios=ratios,
        ntg_degrees=ntg_degrees,
        scan_widths=scan_widths,
    )


class SelectionCache:
    """Small LRU of §4.2 profiling results, keyed by layout identity.

    Profiling is per *snapshot* — the step model depends only on the
    layout's node geometry — so a selection is reusable until the snapshot
    object is replaced.  A single-slot cache (the previous design) thrashes
    whenever callers alternate between layouts, e.g.
    :class:`~repro.core.epoch.EpochManager` handing out fresh tree facades
    over a few live snapshots, or a sharded service round-robining shard
    trees.  This keeps the last ``capacity`` selections instead.

    Keys are ``(id(layout), warp_size, levels)``; the entry stores a
    ``weakref`` to the layout and :meth:`get` validates both identity and
    liveness, so a dead snapshot's recycled ``id()`` can never alias a
    stale selection and the cache never pins retired snapshots in memory.
    Thread-safe: epoch/shard readers profile concurrently.
    """

    def __init__(self, capacity: int = 8) -> None:
        ensure_positive("capacity", capacity)
        # Floor of two live layouts: the dual-tree join alternates
        # lookups between both sides in a tight loop, and a capacity-1
        # cache would re-profile on every alternation (LRU thrash).
        self.capacity = max(int(capacity), 2)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, tuple]" = OrderedDict()

    def get(
        self,
        layout: HarmoniaLayout,
        warp_size: int,
        levels: Optional[int],
    ) -> Optional[NTGSelection]:
        key = (id(layout), warp_size, levels)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            ref, selection = entry
            if ref() is not layout:  # id() reuse after gc — stale entry
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return selection

    def put(
        self,
        layout: HarmoniaLayout,
        warp_size: int,
        levels: Optional[int],
        selection: NTGSelection,
    ) -> None:
        key = (id(layout), warp_size, levels)
        with self._lock:
            self._entries[key] = (weakref.ref(layout), selection)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: Process-wide selection cache used by
#: :meth:`~repro.core.tree.HarmoniaTree.prepare_queries`.  Module-level
#: (not per tree) because distinct tree facades over the same snapshot —
#: the :class:`~repro.core.epoch.EpochManager` pattern — should share one
#: profile.
selection_cache = SelectionCache()


__all__ = [
    "DEFAULT_PROFILE_SAMPLE",
    "fanout_group_size",
    "group_steps",
    "warp_max_steps",
    "NTGProfile",
    "NTGSelection",
    "profile_group_size",
    "choose_level_degrees",
    "level_scan_widths",
    "choose_group_size",
    "SelectionCache",
    "selection_cache",
]
