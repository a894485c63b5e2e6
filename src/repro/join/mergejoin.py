"""Dual-tree merge-join over Harmonia layouts.

A B+tree's leaf region *is* a sorted stream (§3.1's consecutive leaf
block, stored as each snapshot's packed leaves), so joining two Harmonia trees
never needs to materialize either side into a hash table: ``tree_a``'s
visible items become an ascending probe batch, and ``tree_b`` resolves
it with one binary search over its packed leaf block
(:meth:`~repro.core.engine.BatchQueryEngine.execute_hinted`).  The work
model of that call is the **hinted dual walk** a GPU kernel would run —
each level's search starts from the previous frontier and whole
``tree_b`` subtrees that no probe lands in are pruned before they are
visited, the JZ-tree dual-walk recursion flattened into level order
(:func:`~repro.core.engine.traversal_profile` with ``hinted=True``).

Composition rules:

* :class:`~repro.core.epoch.EpochManager` on either side pins one
  consistent (base, delta) version for the whole join
  (:meth:`~repro.core.epoch.EpochManager.pin`); the pinned delta
  overlays probe values exactly as it overlays point reads.
* :class:`~repro.shard.ShardedTree` on the probe side concatenates its
  shard dumps (contiguous key ranges — sorted union is concatenation);
  on the build side the ascending probe stream is sliced into the
  shards' key ranges via the partitioner, each slice resolves on its
  owning shard, and the shard-local join outputs — themselves disjoint
  sorted runs — are stitched with
  :func:`~repro.core.merge.concat_sorted_runs`.

Match classification is by value sentinel: a probe key is "matched"
when its resolved value differs from :data:`~repro.constants.NOT_FOUND`
— the same convention every batched read in this repo uses, with the
same caveat (a stored value *equal* to the sentinel is
indistinguishable from a miss).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.constants import NOT_FOUND, VALUE_DTYPE
from repro.core.config import SearchConfig
from repro.core.epoch import EpochManager
from repro.core.merge import concat_sorted_runs
from repro.core.tree import HarmoniaTree
from repro.errors import ConfigError

_clock = time.perf_counter

JOIN_MODES = ("inner", "semi", "anti")


@dataclass(frozen=True)
class JoinResult:
    """Output of one :func:`merge_join` call.

    ``keys`` are the qualifying probe keys in ascending order with
    ``values_a`` aligned; ``values_b`` is present for ``mode="inner"``
    only.  ``n_probes`` counts the full probe stream (``tree_a``'s
    visible items), ``n_matches`` the probes that found a partner —
    so ``anti`` results have ``keys.size == n_probes - n_matches``.
    """

    mode: str
    keys: np.ndarray
    values_a: np.ndarray
    values_b: Optional[np.ndarray]
    n_probes: int
    n_matches: int

    @property
    def selectivity(self) -> float:
        """Matched fraction of the probe stream (0.0 for an empty one)."""
        if self.n_probes == 0:
            return 0.0
        return self.n_matches / self.n_probes


def sort_merge_reference(
    side_a: Tuple[np.ndarray, np.ndarray],
    side_b: Tuple[np.ndarray, np.ndarray],
    mode: str = "inner",
) -> JoinResult:
    """Plain numpy sort-merge join of two sorted-unique item arrays —
    the oracle the hypothesis suite pins :func:`merge_join` against."""
    if mode not in JOIN_MODES:
        raise ConfigError(f"mode must be one of {JOIN_MODES}, got {mode!r}")
    ka, va = (np.asarray(x) for x in side_a)
    kb, vb = (np.asarray(x) for x in side_b)
    pos = np.searchsorted(kb, ka)
    pos_c = np.minimum(pos, max(kb.size - 1, 0))
    if kb.size:
        matched = kb[pos_c] == ka
    else:
        matched = np.zeros(ka.size, dtype=bool)
    n_matches = int(np.count_nonzero(matched))
    if mode == "anti":
        keep = ~matched
        return JoinResult("anti", ka[keep], va[keep], None,
                          int(ka.size), n_matches)
    if mode == "semi":
        return JoinResult("semi", ka[matched], va[matched], None,
                          int(ka.size), n_matches)
    return JoinResult(
        "inner", ka[matched], va[matched],
        vb[pos_c[matched]] if kb.size else np.empty(0, dtype=VALUE_DTYPE),
        int(ka.size), n_matches,
    )


# ------------------------------------------------------------- probe side


def _probe_items(tree) -> Tuple[np.ndarray, np.ndarray]:
    """``tree``'s visible sorted items as the (keys, values) probe stream."""
    if isinstance(tree, EpochManager):
        return tree.dump_items()
    if isinstance(tree, HarmoniaTree):
        return tree._merged_items()
    if hasattr(tree, "partitioner"):  # ShardedTree (duck-typed: no dep
        # on the multiprocess tier from the core import graph)
        runs = [tree._dump(s) for s in range(tree.n_shards)]
        return concat_sorted_runs(runs)  # contiguous ranges: disjoint
    raise ConfigError(
        f"merge_join cannot read probe items from {type(tree).__name__}"
    )


# ------------------------------------------------------------- build side


def _classify(
    ka: np.ndarray,
    va: np.ndarray,
    vb: np.ndarray,
    mode: str,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], int]:
    matched = vb != NOT_FOUND
    n_matches = int(np.count_nonzero(matched))
    if mode == "anti":
        keep = ~matched
        return ka[keep], va[keep], None, n_matches
    return (
        ka[matched], va[matched],
        vb[matched] if mode == "inner" else None,
        n_matches,
    )


def merge_join(
    tree_a,
    tree_b,
    mode: str = "inner",
    config: Optional[SearchConfig] = None,
) -> JoinResult:
    """Join two trees on their keys by streaming ``tree_a``'s leaf
    region through ``tree_b``'s hinted dual walk.

    ``mode`` selects the relational flavor: ``"inner"`` returns matched
    keys with both sides' values, ``"semi"`` matched keys with
    ``tree_a``'s values only, ``"anti"`` the unmatched probe keys.
    Either side may be a :class:`~repro.core.tree.HarmoniaTree`, an
    :class:`~repro.core.epoch.EpochManager` (pinned once for the whole
    join) or a :class:`~repro.shard.ShardedTree`.  Results are
    byte-identical to :func:`sort_merge_reference` on both sides'
    visible items.
    """
    if mode not in JOIN_MODES:
        raise ConfigError(f"mode must be one of {JOIN_MODES}, got {mode!r}")
    rec = obs.active
    t_start = _clock() if rec.enabled else 0.0
    ka, va = _probe_items(tree_a)
    keys, vals_a, vals_b, n_matches = _dispatch_build(
        tree_b, ka, va, mode, config
    )
    result = JoinResult(
        mode, keys, vals_a, vals_b, int(ka.size), n_matches
    )
    if rec.enabled:
        rec.counter("join.joins")
        rec.counter("join.probes", result.n_probes)
        rec.counter("join.matches", result.n_matches)
        rec.gauge("join.selectivity", result.selectivity)
        rec.span_at(
            "join.run", t_start, _clock(), cat="join", mode=mode,
            n_probes=result.n_probes, n_out=int(keys.size),
        )
    return result


def _dispatch_build(
    tree_b,
    ka: np.ndarray,
    va: np.ndarray,
    mode: str,
    config: Optional[SearchConfig],
):
    if isinstance(tree_b, EpochManager):
        return _dispatch_build(tree_b.pin(), ka, va, mode, config)
    if isinstance(tree_b, HarmoniaTree):
        vb = tree_b.search_sorted_many(ka, config=config)
        return _classify(ka, va, vb, mode)
    if hasattr(tree_b, "partitioner"):
        return _join_sharded(tree_b, ka, va, mode)
    raise ConfigError(
        f"merge_join cannot probe into {type(tree_b).__name__}"
    )


def _join_sharded(tree_b, ka: np.ndarray, va: np.ndarray, mode: str):
    """Probe a sharded build side: slice the ascending stream by the
    partitioner's key ranges, resolve each slice on its owning shard,
    stitch the disjoint shard-local outputs back together."""
    if ka.size == 0:
        empty_v = np.empty(0, dtype=VALUE_DTYPE)
        return (np.empty(0, dtype=np.int64), empty_v,
                empty_v if mode == "inner" else None, 0)
    ids = tree_b.partitioner.shard_of(ka)
    bounds = np.searchsorted(
        ids, np.arange(tree_b.n_shards + 1), side="left"
    )
    key_runs = []
    va_runs = []
    vb_runs = []
    n_matches = 0
    for s in range(tree_b.n_shards):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        if hi == lo:
            continue
        vb = tree_b.search_many(ka[lo:hi])
        jk, jv, jvb, m = _classify(ka[lo:hi], va[lo:hi], vb, mode)
        n_matches += m
        key_runs.append((jk, jv))
        if mode == "inner":
            vb_runs.append((jk, jvb))
    keys, vals_a = concat_sorted_runs(key_runs)
    vals_b = None
    if mode == "inner":
        vals_b = concat_sorted_runs(vb_runs)[1]
    return keys, vals_a, vals_b, n_matches


__all__ = [
    "JOIN_MODES",
    "JoinResult",
    "merge_join",
    "sort_merge_reference",
]
