"""Harmonia — the paper's contribution.

* :mod:`repro.core.layout` — the two-region structure (§3.1): BFS key region
  + prefix-sum child region.
* :mod:`repro.core.search` — scalar and vectorized traversal (§3.2.1).
* :mod:`repro.core.engine` — batch point lookup over the packed leaf
  block (§3.2.1 + §4.1's PSA order), and the per-level GPU work model
  (:func:`~repro.core.engine.traversal_profile`).
* :mod:`repro.core.psa` — partially-sorted aggregation (§4.1).
* :mod:`repro.core.ntg` — narrowed thread-group traversal model (§4.2).
* :mod:`repro.core.snapshot` — one tree state: the packed leaf block it
  stores, and the layout derived from it on demand.
* :mod:`repro.core.update` — per-op batch updates with two-grained locking
  and auxiliary nodes (§3.2.2, Algorithm 1) — the scalar reference path;
  the production write resolves a batch against the block and merges it
  (:meth:`~repro.core.tree.HarmoniaTree.apply_batch`).
* :mod:`repro.core.tree` — :class:`HarmoniaTree`, the user-facing index that
  glues the above together.
"""

from repro.core.config import SearchConfig
from repro.core.engine import BatchQueryEngine, EngineStats
from repro.core.epoch import EpochManager
from repro.core.io import load_layout, load_tree, save_layout, save_tree
from repro.core.layout import HarmoniaLayout
from repro.core.snapshot import Snapshot
from repro.core.stats import layout_stats
from repro.core.tree import HarmoniaTree

__all__ = [
    "HarmoniaLayout",
    "HarmoniaTree",
    "Snapshot",
    "BatchQueryEngine",
    "EngineStats",
    "SearchConfig",
    "EpochManager",
    "save_layout",
    "load_layout",
    "save_tree",
    "load_tree",
    "layout_stats",
]
