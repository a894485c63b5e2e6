"""``repro.join`` — dual-tree merge-joins and bounded-memory tiling.

Two read surfaces the PR 1–9 stack made possible (ROADMAP "new
scenarios"): :func:`merge_join` walks one Harmonia tree's leaf region as
a sorted probe stream through another tree's packed-leaf lookup (its
work model is the JZ-tree style hinted dual walk), and
:class:`TileScheduler` drives any batch in fixed-size tiles so peak
lookup memory is O(tile) (the FPGA level-wise batch-search
discipline).  See docs/join.md.

Exports resolve lazily (PEP 562): ``core/stream.py`` imports
``repro.join.tiles`` for the tile scheduler, while ``mergejoin`` imports
``core/tree.py`` — eager re-exports here would close that cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "TileConfig": "repro.join.tiles",
    "TileScheduler": "repro.join.tiles",
    "DEFAULT_TILE_SIZE": "repro.join.tiles",
    "merge_join": "repro.join.mergejoin",
    "JoinResult": "repro.join.mergejoin",
    "sort_merge_reference": "repro.join.mergejoin",
    "JOIN_MODES": "repro.join.mergejoin",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.join' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
