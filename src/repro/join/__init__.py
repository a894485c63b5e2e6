"""``repro.join`` — dual-tree merge-joins.

:func:`merge_join` walks one Harmonia tree's leaf region as a sorted
probe stream through another tree's packed-leaf lookup (its work model
is the JZ-tree style hinted dual walk).  See docs/join.md.

Exports resolve lazily (PEP 562), so importing ``repro.join`` does not
pull in ``core/tree.py`` and ``core/epoch.py`` until a name is used.
"""

from __future__ import annotations

_EXPORTS = {
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
