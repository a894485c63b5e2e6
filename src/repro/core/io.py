"""Persistence: save/load Harmonia layouts and trees.

The array layout makes persistence trivial and fast — exactly the property
a real deployment uses to ship the GPU image around (HB+Tree similarly
reorganizes into a continuous buffer before upload).  A tree is saved as
the state it holds, its packed leaf block; a layout as its regions.  Each
file is a single ``.npz`` with a format-version guard so future changes
stay loadable or fail loudly.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from repro.core.layout import HarmoniaLayout
from repro.core.snapshot import Snapshot
from repro.core.tree import HarmoniaTree
from repro.errors import ConfigError
from repro.utils.validation import ensure_block, ensure_fanout, ensure_fill

#: Bump when the on-disk schema changes.  Version 2 stores a tree as its
#: visible packed leaf block (:func:`save_tree`); version 1 — what
#: :func:`save_layout` still writes, and what trees were saved as before —
#: stores a layout's arrays.
FORMAT_VERSION = 2
LAYOUT_FORMAT_VERSION = 1

_TREE_REQUIRED = ("fanout", "fill", "n_bulk", "keys", "values")

_REQUIRED = (
    "format_version",
    "fanout",
    "height",
    "n_keys",
    "key_region",
    "prefix_sum",
    "leaf_values",
    "level_starts",
)

PathLike = Union[str, "os.PathLike[str]"]


def save_layout(layout: HarmoniaLayout, path: PathLike) -> None:
    """Serialize a layout to ``path`` (``.npz``, uncompressed — the arrays
    are incompressible key material and load speed matters)."""
    np.savez(
        path,
        format_version=np.int64(LAYOUT_FORMAT_VERSION),
        fanout=np.int64(layout.fanout),
        height=np.int64(layout.height),
        n_keys=np.int64(layout.n_keys),
        key_region=layout.key_region,
        prefix_sum=layout.prefix_sum,
        leaf_values=layout.leaf_values,
        level_starts=layout.level_starts,
    )


def load_layout(path: PathLike, validate: bool = True) -> HarmoniaLayout:
    """Load a layout saved by :func:`save_layout`.

    ``validate`` (default on) runs the full §3.1 invariant check after
    loading — corrupt or truncated files fail here rather than during a
    later traversal.
    """
    with np.load(path) as data:
        missing = [k for k in _REQUIRED if k not in data]
        if missing:
            raise ConfigError(f"{path}: not a Harmonia layout (missing {missing})")
        version = int(data["format_version"])
        if version != LAYOUT_FORMAT_VERSION:
            raise ConfigError(
                f"{path}: layout format version {version} unsupported "
                f"(this build reads {LAYOUT_FORMAT_VERSION})"
            )
        layout = HarmoniaLayout(
            fanout=int(data["fanout"]),
            height=int(data["height"]),
            key_region=data["key_region"],
            prefix_sum=data["prefix_sum"],
            leaf_values=data["leaf_values"],
            level_starts=data["level_starts"],
            n_keys=int(data["n_keys"]),
        )
    if validate:
        layout.check_invariants()
    return layout


def save_tree(tree: HarmoniaTree, path: PathLike) -> None:
    """Persist what ``tree`` shows a reader: its visible packed leaf
    block (a pinned view's delta merged in), fanout, fill and bulk-load
    size.  The layout is never built: :func:`load_tree` derives it on
    first use, as every tree does."""
    keys, values = tree._merged_items()
    if keys.size == 0:
        raise ConfigError("refusing to save an empty tree")
    snap = tree.snapshot
    np.savez(
        path,
        format_version=np.int64(FORMAT_VERSION),
        fanout=np.int64(tree.fanout),
        fill=np.float64(snap.fill if snap is not None else tree._fill),
        n_bulk=np.int64(snap.n_bulk if snap is not None else keys.size),
        keys=keys,
        values=values,
    )


def load_tree(
    path: PathLike, fill: Optional[float] = None, validate: bool = True
) -> HarmoniaTree:
    """Load a tree persisted with :func:`save_tree`.

    ``fill`` overrides the stored occupancy target future writes and the
    derived layout use (a rebuild policy, not part of the stored
    contents); a format-1 file, which stored the layout itself, loads
    through :func:`load_layout` at ``fill`` (default 1.0).  ``validate``
    checks the stored block (strictly ascending keys, no sentinel, values
    in range), the fanout and the fill.
    """
    with np.load(path) as data:
        version = int(data["format_version"]) if "format_version" in data \
            else None
        if version == FORMAT_VERSION:
            missing = [k for k in _TREE_REQUIRED if k not in data]
            if missing:
                raise ConfigError(
                    f"{path}: not a Harmonia tree (missing {missing})")
            keys, values = data["keys"], data["values"]
            fanout = int(data["fanout"])
            stored_fill = float(data["fill"])
            n_bulk = int(data["n_bulk"])
    if version != FORMAT_VERSION:
        return HarmoniaTree(load_layout(path, validate=validate),
                            fill=1.0 if fill is None else fill)
    fill = stored_fill if fill is None else fill
    if validate:
        keys, values = ensure_block(keys, values)
        fanout, fill = ensure_fanout(fanout), ensure_fill(fill)
    return HarmoniaTree(Snapshot(keys, values, fanout, fill, n_bulk=n_bulk),
                        fill=fill)


__all__ = [
    "FORMAT_VERSION",
    "LAYOUT_FORMAT_VERSION",
    "save_layout",
    "load_layout",
    "save_tree",
    "load_tree",
]
