"""One published tree state: the packed leaf block, and the Harmonia
layout derived from it on demand.

§3.2.1 stores every leaf in one consecutive array, so the real leaf keys
of a tree are one globally sorted array — the *packed leaf block*.  Every
host read ends in a binary search over that block, and every write
(§3.2.2: apply the batch, then the movement step that rebuilds the key
region after it) produces the next one.  A :class:`Snapshot` therefore
stores exactly ``(keys, values)``, two read-only sorted arrays of 16 B
per key.  The :class:`~repro.core.layout.HarmoniaLayout` — key region,
prefix-sum child region — is built from the block the first time someone
asks for :attr:`Snapshot.layout`: the GPU models, the work model
(:func:`~repro.core.engine.traversal_profile`), NTG profiling,
``check_invariants`` and the paper figures.  Point reads, range scans,
joins, writes and epoch drains never do.

**Derived fill.**  A bulk load packs leaves at the tree's ``fill``; the
paper's in-place inserts then fill the slack of those leaves without
adding any.  A layout derived after ``n_keys`` keys replaced the
``n_bulk`` the tree was loaded with is built at
``fill * n_keys / n_bulk``, clamped to ``[fill, 1]``
(:attr:`Snapshot.derived_fill`): the leaf count stays where the bulk
load put it while the block grows, and a tree that shrank is derived at
its own fill.

A published snapshot is never written; a write or a drain produces a
fresh one (:meth:`Snapshot.merge`), so every reader pinned to it keeps a
consistent state, and its derived layout is cached for its lifetime.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.constants import DEFAULT_FANOUT
from repro.core.fastbuild import layout_height
from repro.core.layout import HarmoniaLayout
from repro.core.merge import merge_last_wins
from repro.errors import EmptyTreeError
from repro.utils.validation import ensure_block, ensure_fanout, ensure_fill


def _owned(arr: np.ndarray, source) -> np.ndarray:
    """``arr``, copied when it is (or views) the caller's ``source``
    buffer, so a snapshot never aliases memory its caller can write."""
    return arr.copy() if arr is source or arr.base is not None else arr


class Snapshot:
    """The packed leaf block of one tree state plus its lazily derived
    layout.  Construct with :meth:`from_sorted`, :meth:`of_layout` or
    :meth:`merge`."""

    __slots__ = ("keys", "values", "fanout", "fill", "n_bulk", "_layout")

    def __init__(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        fanout: int,
        fill: float,
        n_bulk: Optional[int] = None,
        layout: Optional[HarmoniaLayout] = None,
    ) -> None:
        for arr in (keys, values):
            arr.flags.writeable = False  # shared by every reader
        self.keys = keys
        self.values = values
        self.fanout = fanout
        self.fill = fill
        #: Keys the tree held at its bulk load (the derived-fill base).
        self.n_bulk = int(keys.size if n_bulk is None else n_bulk)
        self._layout = layout

    # ------------------------------------------------------------ builders

    @classmethod
    def from_sorted(
        cls,
        keys,
        values=None,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 1.0,
    ) -> "Snapshot":
        """A bulk load: strictly increasing keys, copied into a fresh
        block.  Rejects everything the layout's bulk build rejects —
        unsorted or duplicate keys, the ``KEY_MAX`` sentinel, values that
        do not fit the value dtype, a bad fanout or fill — here, before
        any state exists."""
        fanout = ensure_fanout(fanout)
        fill = ensure_fill(fill)
        karr, varr = ensure_block(keys, values)
        return cls(_owned(karr, keys), _owned(varr, values), fanout, fill)

    @classmethod
    def of_layout(cls, layout: HarmoniaLayout, fill: float = 1.0,
                  n_bulk: Optional[int] = None) -> "Snapshot":
        """The snapshot of an existing layout (a loaded file, the scalar
        reference executor's output): the block is the layout's packed
        leaves and the layout counts as already derived."""
        keys, values = layout.packed_leaves()
        return cls(keys, values, layout.fanout, fill, n_bulk=n_bulk,
                   layout=layout)

    @staticmethod
    def merge(
        base: Optional["Snapshot"], run, fanout: int, fill: float
    ) -> Optional["Snapshot"]:
        """The snapshot after folding one resolved sorted ``run`` (a
        :class:`~repro.core.delta.DeltaRun`: keys, final values,
        tombstones) into ``base`` — one
        :func:`~repro.core.merge.merge_last_wins`, whose output is the
        next block.  ``base`` ``None`` is the empty tree; the result is
        ``None`` when no key survives, and ``base`` itself when the run
        is empty.  This is the whole write of
        :meth:`~repro.core.tree.HarmoniaTree.apply_batch` after batch
        resolution, and the whole work of an epoch drain."""
        if base is not None and not run.keys.size:
            return base
        if base is None:
            keep = ~run.tombstones
            if not keep.any():
                return None
            return Snapshot(run.keys[keep], run.values[keep], fanout, fill)
        keys, (values,) = merge_last_wins(
            base.keys, (base.values,), run.keys, (run.values,),
            new_keep=~run.tombstones,
        )
        if not keys.size:
            return None
        return Snapshot(keys, values, base.fanout, base.fill,
                        n_bulk=base.n_bulk)

    # ----------------------------------------------------------- the block

    @property
    def n_keys(self) -> int:
        return int(self.keys.size)

    def packed_leaves(self):
        """``(keys, values)`` — the block every host read searches (the
        same accessor :meth:`HarmoniaLayout.packed_leaves` offers)."""
        return self.keys, self.values

    def key_space_bits(self) -> int:
        """Bits spanned by the stored key range — Equation 2's effective
        ``B`` (64 when the range crosses the sign bit); the block's ends
        are its minimum and maximum."""
        if not self.keys.size:
            raise EmptyTreeError("snapshot holds no keys")
        if int(self.keys[0]) < 0:
            return 64
        return max(int(self.keys[-1]).bit_length(), 1)

    # ------------------------------------------------------ derived layout

    @property
    def derived_fill(self) -> float:
        """Leaf fill the layout is derived at (see the module note)."""
        grown = self.fill * self.n_keys / max(self.n_bulk, 1)
        return min(1.0, max(self.fill, grown))

    @property
    def height(self) -> int:
        """The layout's height, counted from :attr:`n_keys`, the fanout
        and :attr:`derived_fill` without deriving the layout
        (:func:`~repro.core.fastbuild.layout_height`)."""
        layout = self._layout
        if layout is not None:
            return layout.height
        return layout_height(self.n_keys, self.fanout, self.derived_fill)

    @property
    def derived(self) -> bool:
        """Whether :attr:`layout` has been built (or handed over)."""
        return self._layout is not None

    @property
    def layout(self) -> HarmoniaLayout:
        """The §3.1 layout of this block, built on first use at
        :attr:`derived_fill` and cached.  Two threads racing the first
        build each produce an identical layout; one of them is kept."""
        layout = self._layout
        if layout is None:
            layout = HarmoniaLayout.from_sorted(
                self.keys, self.values, fanout=self.fanout,
                fill=self.derived_fill,
            )
            self._layout = layout
        return layout

    def resident_bytes(self) -> int:
        """Bytes this snapshot holds: the block, plus the derived layout's
        key, child and value regions once built."""
        total = int(self.keys.nbytes + self.values.nbytes)
        layout = self._layout
        if layout is not None:
            total += (layout.key_region_bytes() + layout.child_region_bytes()
                      + layout.values_bytes())
        return total

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"Snapshot(keys={self.n_keys}, fanout={self.fanout}, "
                f"fill={self.fill}, derived={self.derived})")


__all__ = ["Snapshot"]
