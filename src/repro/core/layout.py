"""The Harmonia two-region tree layout (paper §3.1, Figure 4b).

A B+tree is flattened into:

* **key region** — ``key_region[node, slot]``: every node's keys in
  breadth-first order, one fixed-size item of ``fanout - 1`` key slots per
  node, unused slots padded with :data:`~repro.constants.KEY_MAX`;
* **child region** — ``prefix_sum[node]``: the key-region index of the
  node's *first* child.  Child ``i`` (0-based) of ``node`` lives at
  ``prefix_sum[node] + i`` — the paper's Equation 1 with its 1-based ``i`` —
  and the child count is ``prefix_sum[node + 1] - prefix_sum[node]``.

Because all leaves of a B+tree sit at the same depth, BFS places them in one
contiguous block at the end of the key region; ``leaf_start`` marks its
beginning and ``leaf_values`` aligns with it.  Following the real CUDA
Harmonia (``harmonia.cuh``), the key storage is exposed as two regions split
at an explicit boundary: :attr:`internal_keys` (the separator rows of levels
``0 .. height-2``) and :attr:`leaf_keys` (the leaf rows), with
:attr:`key_count_prefix_sum` the flat key-slot index at which the leaf
region begins — the device handle carries exactly this split so the leaf
array can get its own pointer, layout and caching treatment.  Both are
zero-copy views of one backing array, faithful to the CUDA original where
``leaf_keys`` is a pointer *into* the keys allocation.

The prefix-sum array is tiny (8 bytes/node ≈ key region / (fanout-1)),
which is what lets the real system keep it in constant memory + read-only
cache; :meth:`child_region_bytes` exposes the footprint and
:meth:`caching_depth` reports how many *upper levels* of it fit in the
usable constant-memory budget — the levels below pay read-only-cache /
global-memory cost (the simulator consumes this).

**Leaf slack.**  Leaf rows carry slack: a leaf with ``c`` real keys
stores them sorted in slots ``[0, c)`` and pads the tail with ``KEY_MAX``
sentinels, so every per-row ``searchsorted``/``bisect`` works unmodified
and the flattened leaf block stays globally sorted once pads are masked
(:meth:`packed_leaves`).  The optional :attr:`leaf_counts` array caches
the per-leaf fill counts (computed lazily otherwise), and
:meth:`leaf_bounds` the per-leaf routing intervals the work model
descends from.  A tree stores only the packed block and derives this
layout from it on demand (:mod:`repro.core.snapshot`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.btree.iterators import bfs_nodes
from repro.btree.node import InternalNode, LeafNode
from repro.btree.regular import RegularBPlusTree
from repro.constants import (
    CONST_MEMORY_BUDGET_BYTES,
    DEFAULT_FANOUT,
    INDEX_DTYPE,
    KEY_DTYPE,
    KEY_MAX,
    NOT_FOUND,
    VALUE_DTYPE,
)
from repro.errors import EmptyTreeError, InvariantViolation
from repro.utils.prefix import validate_prefix_array
from repro.utils.validation import ensure_fanout


@dataclass
class HarmoniaLayout:
    """Immutable array snapshot of a B+tree in Harmonia form.

    Construct via :meth:`from_regular` or :meth:`from_sorted`; direct
    construction is for tests and internal use.
    """

    fanout: int
    height: int  #: levels including the leaf level (>= 1)
    key_region: np.ndarray  #: (n_nodes, fanout-1) int64, KEY_MAX padded
    prefix_sum: np.ndarray  #: (n_nodes+1,) int64
    leaf_values: np.ndarray  #: (n_leaves, fanout-1) int64, NOT_FOUND padded
    level_starts: np.ndarray  #: (height+1,) first BFS index of each level
    n_keys: int  #: number of stored key/value pairs
    #: Optional per-leaf fill counts (the bulk build hands its chunk
    #: sizes over); ``None`` means they are derived lazily from the
    #: sentinels.
    leaf_counts: Optional[np.ndarray] = None

    # Derived fields (filled in __post_init__).
    n_nodes: int = field(init=False)
    n_leaves: int = field(init=False)
    leaf_start: int = field(init=False)

    def __post_init__(self) -> None:
        self.fanout = ensure_fanout(self.fanout)
        self.n_nodes = int(self.key_region.shape[0])
        self.leaf_start = int(self.level_starts[self.height - 1])
        self.n_leaves = self.n_nodes - self.leaf_start
        # Lazy per-snapshot caches (Python-list views of hot rows, leaf
        # routing bounds, the packed leaf block).  The snapshot discipline
        # makes these safe: no batch update writes the outgoing snapshot —
        # each replaces the layout object for the next phase.
        self._row_lists: dict = {}
        self._prefix_list: Optional[List[int]] = None
        self._leaf_bounds: Optional[np.ndarray] = None
        self._packed: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------- builders

    @classmethod
    def from_regular(cls, tree: RegularBPlusTree) -> "HarmoniaLayout":
        """Flatten a pointer-based B+tree into Harmonia form.

        This is the paper's construction and also the post-batch "movement"
        target (§3.2.2).  O(n_nodes · fanout).
        """
        if len(tree) == 0:
            raise EmptyTreeError("cannot lay out an empty tree")
        fanout = tree.fanout
        slots = fanout - 1
        nodes = list(bfs_nodes(tree))
        n_nodes = len(nodes)

        key_region = np.full((n_nodes, slots), KEY_MAX, dtype=KEY_DTYPE)
        children_counts = np.zeros(n_nodes, dtype=INDEX_DTYPE)
        level_sizes: List[int] = [len(level) for level in tree.level_nodes()]
        level_starts = np.zeros(len(level_sizes) + 1, dtype=INDEX_DTYPE)
        np.cumsum(level_sizes, out=level_starts[1:])

        leaf_start = int(level_starts[tree.height - 1])
        leaf_values = np.full(
            (n_nodes - leaf_start, slots), NOT_FOUND, dtype=VALUE_DTYPE
        )
        for i, node in enumerate(nodes):
            nk = len(node.keys)
            key_region[i, :nk] = node.keys
            if node.is_leaf:
                assert isinstance(node, LeafNode)
                leaf_values[i - leaf_start, :nk] = node.values
            else:
                assert isinstance(node, InternalNode)
                children_counts[i] = len(node.children)

        prefix_sum = np.empty(n_nodes + 1, dtype=INDEX_DTYPE)
        prefix_sum[0] = 1
        np.cumsum(children_counts, out=prefix_sum[1:])
        prefix_sum[1:] += 1

        return cls(
            fanout=fanout,
            height=tree.height,
            key_region=key_region,
            prefix_sum=prefix_sum,
            leaf_values=leaf_values,
            level_starts=level_starts,
            n_keys=len(tree),
        )

    @classmethod
    def from_sorted(
        cls,
        keys: Sequence[int],
        values: Optional[Sequence[int]] = None,
        fanout: int = DEFAULT_FANOUT,
        fill: float = 1.0,
    ) -> "HarmoniaLayout":
        """Bulk-build directly from strictly increasing keys.

        Uses the vectorized constructor (:mod:`repro.core.fastbuild`) —
        byte-identical to flattening a bulk-loaded pointer tree (tests pin
        the equivalence) but O(height) NumPy passes instead of per-node
        Python, which is what makes paper-scale trees practical.
        """
        from repro.core.fastbuild import build_layout_fast

        return build_layout_fast(keys, values, fanout=fanout, fill=fill)

    # ------------------------------------------------------------- accessors

    @property
    def slots(self) -> int:
        """Key slots per node (= fanout - 1)."""
        return self.fanout - 1

    @property
    def internal_keys(self) -> np.ndarray:
        """Separator rows of the internal levels — a zero-copy view of the
        key region above the leaf split (``(leaf_start, slots)``)."""
        return self.key_region[: self.leaf_start]

    @property
    def leaf_keys(self) -> np.ndarray:
        """The leaf rows as their own region (``(n_leaves, slots)``) — the
        ``harmonia.cuh`` ``leaf_keys`` pointer, here a zero-copy view of
        the key region starting at :attr:`key_count_prefix_sum`."""
        return self.key_region[self.leaf_start :]

    @property
    def key_count_prefix_sum(self) -> int:
        """Flat key-slot index where the leaf region begins: the number of
        key slots held by all internal nodes (the split point the real
        implementation stores on its device handle)."""
        return self.leaf_start * self.slots

    def caching_depth(self, budget_bytes: Optional[int] = None) -> int:
        """Number of complete upper levels whose prefix-sum entries fit in
        ``budget_bytes`` of constant memory (default: the named
        :data:`~repro.constants.CONST_MEMORY_BUDGET_BYTES`).

        Child lookups at levels ``< caching_depth`` read prefix-sum entries
        of nodes in those levels — all below ``level_starts[caching_depth]``
        — so they are served from constant memory; lookups at deeper levels
        spill to the read-only cache and pay global-memory transactions.
        The boundary is level-aligned (a level is pinned whole or not at
        all), matching the per-level traversal specialization.
        """
        if budget_bytes is None:
            budget_bytes = CONST_MEMORY_BUDGET_BYTES
        entries = max(int(budget_bytes), 0) // 8
        depth = 0
        while (depth < self.height
               and int(self.level_starts[depth + 1]) <= entries):
            depth += 1
        return depth

    def node_keys(self, node: int) -> np.ndarray:
        """View of one node's key row (padded)."""
        return self.key_region[node]

    def key_count(self, node: int) -> int:
        """Number of real (non-sentinel) keys in ``node``."""
        row = self.key_region[node]
        return int(np.searchsorted(row, KEY_MAX, side="left"))

    def leaf_key_counts(self, copy: bool = True) -> np.ndarray:
        """Per-leaf key counts (the occupancy vector).

        Derived from the sentinel pads in one vectorized pass and cached
        on :attr:`leaf_counts`; the bulk build passes the counts in
        directly.  Returns a fresh array by default so callers may
        scribble on it; ``copy=False`` hands out the cached array for
        read-only use.
        """
        if self.leaf_counts is None:
            self.leaf_counts = np.sum(self.leaf_keys != KEY_MAX, axis=1)
        return self.leaf_counts.copy() if copy else self.leaf_counts

    def occupancy(self) -> float:
        """Fraction of leaf key slots holding real keys."""
        total = self.n_leaves * self.slots
        return self.n_keys / total if total else 0.0

    def leaf_bounds(self) -> np.ndarray:
        """Lower routing bound of every leaf (cached, ``(n_leaves,)``).

        ``bounds[i]`` is the smallest key that routes to leaf ``i``
        (``bounds[0]`` is the int64 minimum: the leftmost leaf catches
        everything below the first separator), derived top-down from the
        internal separators: a node's first child inherits the node's own
        bound, child ``j > 0`` starts at separator ``j - 1``.  Because
        separators route equal keys right (side='right'), the leaf for key
        ``k`` is ``searchsorted(bounds, k, side='right') - 1`` — one
        binary search instead of a level-synchronous traversal — how the
        work model (:func:`~repro.core.engine.traversal_profile`) places
        a batch's queries on their leaves.
        """
        if self._leaf_bounds is None:
            bounds = np.full(1, np.iinfo(np.int64).min, dtype=KEY_DTYPE)
            for lvl in range(self.height - 1):
                a = int(self.level_starts[lvl])
                b = int(self.level_starts[lvl + 1])
                child_counts = np.diff(self.prefix_sum)[a:b]
                n_children = int(child_counts.sum())
                parent = np.repeat(np.arange(b - a), child_counts)
                # Slot of each child within its parent (children of one
                # level are contiguous on the next — §3.1's BFS order).
                firsts = self.prefix_sum[a:b] - int(self.prefix_sum[a])
                within = np.arange(n_children, dtype=np.int64) - firsts[parent]
                nxt = np.where(
                    within == 0,
                    bounds[parent],
                    self.key_region[a:b][parent, np.maximum(within - 1, 0)],
                )
                bounds = nxt.astype(KEY_DTYPE, copy=False)
            self._leaf_bounds = bounds
        return self._leaf_bounds

    def packed_leaves(self) -> Tuple[np.ndarray, np.ndarray]:
        """The contiguous leaf block with the ``KEY_MAX`` pads squeezed
        out, as ``(keys, values)`` — the array every host point lookup
        binary-searches.

        §3.2.1's point: leaves are one consecutive array, so the real leaf
        keys are globally sorted once the pads between rows are removed
        (rows with slack included — their pads sit at the row tails).
        Cached for the layout's lifetime and built on first use; a tree
        stores this block as its :class:`~repro.core.snapshot.Snapshot`
        and reaches a layout only the other way round, so this is for
        bare layouts (a loaded file, the scalar reference executor's
        output).  Caching is sound because no update writes a published
        layout.  Two threads racing the first build each produce an
        identical block; one of them is kept.
        """
        packed = self._packed
        if packed is None:
            leaf_keys = self.leaf_keys.ravel()
            mask = leaf_keys != KEY_MAX
            packed = (leaf_keys[mask], self.leaf_values.ravel()[mask])
            for arr in packed:
                arr.flags.writeable = False  # shared by every reader
            self._packed = packed
        return packed

    def children_count(self, node: int) -> int:
        return int(self.prefix_sum[node + 1] - self.prefix_sum[node])

    def child_index(self, node: int, i: int) -> int:
        """Equation 1: key-region index of the (0-based) ``i``-th child."""
        n = self.children_count(node)
        if not 0 <= i < n:
            raise IndexError(f"child {i} out of range for node {node} with {n} children")
        return int(self.prefix_sum[node]) + i

    def is_leaf(self, node: int) -> bool:
        return node >= self.leaf_start

    def internal_row_list(self, node: int) -> List[int]:
        """One *internal* node's key row as a cached Python list.

        The scalar-search fast path: ``bisect`` on a plain list beats a
        ``np.searchsorted`` dispatch on a tiny row by an order of
        magnitude, and internal rows are few (≈ ``n_nodes / fanout``) and
        revisited constantly (the root on every query), so the cache stays
        small and hot.  Leaf rows are deliberately not cached — there are
        ``fanout``× more of them and each is typically visited once.
        """
        lst = self._row_lists.get(node)
        if lst is None:
            if node >= self.leaf_start:
                raise IndexError(f"node {node} is a leaf; cache is internal-only")
            lst = self.key_region[node].tolist()
            self._row_lists[node] = lst
        return lst

    def prefix_sum_list(self) -> List[int]:
        """The child region as a cached Python list (scalar fast path)."""
        if self._prefix_list is None:
            self._prefix_list = self.prefix_sum.tolist()
        return self._prefix_list

    def level_of(self, node: int) -> int:
        """Tree level of a BFS index (root = 0)."""
        return int(np.searchsorted(self.level_starts, node, side="right")) - 1

    def leaf_value_row(self, node: int) -> np.ndarray:
        if not self.is_leaf(node):
            raise IndexError(f"node {node} is not a leaf")
        return self.leaf_values[node - self.leaf_start]

    # ---------------------------------------------------------- footprints

    def key_region_bytes(self) -> int:
        return int(self.key_region.nbytes)

    def child_region_bytes(self) -> int:
        """Footprint of the prefix-sum array — the quantity the paper bounds
        at ~16 KB for a 64-fanout 4-level tree to argue cache residency."""
        return int(self.prefix_sum.nbytes)

    def values_bytes(self) -> int:
        return int(self.leaf_values.nbytes)

    # ------------------------------------------------------------ iteration

    def iter_leaf_items(self) -> "np.ndarray":
        """All (key, value) pairs in key order as a structured traversal of
        the contiguous leaf block — the fast path range scans build on."""
        leaf_keys = self.leaf_keys.ravel()
        vals = self.leaf_values.ravel()
        mask = leaf_keys != KEY_MAX
        return np.stack([leaf_keys[mask], vals[mask]], axis=1)

    def all_keys(self) -> np.ndarray:
        """Stored keys in ascending order."""
        leaf_keys = self.leaf_keys.ravel()
        return leaf_keys[leaf_keys != KEY_MAX]

    def max_key(self) -> int:
        """Largest stored key.

        The rightmost *non-empty* leaf holds it — scan back from the last
        BFS node, so a hand-built layout with emptied tail leaves still
        answers (bulk-built layouts stop at the first row).
        """
        if self.n_keys == 0:
            raise EmptyTreeError("layout holds no keys")
        counts = self.leaf_key_counts(copy=False)
        nonempty = np.flatnonzero(counts)
        leaf = int(nonempty[-1])
        return int(self.key_region[self.leaf_start + leaf, counts[leaf] - 1])

    def min_key(self) -> int:
        """Smallest stored key (first slot of the first non-empty leaf)."""
        if self.n_keys == 0:
            raise EmptyTreeError("layout holds no keys")
        counts = self.leaf_key_counts(copy=False)
        leaf = int(np.flatnonzero(counts)[0])
        return int(self.key_region[self.leaf_start + leaf, 0])

    def key_space_bits(self) -> int:
        """Bits needed to represent the stored key range — the effective
        ``B`` for Equation 2 when keys do not span the full 64-bit space
        (sorting bits above the data's range would order nothing).  A
        negative minimum means the range spans the sign bit: the full
        64-bit width applies."""
        if self.min_key() < 0:
            return 64
        return max(self.max_key().bit_length(), 1)

    def copy(self) -> "HarmoniaLayout":
        """Deep copy (fresh arrays) — the copy-on-write step snapshot
        isolation builds on (:mod:`repro.core.epoch`)."""
        return HarmoniaLayout(
            fanout=self.fanout,
            height=self.height,
            key_region=self.key_region.copy(),
            prefix_sum=self.prefix_sum.copy(),
            leaf_values=self.leaf_values.copy(),
            level_starts=self.level_starts.copy(),
            n_keys=self.n_keys,
            leaf_counts=(
                None if self.leaf_counts is None else self.leaf_counts.copy()
            ),
        )

    def thinned(self, survivors: np.ndarray) -> "HarmoniaLayout":
        """A copy holding only ``survivors`` (a subset of the stored
        keys): every leaf row keeps its survivors at its front and pads
        the rest, and the internal levels stay as they are.

        This is the shape in-place deletes leave in a bulk-built tree —
        dense separator levels over sparse leaves, the occupancy skew
        per-level NTG degrees exist for — on which the GPU models and the
        work model are studied.  Trees never produce it themselves: their
        layouts are derived packed from the block.
        """
        rows = self.leaf_keys
        keep = np.isin(rows, survivors)
        order = np.argsort(~keep, axis=1, kind="stable")
        keys = np.take_along_axis(rows, order, axis=1)
        values = np.take_along_axis(self.leaf_values, order, axis=1)
        kept = np.take_along_axis(keep, order, axis=1)
        keys[~kept] = KEY_MAX
        values[~kept] = NOT_FOUND
        key_region = self.key_region.copy()
        key_region[self.leaf_start :] = keys
        return HarmoniaLayout(
            fanout=self.fanout,
            height=self.height,
            key_region=key_region,
            prefix_sum=self.prefix_sum.copy(),
            leaf_values=values,
            level_starts=self.level_starts.copy(),
            n_keys=int(np.count_nonzero(kept)),
        )

    # ------------------------------------------------------------ validation

    def check_invariants(self) -> None:
        """Validate the full §3.1 structure.  Raises
        :class:`~repro.errors.InvariantViolation` on the first failure."""
        n = self.n_nodes
        if self.key_region.shape != (n, self.slots):
            raise InvariantViolation("key region shape mismatch")
        validate_prefix_array(self.prefix_sum, n)
        if self.level_starts.shape != (self.height + 1,):
            raise InvariantViolation("level_starts shape mismatch")
        if self.level_starts[0] != 0 or self.level_starts[-1] != n:
            raise InvariantViolation("level_starts must span [0, n_nodes]")
        if self.leaf_values.shape != (self.n_leaves, self.slots):
            raise InvariantViolation("leaf_values shape mismatch")

        # Leaf-region split: the two views partition the key region at the
        # key_count_prefix_sum boundary without copying.
        if self.leaf_keys.shape != (self.n_leaves, self.slots):
            raise InvariantViolation("leaf_keys view shape mismatch")
        if self.internal_keys.shape != (self.leaf_start, self.slots):
            raise InvariantViolation("internal_keys view shape mismatch")
        if self.key_count_prefix_sum != self.leaf_start * self.slots:
            raise InvariantViolation("key_count_prefix_sum boundary mismatch")
        if self.n_leaves and not np.shares_memory(
            self.leaf_keys, self.key_region
        ):
            raise InvariantViolation("leaf_keys must view the key region")

        # Rows sorted with sentinel padding at the tail only.
        kr = self.key_region
        if not bool(np.all(kr[:, 1:] >= kr[:, :-1])):
            raise InvariantViolation("a key row is unsorted")

        counts = np.diff(self.prefix_sum)
        # Leaves have no children; internals have children on the next level.
        if self.n_leaves and bool(np.any(counts[self.leaf_start :] != 0)):
            raise InvariantViolation("a leaf claims children")
        for lvl in range(self.height - 1):
            a, b = int(self.level_starts[lvl]), int(self.level_starts[lvl + 1])
            nxt_a, nxt_b = int(self.level_starts[lvl + 1]), int(self.level_starts[lvl + 2])
            if int(self.prefix_sum[a]) != nxt_a:
                raise InvariantViolation(
                    f"level {lvl} first child must start level {lvl + 1}"
                )
            if int(self.prefix_sum[b]) != nxt_b:
                raise InvariantViolation(
                    f"level {lvl} children must exactly cover level {lvl + 1}"
                )
            # Internal node key count == child count - 1.
            rows = kr[a:b]
            key_counts = np.sum(rows != KEY_MAX, axis=1)
            if not bool(np.all(key_counts == counts[a:b] - 1)):
                raise InvariantViolation(
                    f"level {lvl}: key count != children - 1 somewhere"
                )

        # Leaf keys globally sorted & unique, and count matches n_keys.
        # (Sorted rows put pads at the tail, so the masked flatten stays
        # globally increasing whatever the slack.)
        flat = self.all_keys()
        if flat.size != self.n_keys:
            raise InvariantViolation(
                f"n_keys={self.n_keys} but leaves hold {flat.size}"
            )
        if flat.size > 1 and not bool(np.all(flat[1:] > flat[:-1])):
            raise InvariantViolation("leaf keys not globally increasing")

        # A cached fill-count vector must agree with the sentinels.
        if self.leaf_counts is not None:
            actual = np.sum(kr[self.leaf_start :] != KEY_MAX, axis=1)
            if self.leaf_counts.shape != (self.n_leaves,) or not bool(
                np.all(self.leaf_counts == actual)
            ):
                raise InvariantViolation("leaf_counts disagree with rows")

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"HarmoniaLayout(fanout={self.fanout}, height={self.height}, "
            f"nodes={self.n_nodes}, keys={self.n_keys}, "
            f"child_region={self.child_region_bytes()}B)"
        )


__all__ = ["HarmoniaLayout"]
