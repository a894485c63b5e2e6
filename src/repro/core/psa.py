"""Partially-Sorted Aggregation — PSA (paper §4.1).

Queries arriving in a time window are *partially* sorted before being issued
to the search kernel: a stable radix sort on only the most-significant ``N``
bits.  Adjacent queries then (very likely) share tree paths, so the loads a
warp issues fall into few cache lines — the coalescing win of a full sort at
a fraction of its cost (Figures 6 and 8).

Equation 2 picks ``N``: with ``B``-bit keys, tree size ``T`` and ``K`` keys
per cache line, keys within one cache line cover a key-range of about
``2^B / T * K``, i.e. its low ``log2(2^B / T * K)`` bits don't need sorting:

    N  =  B - log2(2^B / T * K)  =  log2(T / K)

(e.g. B=64, T=2^23, K=16 → N = 19, the paper's §4.1.2 example).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

import repro.obs as obs
from repro.constants import KEY_BITS
from repro.errors import ConfigError
from repro.sort.radix import (
    RadixSortResult,
    partial_radix_argsort,
    partial_sort_cost,
    full_sort_cost,
)
from repro.utils.validation import ensure_key_array, ensure_positive


def adaptive_sort_bits(
    keys_sample: np.ndarray,
    tree_size: int,
    keys_per_cacheline: int = 16,
    key_bits: int = KEY_BITS,
) -> int:
    """Density-aware refinement of Equation 2.

    The paper notes its analysis "is conservative because we suppose the
    key value is full in its space" (§4.1.2): when stored keys occupy only
    a fraction of the key range, a cache line's keys cover a *wider* slice
    of the space than ``2^B / T * K``, so fewer sorted bits suffice.  This
    estimates the effective per-line coverage from a sample's empirical
    span instead of assuming a full space:

        N = ceil(log2(span / (span/T * K)))  =  log2(T / K)

    anchored at the sample's actual span rather than ``2^B`` — i.e. the
    same N but counted from the top of the *occupied* range, which is
    what decides which bits are worth sorting.
    """
    sample = np.asarray(keys_sample)
    if sample.size < 2:
        return 0
    span = int(sample.max()) - int(sample.min())
    if span <= 0:
        return 0
    effective_bits = max(span.bit_length(), 1)
    n = optimal_sort_bits(tree_size, keys_per_cacheline, key_bits)
    return int(min(n, effective_bits))


def optimal_sort_bits(
    tree_size: int,
    keys_per_cacheline: int = 16,
    key_bits: int = KEY_BITS,
) -> int:
    """Equation 2: bits to sort so that unsorted residue stays within one
    cache line's key coverage.

    ``keys_per_cacheline`` defaults to 16 (128-byte line / 8-byte keys).
    The result is clamped to ``[0, key_bits]`` — tiny trees need no sorting
    at all, and trees larger than ``2^B`` cannot exist.
    """
    tree_size = ensure_positive("tree_size", tree_size)
    keys_per_cacheline = ensure_positive("keys_per_cacheline", keys_per_cacheline)
    n = math.log2(tree_size) - math.log2(keys_per_cacheline)
    return int(min(max(0.0, math.ceil(n)), key_bits))


def _non_decreasing(arr: np.ndarray) -> bool:
    """O(n) sortedness check of the issued batch (the PSA metadata)."""
    if arr.size <= 1:
        return True
    return bool(np.all(arr[1:] >= arr[:-1]))


@dataclass(frozen=True)
class PSABatch:
    """A query batch prepared for issue.

    ``queries`` is the (partially) sorted batch actually fed to the kernel;
    ``order`` maps issue position → original position.  Callers recover
    result alignment either with :meth:`scatter_restore` (one direct
    scatter through ``order``, the cheap path) or by gathering through the
    lazily-built :attr:`restore` inverse permutation.
    ``sort_passes`` is the radix pass count (cost-model unit); ``sort_cost``
    the modeled element-pass cost.
    """

    queries: np.ndarray
    order: np.ndarray
    bits_sorted: int
    sort_passes: int
    sort_cost: float
    #: Whether ``queries`` is globally non-decreasing in issue order — the
    #: sortedness metadata the engine's work model
    #: (:func:`repro.core.engine.traversal_profile`) carries: a sorted
    #: batch guarantees the per-level frontier is run-length encoded, an
    #: unsorted one merely tends to be (top ``bits_sorted`` bits grouped).
    issue_sorted: bool = False

    @property
    def n(self) -> int:
        return int(self.queries.size)

    @property
    def restore(self) -> np.ndarray:
        """Inverse of ``order``: ``results_original = kernel_results[restore]``.

        Built lazily and cached — the hot paths restore with
        :meth:`scatter_restore` and never materialize it.
        """
        cached = self.__dict__.get("_restore")
        if cached is None:
            cached = np.empty_like(self.order)
            cached[self.order] = np.arange(self.order.size, dtype=self.order.dtype)
            object.__setattr__(self, "_restore", cached)
        return cached

    def scatter_restore(
        self, results: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Scatter issue-order ``results`` back to arrival order.

        ``out[order] = results`` is a single fancy-index store — it never
        builds the inverse permutation, unlike the gather
        ``results[restore]``, so it is the restore path the engine uses.  ``out`` (when given) must be a distinct
        buffer of the batch size; it is written in full and returned.
        """
        if results.shape != self.order.shape:
            raise ConfigError(
                f"results shape {results.shape} != batch shape {self.order.shape}"
            )
        if out is None:
            out = np.empty_like(results)
        elif out.shape != self.order.shape:
            raise ConfigError(
                f"out shape {out.shape} != batch shape {self.order.shape}"
            )
        out[self.order] = results
        return out


def prepare_batch(
    queries: Sequence[int],
    bits: Optional[int] = None,
    tree_size: Optional[int] = None,
    keys_per_cacheline: int = 16,
    key_bits: int = KEY_BITS,
) -> PSABatch:
    """Partially sort a query batch for issue.

    Exactly one of ``bits`` (explicit) or ``tree_size`` (Equation 2) selects
    the sorted-bit count.  ``bits=0`` degenerates to the original order at
    zero cost; ``bits=key_bits`` is a complete sort — both ends are useful
    as Figure 8's baselines.
    """
    q = ensure_key_array(np.asarray(queries), "queries")
    if bits is None:
        if tree_size is None:
            raise ConfigError("provide either bits or tree_size")
        bits = optimal_sort_bits(tree_size, keys_per_cacheline, key_bits)
    elif tree_size is not None:
        raise ConfigError("bits and tree_size are mutually exclusive")
    if not 0 <= bits <= key_bits:
        raise ConfigError(f"bits must be within [0, {key_bits}], got {bits}")

    rec = obs.active
    t_start = time.perf_counter() if rec.enabled else 0.0
    res: RadixSortResult = partial_radix_argsort(q, bits=bits, key_bits=key_bits)
    order = res.order
    issued = q[order]
    if rec.enabled:
        rec.counter("psa.batches")
        rec.histogram("psa.bits_sorted", res.bits_sorted)
        if order.size > 1:
            rec.histogram(
                "psa.perm_displacement",
                float(np.abs(order - np.arange(order.size)).mean()),
            )
        rec.span_at("psa.prepare", t_start, time.perf_counter(), cat="psa",
                    n=int(q.size), bits=int(res.bits_sorted))
    return PSABatch(
        queries=issued,
        order=order,
        bits_sorted=res.bits_sorted,
        sort_passes=res.passes,
        sort_cost=partial_sort_cost(q.size, bits, key_bits=key_bits),
        issue_sorted=_non_decreasing(issued),
    )


def identity_batch(queries: Sequence[int]) -> PSABatch:
    """The no-PSA baseline: issue order = arrival order, zero sort cost."""
    q = ensure_key_array(np.asarray(queries), "queries")
    idx = np.arange(q.size, dtype=np.int64)
    rec = obs.active
    if rec.enabled:
        rec.counter("psa.batches")
        rec.histogram("psa.bits_sorted", 0)
    return PSABatch(
        queries=q, order=idx, bits_sorted=0, sort_passes=0,
        sort_cost=0.0, issue_sorted=_non_decreasing(q),
    )


def fully_sorted_batch(queries: Sequence[int], key_bits: int = KEY_BITS) -> PSABatch:
    """The complete-sort comparison point of Figure 8."""
    return prepare_batch(queries, bits=key_bits, key_bits=key_bits)


def sort_cost_ratio(bits: int, key_bits: int = KEY_BITS) -> float:
    """Partial-sort cost as a fraction of the full sort (pass-count ratio).

    For the paper's example (19 of 64 bits, 8-bit digits) this is
    3/8 ≈ 0.375 — "about 35% of the completely sorted method" (§4.1.2).
    """
    full = full_sort_cost(1, key_bits)
    if full == 0:
        return 0.0
    return partial_sort_cost(1, bits, key_bits) / full


__all__ = [
    "optimal_sort_bits",
    "adaptive_sort_bits",
    "PSABatch",
    "prepare_batch",
    "identity_batch",
    "fully_sorted_batch",
    "sort_cost_ratio",
]
