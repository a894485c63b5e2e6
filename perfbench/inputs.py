"""Seeded inputs and oracles for the perfbench workloads.

Everything a run feeds the program is drawn here from ``--seed`` before
any timing starts: key sets, cycled read batches, scan bounds and the
prebuilt :class:`~repro.Operation` lists of every write round.  The
oracles are plain sorted arrays kept by the benchmark, never the
program's own structures.

Key spaces are disjoint by parity: stored keys are even, fresh inserts
odd, so an insert never collides with a stored key and no operation of
any workload is expected to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import NOT_FOUND, Operation

KEY_SPACE = 1 << 40
UPDATE, INSERT, DELETE = 0, 1, 2
_KIND_NAMES = ("update", "insert", "delete")
#: Write-round mix shared by uniform_read and zipf_rw_epoch.
UPDATE_SHARE, INSERT_SHARE = 0.60, 0.25
_WORKLOAD_TAG = {"uniform_read": 1, "zipf_rw_epoch": 2, "scan_shard": 3}
FANOUT, FILL = 64, 0.7
ZIPF_ALPHA = 1.2


@dataclass(frozen=True)
class Sizes:
    """Scale of every workload: :data:`FULL` is the benchmark, :data:`TINY`
    the smoke test."""

    uniform_keys: int
    uniform_batch: int
    epoch_keys: int
    epoch_reads: int
    write_batch: int
    scan_keys: int
    scans: int
    scan_span: int
    scan_inserts: int
    #: Keys of uniform_read's write tree (~3 MB layout, inside L2, so it
    #: does not compete with the read tree for the shared cache).
    uniform_write_keys: int = 1 << 17
    #: uniform_read applies one write batch every this many read rounds.
    uniform_write_every: int = 32
    #: uniform_read write batches prebuilt per second, above its write
    #: rate (about 2/s on a 2-core host); once used up, reads go on alone.
    uniform_writes_per_s: float = 3.0
    #: Distinct read (or scan) batches per run, cycled.
    read_pool: int = 64
    #: Cold set-ups per run, one before the timed phase and the rest
    #: spread over it; setup_s is their median.
    setup_builds: int = 7
    #: zipf_rw_epoch runs a fixed number of rounds, this many per
    #: requested second (about its round rate on a 2-core host): its read
    #: latency saw-tooths over drain cycles, and a deadline would cut the
    #: last cycle at a random point.
    epoch_rounds_per_s: float = 16.0
    #: scan_shard runs to the deadline; rounds prebuilt per second, above
    #: its round rate (about 20/s on a 2-core host).
    scan_rounds_per_s: float = 45.0
    #: Leading rounds kept out of every timing (still checked).
    warmup_rounds: int = 3


FULL = Sizes(
    uniform_keys=1 << 20, uniform_batch=1 << 15,
    epoch_keys=1 << 21, epoch_reads=1 << 14, write_batch=1 << 11,
    scan_keys=1 << 21, scans=2048, scan_span=64, scan_inserts=128,
)

TINY = Sizes(
    uniform_keys=1 << 12, uniform_batch=1 << 8,
    epoch_keys=1 << 12, epoch_reads=1 << 8, write_batch=1 << 6,
    scan_keys=1 << 12, scans=32, scan_span=16, scan_inserts=8,
    uniform_write_keys=1 << 10, uniform_write_every=2,
    uniform_writes_per_s=20.0, read_pool=4,
    setup_builds=3,
    epoch_rounds_per_s=200.0, scan_rounds_per_s=200.0, warmup_rounds=1,
)


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _WORKLOAD_TAG[workload]])


def _distinct(rng: np.random.Generator, n: int) -> np.ndarray:
    """At least ``n`` distinct keys from ``[0, KEY_SPACE)``, ascending."""
    k = np.empty(0, dtype=np.int64)
    while k.size < n:
        k = np.sort(np.concatenate([k, rng.integers(0, KEY_SPACE,
                                                     n + n // 4 + 16)]))
        k = k[np.concatenate(([True], k[1:] != k[:-1]))]
    return k


def sorted_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct even keys, ascending."""
    k = _distinct(rng, n)
    keep = np.ones(k.size, dtype=bool)
    keep[rng.choice(k.size, k.size - n, replace=False)] = False
    return k[keep] * 2


def fresh_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct odd keys in random order (never stored initially)."""
    return rng.permutation(_distinct(rng, n))[:n] * 2 + 1


def values_for(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(1, 1 << 50, n)


def zipf_ranks(rng: np.random.Generator, n: int, size: int,
               alpha: float) -> np.ndarray:
    """Zipf(alpha) ranks clipped to ``[0, n)``; rank 0 is the hottest."""
    return np.minimum(rng.zipf(alpha, size) - 1, n - 1)


def round_budget(seconds: float, per_s: float, floor: int = 8) -> int:
    return max(floor, int(math.ceil(seconds * per_s)))


@dataclass
class WriteRound:
    """One prebuilt write batch plus what the oracle needs to replay it."""

    ops: List[Operation]
    upd_idx: np.ndarray  #: base-key indices updated, in op order
    upd_vals: np.ndarray
    del_idx: np.ndarray  #: base-key indices deleted
    ins_keys: np.ndarray
    ins_vals: np.ndarray

    @property
    def counts(self) -> Tuple[int, int, int]:
        """Expected (inserted, updated, deleted)."""
        return self.ins_keys.size, self.upd_idx.size, self.del_idx.size


def write_rounds(
    rng: np.random.Generator,
    base_keys: np.ndarray,
    n_rounds: int,
    batch: int,
    zipf_alpha: float = 0.0,
) -> List[WriteRound]:
    """``n_rounds`` batches of 60% updates, 25% fresh inserts and 15%
    deletes over ``base_keys``.

    Deleted keys come from a pool disjoint from the update targets and
    each is deleted once, so every operation succeeds.  Update targets
    are zipf-ranked when ``zipf_alpha`` > 1, else uniform.
    """
    n = base_keys.size
    n_upd = int(round(batch * UPDATE_SHARE))
    n_ins = int(round(batch * INSERT_SHARE))
    n_del = batch - n_upd - n_ins
    if n_rounds * n_del > n // 2:
        raise ValueError(f"{n_rounds} rounds would delete over half the keys")
    order = rng.permutation(n)
    deletable = order[: n_rounds * n_del]
    updatable = order[n_rounds * n_del:]
    inserts = fresh_keys(rng, max(n_rounds * n_ins, 1))
    value_pool = values_for(rng, 4096)
    pool_ints = value_pool.tolist()
    rounds = []
    for r in range(n_rounds):
        if zipf_alpha > 1.0:
            pick = zipf_ranks(rng, updatable.size, n_upd, zipf_alpha)
        else:
            pick = rng.integers(0, updatable.size, n_upd)
        del_idx = deletable[r * n_del:(r + 1) * n_del]
        kinds = np.repeat(np.array([UPDATE, INSERT, DELETE], dtype=np.int8),
                          [n_upd, n_ins, n_del])
        # Base-key index of every op (-1 for fresh inserts).
        src = np.concatenate([updatable[pick], np.full(n_ins, -1), del_idx])
        keys = np.concatenate([base_keys[updatable[pick]],
                               inserts[r * n_ins:(r + 1) * n_ins],
                               base_keys[del_idx]])
        vsel = np.full(batch, -1)
        vsel[: n_upd + n_ins] = rng.integers(0, value_pool.size, n_upd + n_ins)
        shuffle = rng.permutation(batch)
        kinds, src, keys, vsel = (a[shuffle] for a in (kinds, src, keys, vsel))
        vals = np.where(vsel >= 0, value_pool[np.maximum(vsel, 0)], 0)
        # Values come from a shared pool of Python ints, which keeps the
        # prebuilt lists small.
        ops = [
            Operation(_KIND_NAMES[k], key, pool_ints[v] if v >= 0 else 0)
            for k, key, v in zip(kinds.tolist(), keys.tolist(), vsel.tolist())
        ]
        upd, ins = kinds == UPDATE, kinds == INSERT
        rounds.append(WriteRound(
            ops=ops,
            upd_idx=src[upd], upd_vals=vals[upd], del_idx=del_idx,
            ins_keys=keys[ins], ins_vals=vals[ins],
        ))
    return rounds


class KeyOracle:
    """Visible contents as the base key array with a live mask and
    current values, plus the fresh inserts (never updated or deleted)."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.keys = keys
        self.values = values.copy()
        self.alive = np.ones(keys.size, dtype=bool)
        self._fresh_k: List[np.ndarray] = []
        self._fresh_v: List[np.ndarray] = []
        self.live = int(keys.size)

    def lookup(self, idx: np.ndarray) -> np.ndarray:
        """Expected read results for base-key indices."""
        return np.where(self.alive[idx], self.values[idx], NOT_FOUND)

    def apply(self, rnd: WriteRound) -> None:
        if rnd.upd_idx.size:
            # Last write of a key in the batch wins.
            rev = rnd.upd_idx[::-1]
            uniq, first = np.unique(rev, return_index=True)
            self.values[uniq] = rnd.upd_vals[::-1][first]
        self.alive[rnd.del_idx] = False
        self._fresh_k.append(rnd.ins_keys)
        self._fresh_v.append(rnd.ins_vals)
        self.live += rnd.ins_keys.size - rnd.del_idx.size

    def contents(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = np.concatenate([self.keys[self.alive]] + self._fresh_k)
        vals = np.concatenate([self.values[self.alive]] + self._fresh_v)
        order = np.argsort(keys, kind="stable")
        return keys[order], vals[order]


class SortedOracle:
    """Sorted (keys, values) arrays; answers range windows."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        self.keys = keys.copy()
        self.values = values.copy()

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        order = np.argsort(keys)
        k, v = keys[order], values[order]
        pos = np.searchsorted(self.keys, k)
        self.keys = np.insert(self.keys, pos, k)
        self.values = np.insert(self.values, pos, v)

    def windows(self, los: np.ndarray, his: np.ndarray):
        """Per-scan row counts and the rows of all scans concatenated."""
        a = np.searchsorted(self.keys, los, side="left")
        b = np.searchsorted(self.keys, his, side="right")
        counts = np.maximum(b - a, 0)
        starts = np.repeat(a - np.cumsum(counts) + counts, counts)
        idx = starts + np.arange(int(counts.sum()))
        return counts, self.keys[idx], self.values[idx]


@dataclass
class UniformInputs:
    keys: np.ndarray
    values: np.ndarray
    read_idx: np.ndarray  #: (read_pool, batch) base-key indices
    reads: np.ndarray     #: the same batches as keys
    wkeys: np.ndarray     #: the write tree's initial contents
    wvalues: np.ndarray
    writes: List[WriteRound]  #: over ``wkeys``


def uniform_inputs(seed: int, sizes: Sizes, seconds: float) -> UniformInputs:
    rng = workload_rng("uniform_read", seed)
    keys = sorted_keys(rng, sizes.uniform_keys)
    values = values_for(rng, keys.size)
    idx = rng.integers(0, keys.size, (sizes.read_pool, sizes.uniform_batch))
    wkeys = sorted_keys(rng, sizes.uniform_write_keys)
    wvalues = values_for(rng, wkeys.size)
    # At most as many batches as can delete under half the write tree.
    n_del = sizes.write_batch - round(sizes.write_batch * UPDATE_SHARE) \
        - round(sizes.write_batch * INSERT_SHARE)
    n_writes = min(round_budget(seconds, sizes.uniform_writes_per_s),
                   wkeys.size // 2 // n_del)
    writes = write_rounds(rng, wkeys, n_writes, sizes.write_batch)
    return UniformInputs(keys, values, idx, keys[idx], wkeys, wvalues, writes)


@dataclass
class EpochInputs:
    keys: np.ndarray
    values: np.ndarray
    read_idx: np.ndarray
    reads: np.ndarray
    writes: List[WriteRound]


def epoch_inputs(seed: int, sizes: Sizes, seconds: float) -> EpochInputs:
    rng = workload_rng("zipf_rw_epoch", seed)
    keys = sorted_keys(rng, sizes.epoch_keys)
    values = values_for(rng, keys.size)
    # Hot keys are scattered over the key space (skew without locality).
    perm = rng.permutation(keys.size)
    ranks = zipf_ranks(rng, keys.size,
                       sizes.read_pool * sizes.epoch_reads, ZIPF_ALPHA)
    idx = perm[ranks].reshape(sizes.read_pool, sizes.epoch_reads)
    n_rounds = round_budget(seconds, sizes.epoch_rounds_per_s)
    writes = write_rounds(rng, keys, n_rounds, sizes.write_batch,
                          zipf_alpha=ZIPF_ALPHA)
    return EpochInputs(keys, values, idx, keys[idx], writes)


@dataclass
class ScanInputs:
    keys: np.ndarray
    values: np.ndarray
    los: np.ndarray  #: (read_pool, scans)
    his: np.ndarray
    inserts: List[List[Operation]]
    ins_keys: np.ndarray  #: (rounds, scan_inserts)
    ins_vals: np.ndarray


def scan_inputs(seed: int, sizes: Sizes, seconds: float) -> ScanInputs:
    rng = workload_rng("scan_shard", seed)
    keys = sorted_keys(rng, sizes.scan_keys)
    values = values_for(rng, keys.size)
    lo = rng.integers(0, keys.size - sizes.scan_span,
                      (sizes.read_pool, sizes.scans))
    n_rounds = round_budget(seconds, sizes.scan_rounds_per_s)
    ins_keys = fresh_keys(rng, n_rounds * sizes.scan_inserts).reshape(
        n_rounds, sizes.scan_inserts)
    ins_vals = values_for(rng, ins_keys.size).reshape(ins_keys.shape)
    inserts = [
        [Operation("insert", k, v) for k, v in zip(ks, vs)]
        for ks, vs in zip(ins_keys.tolist(), ins_vals.tolist())
    ]
    return ScanInputs(keys, values, keys[lo], keys[lo + sizes.scan_span - 1],
                      inserts, ins_keys, ins_vals)
