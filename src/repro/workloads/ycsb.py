"""YCSB-style workload presets adapted to a batched index.

The paper evaluates pure-lookup and 5%-insert batches; real deployments
benchmark against the YCSB core workloads.  These presets translate each
YCSB letter to the phase-based world: per *round*, a query batch (point
and/or range lookups) plus an update batch, with the canonical mix and
request distribution:

| preset | YCSB | reads | updates/inserts | distribution |
|--------|------|-------|-----------------|--------------|
| A      | update heavy | 50% | 50% update | zipf |
| B      | read mostly  | 95% | 5% update  | zipf |
| C      | read only    | 100% | —         | zipf |
| D      | read latest  | 95% | 5% insert  | latest-skewed |
| E      | short ranges | 95% range scans | 5% insert | zipf |
| F      | read-modify-write | 50% | 50% RMW (read + update) | zipf |
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.update import Operation
from repro.errors import ConfigError
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import ensure_positive
from repro.workloads.generators import range_query_bounds, uniform_queries, zipf_queries


@dataclass(frozen=True)
class YCSBRound:
    """One round of a YCSB-style run."""

    point_queries: np.ndarray  #: point-lookup targets (may be empty)
    range_bounds: Optional[Tuple[np.ndarray, np.ndarray]]  #: (los, his) or None
    updates: List[Operation]  #: the round's update batch
    #: RMW reads that must be issued before the updates (workload F).
    rmw_reads: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))


@dataclass(frozen=True)
class YCSBPreset:
    name: str
    read_fraction: float
    update_fraction: float
    insert_fraction: float
    range_fraction: float
    rmw: bool
    distribution: str  # "zipf" | "latest" | "uniform"


PRESETS: Dict[str, YCSBPreset] = {
    "A": YCSBPreset("A", 0.50, 0.50, 0.00, 0.0, False, "zipf"),
    "B": YCSBPreset("B", 0.95, 0.05, 0.00, 0.0, False, "zipf"),
    "C": YCSBPreset("C", 1.00, 0.00, 0.00, 0.0, False, "zipf"),
    "D": YCSBPreset("D", 0.95, 0.00, 0.05, 0.0, False, "latest"),
    "E": YCSBPreset("E", 0.00, 0.00, 0.05, 0.95, False, "zipf"),
    "F": YCSBPreset("F", 0.50, 0.50, 0.00, 0.0, True, "zipf"),
}


def _targets(
    keys: np.ndarray, n: int, distribution: str, gen: np.random.Generator
) -> np.ndarray:
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    if distribution == "zipf":
        return zipf_queries(keys, n, alpha=1.2, rng=gen)
    if distribution == "latest":
        # Favor the most recently inserted (largest) keys.
        ranks = np.minimum(gen.zipf(1.2, size=n) - 1, keys.size - 1)
        return keys[keys.size - 1 - ranks]
    if distribution == "uniform":
        return uniform_queries(keys, n, rng=gen)
    raise ConfigError(f"unknown distribution {distribution!r}")


def make_ycsb_round(
    preset: str,
    keys: np.ndarray,
    ops_per_round: int,
    key_space_bits: int = 40,
    range_span: int = 64,
    rng: RngLike = None,
) -> YCSBRound:
    """Generate one round of the named preset against stored ``keys``."""
    try:
        p = PRESETS[preset.upper()]
    except KeyError:
        raise ConfigError(
            f"unknown YCSB preset {preset!r}; choose from {sorted(PRESETS)}"
        ) from None
    ops_per_round = ensure_positive("ops_per_round", ops_per_round)
    gen = ensure_rng(rng)

    n_reads = int(round(ops_per_round * p.read_fraction))
    n_updates = int(round(ops_per_round * p.update_fraction))
    n_inserts = int(round(ops_per_round * p.insert_fraction))
    n_ranges = ops_per_round - n_reads - n_updates - n_inserts

    point = _targets(keys, n_reads, p.distribution, gen)

    ranges = None
    if n_ranges > 0:
        ranges = range_query_bounds(keys, n_ranges, span_keys=range_span, rng=gen)

    updates: List[Operation] = []
    rmw_reads = np.empty(0, dtype=np.int64)
    if n_updates:
        victims = _targets(keys, n_updates, p.distribution, gen)
        updates.extend(
            Operation("update", int(k), int(gen.integers(1 << 30)))
            for k in victims
        )
        if p.rmw:
            rmw_reads = victims
    if n_inserts:
        space = 1 << key_space_bits
        fresh = gen.integers(0, space, size=n_inserts)
        updates.extend(Operation("insert", int(k), int(k)) for k in fresh)
    if updates:
        perm = gen.permutation(len(updates))
        updates = [updates[i] for i in perm]

    return YCSBRound(
        point_queries=point,
        range_bounds=ranges,
        updates=updates,
        rmw_reads=rmw_reads,
    )


def run_ycsb(
    preset: str,
    tree,
    rounds: int = 3,
    ops_per_round: int = 10_000,
    rng: RngLike = None,
    search_config=None,
) -> Dict[str, float]:
    """Drive a :class:`~repro.core.tree.HarmoniaTree` (or an
    :class:`~repro.core.epoch.EpochManager`) through ``rounds`` rounds and
    return aggregate throughput numbers (wall clock)."""
    import time

    gen = ensure_rng(rng)
    totals = {"reads": 0, "ranges": 0, "ops": 0,
              "read_s": 0.0, "range_s": 0.0, "update_s": 0.0}
    for _ in range(rounds):
        base = tree._tree if hasattr(tree, "_tree") else tree  # EpochManager
        stored = base.snapshot.keys
        batch = make_ycsb_round(preset, stored, ops_per_round, rng=gen)

        if batch.rmw_reads.size:
            t0 = time.perf_counter()
            tree.search_batch(batch.rmw_reads, search_config)
            totals["read_s"] += time.perf_counter() - t0
            totals["reads"] += batch.rmw_reads.size
        if batch.point_queries.size:
            t0 = time.perf_counter()
            tree.search_batch(batch.point_queries, search_config)
            totals["read_s"] += time.perf_counter() - t0
            totals["reads"] += batch.point_queries.size
        if batch.range_bounds is not None:
            los, his = batch.range_bounds
            t0 = time.perf_counter()
            tree.range_search_batch(los, his)
            totals["range_s"] += time.perf_counter() - t0
            totals["ranges"] += los.size
        if batch.updates:
            t0 = time.perf_counter()
            if hasattr(tree, "apply_batch"):
                tree.apply_batch(batch.updates)
            else:  # EpochManager
                tree.submit_many(batch.updates)
                tree.flush()
            totals["update_s"] += time.perf_counter() - t0
            totals["ops"] += len(batch.updates)
    return totals


__all__ = ["PRESETS", "YCSBPreset", "YCSBRound", "make_ycsb_round", "run_ycsb"]
