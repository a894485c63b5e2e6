"""Timing and bookkeeping shared by the perfbench drivers.

A :class:`Phase` is one measured run of a workload: the timed calls'
latencies, the operation counts and the oracle's verdicts.  A traced
phase also carries :class:`Spans`, recorded by the benchmark around its
calls into each layer's public functions and kept in memory until the
run ends.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

clock = time.perf_counter


class Spans:
    """In-memory ``(name, round, start, end)`` intervals plus per-round
    samples of derived quantities (counts, maxima over shards)."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, int, float, float]] = []
        self.samples: Dict[str, List[float]] = {}

    def add(self, name: str, rnd: int, t0: float, t1: float) -> None:
        self.rows.append((name, rnd, t0, t1))

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def durations(self, name: str) -> np.ndarray:
        return np.asarray([b - a for n, _, a, b in self.rows if n == name])

    def mean(self, name: str) -> float:
        """Mean span duration; 0.0 when the layer was never called."""
        d = self.durations(name)
        return float(d.mean()) if d.size else 0.0

    def sample_mean(self, name: str) -> float:
        s = self.samples.get(name)
        return float(np.mean(s)) if s else 0.0

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": n, "round": r, "start_s": a, "end_s": b}
                for n, r, a, b in self.rows
            ],
            "samples": self.samples,
        }


@dataclass
class Phase:
    """What one measured phase of a workload accumulates."""

    warmup: int
    spans: Optional[Spans] = None
    read_lat: List[float] = field(default_factory=list)
    write_lat: List[float] = field(default_factory=list)
    #: Seconds inside timed calls (the timed phase's wall time minus
    #: the oracle checks between calls).
    busy: float = 0.0
    #: Operations completed inside ``busy``.
    ops: int = 0
    #: Per round, ``[seconds, operations]`` of its calls counted in ``busy``.
    rounds: Dict[int, List[float]] = field(default_factory=dict)
    attempted: int = 0
    errors: int = 0
    setup: List[float] = field(default_factory=list)
    bytes_per_key: float = 0.0
    #: Decomposed calls compared byte for byte with the public call.
    identity_checks: int = 0
    identity_failures: int = 0
    #: Per-layer quantities that are not spans (counts, occupancy).
    layer: Dict[str, float] = field(default_factory=dict)

    def call(self, n_ops: int, fn: Callable, *args):
        """Run one public call; returns ``(result, start, end)``.  A raise
        counts all its operations as failed and yields ``None``."""
        self.attempted += n_ops
        t0 = clock()
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc()
            self.errors += n_ops
            out = None
        return out, t0, clock()

    def record(self, rnd: int, kind: str, seconds: float, n_ops: int) -> None:
        """Count a timed call unless it falls in the warm-up rounds."""
        if rnd < self.warmup:
            return
        (self.read_lat if kind == "read" else self.write_lat).append(seconds)
        self.busy += seconds
        self.ops += n_ops
        row = self.rounds.setdefault(rnd, [0.0, 0])
        row[0] += seconds
        row[1] += n_ops

    def mismatch(self, n: int) -> None:
        self.errors += int(n)

    def identity(self, same: bool) -> None:
        self.identity_checks += 1
        if not same:
            self.identity_failures += 1
            self.errors += 1

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy if self.busy > 0 else 0.0

    @property
    def peak_ops_per_s(self) -> float:
        """Per-round throughput reached or beaten by the fastest tenth of
        the rounds."""
        rates = [n / s for s, n in self.rounds.values() if s > 0]
        return pct(rates, 90)


class SetupSchedule:
    """When to repeat a cold set-up inside the timed phase: at the
    midpoints of ``n`` equal slices of it (in seconds or rounds).  The
    samples then spread over the host's slow and fast phases instead of
    falling together before the run."""

    def __init__(self, n: int, length: float) -> None:
        self._marks = [(k + 0.5) * length / n for k in range(n)]

    def due(self, position: float) -> bool:
        if self._marks and position >= self._marks[0]:
            self._marks.pop(0)
            return True
        return False


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def pct(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def reference_rate(seconds: float = 0.75) -> float:
    """Iterations per second of a fixed NumPy gather + searchsorted loop.

    Timed before and after each run as host-drift context: it does the
    same work on every host state, so a slow run whose reference also
    dropped points at the host, not the code.  Never gated.
    """
    rng = np.random.default_rng(12345)
    table = np.sort(rng.integers(0, 1 << 40, 1 << 21))
    queries = rng.integers(0, 1 << 40, 1 << 15)
    n = 0
    t0 = clock()
    while clock() - t0 < seconds:
        pos = np.searchsorted(table, queries)
        np.minimum(pos, table.size - 1, out=pos)
        table[pos].sum()
        n += 1
    return n / (clock() - t0)


def write_json(path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)
