"""Metrics registry: counters, gauges, fixed-bucket histograms, spans.

The recording model is two-state by design:

* **off** (the default) — the module-level :data:`NULL_RECORDER` is
  active.  Instrumented hot paths read ``obs.active`` (one module
  attribute lookup), test ``rec.enabled`` (False) and skip everything
  else, so shipping instrumentation costs nothing measurable;
* **on** — ``with obs.recording() as rec:`` swaps a
  :class:`MetricsRegistry` in.  Every mutation takes the registry lock,
  so concurrent ``search_many`` calls (and an epoch's drain thread)
  record into one registry safely.

Instrumentation sites record at *stats boundaries* — after a batch
execution, per pipeline stage — never inside per-element loops, so the
enabled path stays cheap too (a handful of locked dict updates per
batch).

Counters saturate at int64 bounds instead of overflowing (snapshots stay
valid JSON for consumers that parse into fixed-width integers).
Histograms are fixed-bucket (edges from the :mod:`~repro.obs.schema>`
catalogue): bucket ``0`` is ``(-inf, edges[0])``, bucket ``i`` is
``[edges[i-1], edges[i])``, and the last bucket is ``[edges[-1], inf)``.
Spans are nestable wall-clock timers (per-thread depth tracking) that
export to Chrome ``trace_event`` timelines via
:func:`repro.obs.export.chrome_trace`; bounded by ``max_spans`` so a
long recording cannot grow memory without limit (drops are counted, never
silent).
"""

from __future__ import annotations

import os
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.obs.schema import SCHEMA_VERSION, default_edges_for

INT64_MAX = (1 << 63) - 1
INT64_MIN = -(1 << 63)

_clock = time.perf_counter


def _saturate(value: int) -> int:
    if value > INT64_MAX:
        return INT64_MAX
    if value < INT64_MIN:
        return INT64_MIN
    return value


def bucket_quantile(
    edges: Sequence[float],
    counts: Sequence[int],
    q: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> Optional[float]:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    Linear interpolation inside the bucket holding the target rank; the
    open underflow/overflow buckets clamp to ``lo`` / ``hi`` (the
    histogram's observed min/max) when known, else to the nearest edge.
    Returns ``None`` for an empty histogram.  This is the estimator
    behind the p50/p95/p99 columns of ``obs report`` — exact to within
    one bucket of the 1-2-5 ladders the catalogue declares.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    target = q * total
    cum = 0
    for i, c in enumerate(counts):
        if cum + c >= target and c > 0:
            left = edges[i - 1] if i > 0 else (
                lo if lo is not None else edges[0]
            )
            right = edges[i] if i < len(edges) else (
                hi if hi is not None else edges[-1]
            )
            # The observed extrema bound every bucket, not just the open
            # ones — with them, a single-valued histogram is exact.
            if lo is not None and left < lo:
                left = lo
            if hi is not None and right > hi:
                right = hi
            if right < left:
                right = left
            frac = (target - cum) / c
            return left + (right - left) * frac
        cum += c
    return hi if hi is not None else float(edges[-1])


class NullSpan:
    """Reusable no-op context manager (the disabled ``span()``)."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = NullSpan()


class NullRecorder:
    """The disabled recorder: every method is a no-op.

    A singleton (:data:`NULL_RECORDER`) sits in ``obs.active`` whenever no
    recording is in progress; instrumented code may either call methods
    blindly (no-ops) or hoist ``if rec.enabled:`` around a block of
    recordings — both are correct, the guard is just cheaper.
    """

    __slots__ = ()
    enabled = False

    def counter(self, name: str, value: int = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def histogram(self, name: str, value: float) -> None:
        pass

    def span(self, name: str, cat: str = "span", **args) -> NullSpan:
        return _NULL_SPAN

    def span_at(self, name: str, start_s: float, end_s: float,
                cat: str = "span", tid: Optional[int] = None, **args) -> None:
        pass

    def snapshot(self) -> None:
        return None


NULL_RECORDER = NullRecorder()


class Histogram:
    """Fixed-bucket histogram with running count/sum/min/max.

    ``edges`` must be strictly increasing; values land in
    ``len(edges) + 1`` buckets with left-closed intervals (a value equal
    to an edge belongs to the bucket *starting* at that edge).
    """

    __slots__ = ("edges", "counts", "count", "total", "min", "max")

    def __init__(self, edges) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ConfigError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ConfigError(
                f"histogram edges must be strictly increasing, got {edges}"
            )
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect_right(self.edges, v)] += 1
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated ``q``-quantile (see :func:`bucket_quantile`)."""
        lo = self.min if self.count else None
        hi = self.max if self.count else None
        return bucket_quantile(self.edges, self.counts, q, lo, hi)

    def merge_dict(self, payload: Dict[str, Any]) -> None:
        """Fold another histogram's :meth:`to_dict` payload into this one.

        Bucketwise count addition — requires identical edges (both sides
        come from the same schema catalogue, so a mismatch means the
        processes disagree on the schema and merging would corrupt both).
        """
        edges = tuple(float(e) for e in payload["edges"])
        if edges != self.edges:
            raise ConfigError(
                f"cannot merge histograms with different edges: "
                f"{edges} vs {self.edges}"
            )
        counts = payload["counts"]
        if len(counts) != len(self.counts):
            raise ConfigError(
                f"histogram payload has {len(counts)} buckets, "
                f"expected {len(self.counts)}"
            )
        for i, c in enumerate(counts):
            self.counts[i] += int(c)
        self.count += int(payload["count"])
        self.total += float(payload["sum"])
        if payload.get("min") is not None and payload["min"] < self.min:
            self.min = float(payload["min"])
        if payload.get("max") is not None and payload["max"] > self.max:
            self.max = float(payload["max"])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class Span:
    """Nestable wall-clock timer; records a completed span on exit."""

    __slots__ = ("_registry", "name", "cat", "args", "start_s", "end_s",
                 "depth")

    def __init__(self, registry: "MetricsRegistry", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self._registry = registry
        self.name = name
        self.cat = cat
        self.args = args
        self.start_s = 0.0
        self.end_s = 0.0
        self.depth = 0

    def __enter__(self) -> "Span":
        stack = self._registry._span_stack()
        self.depth = len(stack)
        stack.append(self)
        self.start_s = _clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.end_s = _clock()
        stack = self._registry._span_stack()
        if stack and stack[-1] is self:
            stack.pop()
        self._registry._add_span(
            self.name, self.cat, self.start_s, self.end_s, None, self.depth,
            self.args,
        )
        return False


#: One completed span: (name, cat, start_s, end_s, track, depth, args).
SpanRecord = Tuple[str, str, float, float, int, int, Dict[str, Any]]


class MetricsRegistry:
    """Thread-safe sink for the instrumentation in the hot paths.

    All mutation methods take the registry lock; reads for export
    (:meth:`snapshot`, the exporters in :mod:`repro.obs.export`) do too,
    so snapshots taken while reads are running are consistent.

    ``record_spans=False`` keeps counters/gauges/histograms but drops
    span capture — for long recordings where only the aggregates matter.
    """

    enabled = True

    def __init__(self, max_spans: int = 100_000,
                 record_spans: bool = True) -> None:
        if max_spans < 0:
            raise ConfigError(f"max_spans must be >= 0, got {max_spans}")
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: List[SpanRecord] = []
        self.max_spans = int(max_spans)
        self.record_spans = bool(record_spans)
        self.dropped_spans = 0
        #: perf_counter origin — span timestamps export relative to this.
        self.t0_s = _clock()
        self._locals = threading.local()
        self._tracks: Dict[int, int] = {}
        self._main_ident = threading.main_thread().ident
        #: pid → {"label", "prefix", "spans"} for registries merged in
        #: from other processes (:meth:`merge_remote`).
        self._remote: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------- metrics

    def counter(self, name: str, value: int = 1) -> None:
        """Add ``value`` (saturating at int64 bounds, never wrapping)."""
        with self._lock:
            self._counters[name] = _saturate(
                self._counters.get(name, 0) + int(value)
            )

    def gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins float value."""
        with self._lock:
            self._gauges[name] = float(value)

    def histogram(self, name: str, value: float) -> None:
        """Observe ``value`` in the fixed-bucket histogram ``name``
        (bucket edges come from the schema catalogue)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(default_edges_for(name))
                self._histograms[name] = hist
            hist.observe(value)

    # --------------------------------------------------------------- spans

    def span(self, name: str, cat: str = "span", **args) -> Span:
        """Context-manager timer; spans nest (per-thread depth)."""
        return Span(self, name, cat, args)

    def span_at(self, name: str, start_s: float, end_s: float,
                cat: str = "span", tid: Optional[int] = None, **args) -> None:
        """Record an already-measured interval (``perf_counter`` seconds).

        ``tid`` is the OS thread ident the work ran on (defaults to the
        calling thread), for a record written by another thread than the
        one that did the work.
        """
        self._add_span(name, cat, start_s, end_s, tid, 0, args)

    def _span_stack(self) -> List[Span]:
        stack = getattr(self._locals, "stack", None)
        if stack is None:
            stack = []
            self._locals.stack = stack
        return stack

    def _track(self, ident: Optional[int]) -> int:
        """Small stable per-thread track id (0 = the main thread)."""
        if ident is None:
            ident = threading.get_ident()
        if ident == self._main_ident:
            return 0
        track = self._tracks.get(ident)
        if track is None:
            track = len(self._tracks) + 1
            self._tracks[ident] = track
        return track

    def _add_span(self, name: str, cat: str, start_s: float, end_s: float,
                  tid: Optional[int], depth: int,
                  args: Dict[str, Any]) -> None:
        with self._lock:
            if not self.record_spans:
                # Deliberate opt-out (record_spans=False): counted on the
                # attribute but not surfaced as metric loss.
                self.dropped_spans += 1
                return
            if len(self._spans) >= self.max_spans:
                # Capacity overflow is *loss* — make it snapshot-visible.
                self.dropped_spans += 1
                self._counters["obs.dropped_spans"] = _saturate(
                    self._counters.get("obs.dropped_spans", 0) + 1
                )
                return
            self._spans.append(
                (name, cat, start_s, end_s, self._track(tid), depth, args)
            )

    # -------------------------------------------------------------- export

    def spans(self) -> List[SpanRecord]:
        """Copy of the recorded spans (consistent under the lock)."""
        with self._lock:
            return list(self._spans)

    def snapshot(self) -> Dict[str, Any]:
        """Schema-versioned JSON-ready dict of everything recorded.

        Spans are summarized (per-name counts); the full timeline exports
        separately via :func:`repro.obs.export.chrome_trace`.
        """
        with self._lock:
            span_names: Dict[str, int] = {}
            for rec in self._spans:
                span_names[rec[0]] = span_names.get(rec[0], 0) + 1
            remote_count = 0
            for entry in self._remote.values():
                prefix = entry["prefix"]
                remote_count += len(entry["spans"])
                for rec in entry["spans"]:
                    key = prefix + rec[0]
                    span_names[key] = span_names.get(key, 0) + 1
            spans_block: Dict[str, Any] = {
                "count": len(self._spans) + remote_count,
                "dropped": self.dropped_spans,
                "names": dict(sorted(span_names.items())),
            }
            if self._remote:
                spans_block["processes"] = {
                    str(pid): {"label": entry["label"],
                               "spans": len(entry["spans"])}
                    for pid, entry in sorted(self._remote.items())
                }
            return {
                "schema_version": SCHEMA_VERSION,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in sorted(self._histograms.items())
                },
                "spans": spans_block,
            }

    # ----------------------------------------------------- cross-process

    def export_remote(self, label: str = "",
                      clear: bool = True) -> Dict[str, Any]:
        """Package everything recorded for shipping to another process.

        The payload is plain JSON/pickle-safe data: counters, gauges,
        histogram dicts, span records (absolute ``perf_counter`` times —
        ``CLOCK_MONOTONIC`` is system-wide on Linux, so a receiver on the
        same host can lay them on its own timeline), the drop count, and
        this process's pid.  With ``clear=True`` (the default) the
        registry is reset atomically under the same lock, so a worker
        exporting per-request never double-ships a span.
        """
        with self._lock:
            payload = {
                "pid": os.getpid(),
                "label": label,
                "t0_s": self.t0_s,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in self._histograms.items()
                },
                "spans": [
                    [rec[0], rec[1], rec[2], rec[3], rec[4], rec[5],
                     dict(rec[6])]
                    for rec in self._spans
                ],
                "dropped_spans": self.dropped_spans,
            }
            if clear:
                # Inline reset: the lock is not reentrant, so clear()
                # cannot be called from here.
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
                self._spans.clear()
                self.dropped_spans = 0
        return payload

    def merge_remote(self, payload: Dict[str, Any],
                     prefix: str = "") -> int:
        """Fold an :meth:`export_remote` payload into this registry.

        Counters, gauges and histograms land under ``prefix`` (e.g.
        ``shard[0].engine.batches``) — :func:`repro.obs.schema.lookup`
        strips the namespace, so they validate against the same
        catalogue rows as local metrics.  Spans are kept per-pid for the
        Chrome exporter to render as separate process lanes; they do not
        count against this registry's ``max_spans`` (the sender already
        bounded them).  Returns the number of spans merged.
        """
        pid = int(payload["pid"])
        with self._lock:
            for name, value in payload.get("counters", {}).items():
                key = prefix + name
                self._counters[key] = _saturate(
                    self._counters.get(key, 0) + int(value)
                )
            for name, value in payload.get("gauges", {}).items():
                self._gauges[prefix + name] = float(value)
            for name, hdict in payload.get("histograms", {}).items():
                key = prefix + name
                hist = self._histograms.get(key)
                if hist is None:
                    hist = Histogram(hdict["edges"])
                    self._histograms[key] = hist
                hist.merge_dict(hdict)
            dropped = int(payload.get("dropped_spans", 0))
            if dropped:
                self.dropped_spans += dropped
                self._counters["obs.dropped_spans"] = _saturate(
                    self._counters.get("obs.dropped_spans", 0) + dropped
                )
            spans = [
                (rec[0], rec[1], float(rec[2]), float(rec[3]), int(rec[4]),
                 int(rec[5]), dict(rec[6]))
                for rec in payload.get("spans", [])
            ]
            entry = self._remote.get(pid)
            if entry is None:
                entry = {"label": payload.get("label", ""),
                         "prefix": prefix, "spans": []}
                self._remote[pid] = entry
            else:
                if payload.get("label"):
                    entry["label"] = payload["label"]
                if prefix:
                    entry["prefix"] = prefix
            entry["spans"].extend(spans)
            if spans:
                self._counters["trace.spans_merged"] = _saturate(
                    self._counters.get("trace.spans_merged", 0) + len(spans)
                )
        return len(spans)

    def remote_processes(self) -> Dict[int, Dict[str, Any]]:
        """Copy of the merged remote registries, keyed by pid
        (``{"label", "prefix", "spans"}`` — consumed by the Chrome
        exporter's per-process lanes)."""
        with self._lock:
            return {
                pid: {"label": entry["label"], "prefix": entry["prefix"],
                      "spans": list(entry["spans"])}
                for pid, entry in self._remote.items()
            }

    # ------------------------------------------------------------- helpers

    def counter_value(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._remote.clear()
            self.dropped_spans = 0
            self.t0_s = _clock()


@dataclass(frozen=True)
class TraceConfig:
    """Per-call recording knob carried on
    :class:`~repro.core.config.SearchConfig`.

    * ``enabled=False`` — force the null recorder for the call, even
      inside an ambient ``obs.recording()`` block (opt a hot call out);
    * ``registry=<MetricsRegistry>`` — route the call's metrics into a
      private registry instead of the ambient one, so benchmarks and
      experiments capture per-run metrics without any global leaking
      between runs;
    * default (``enabled=True, registry=None``) — record into whatever
      is ambient (the null recorder when no recording is active).
    """

    enabled: bool = True
    registry: Optional[MetricsRegistry] = None

    def __post_init__(self) -> None:
        if self.registry is not None and not isinstance(
            self.registry, MetricsRegistry
        ):
            raise ConfigError(
                "TraceConfig.registry must be a MetricsRegistry, got "
                f"{type(self.registry).__name__}"
            )


__all__ = [
    "INT64_MAX",
    "INT64_MIN",
    "Histogram",
    "bucket_quantile",
    "MetricsRegistry",
    "NullRecorder",
    "NULL_RECORDER",
    "Span",
    "SpanRecord",
    "TraceConfig",
]
