"""Observability layer: zero-overhead-when-disabled metrics & tracing.

Usage from instrumented code (the hot-path pattern)::

    import repro.obs as obs

    def execute(self, ...):
        rec = obs.active            # one attribute lookup
        ...
        if rec.enabled:             # False outside a recording
            rec.counter("engine.batches")

Usage from callers::

    with obs.recording() as rec:
        tree.search_many(queries)
    snapshot = rec.snapshot()

``obs.active`` is the ambient recorder: the :data:`NULL_RECORDER`
singleton by default, a :class:`MetricsRegistry` inside a
``recording()`` block.  Activation is a global swap (recordings nest;
the previous recorder is restored on exit, even on exception), so two
*concurrent* activations of different registries race — but that is not
the concurrency the layer targets: many threads recording into one
active registry is fully supported (every registry mutation is locked),
which is what concurrent ``search_many`` calls on one tree do.  For strict per-call isolation without any
global, pass ``SearchConfig(trace=TraceConfig(registry=...))`` — the
tree entry points scope the swap to the call via :func:`scoped`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.obs.registry import (
    NULL_RECORDER,
    Histogram,
    MetricsRegistry,
    NullRecorder,
    Span,
    TraceConfig,
    bucket_quantile,
)
from repro.obs.schema import (
    CATALOGUE,
    SCHEMA_VERSION,
    MetricSpec,
    lookup,
    strip_namespace,
    validate_snapshot,
)

#: The ambient recorder read by every instrumentation site.
active: Union[NullRecorder, MetricsRegistry] = NULL_RECORDER


@contextmanager
def recording(
    registry: Optional[MetricsRegistry] = None, **registry_kwargs
) -> Iterator[MetricsRegistry]:
    """Activate a registry for the duration of the block.

    Yields the registry (a fresh one unless ``registry`` is passed; extra
    kwargs go to the :class:`MetricsRegistry` constructor).  Nestable —
    an inner ``recording()`` shadows the outer one and restores it on
    exit.  The swap is process-global: code that starts threads inside
    the block (e.g. an epoch's drain thread) records into this registry
    from all of them.
    """
    global active
    if registry is None:
        registry = MetricsRegistry(**registry_kwargs)
    elif registry_kwargs:
        raise TypeError("pass either a registry or constructor kwargs, "
                        "not both")
    previous = active
    active = registry
    try:
        yield registry
    finally:
        active = previous


@contextmanager
def scoped(trace: Optional[TraceConfig]) -> Iterator[None]:
    """Apply a :class:`TraceConfig` for the duration of one call.

    * ``None`` — leave the ambient recorder untouched (the common case;
      zero work besides this check);
    * ``enabled=False`` — force the null recorder, opting the call out of
      any ambient recording;
    * ``registry`` set — route the call into that private registry.
    """
    if trace is None:
        yield
        return
    global active
    previous = active
    if not trace.enabled:
        active = NULL_RECORDER
    elif trace.registry is not None:
        active = trace.registry
    try:
        yield
    finally:
        active = previous


# Imported after ``active`` exists: both modules read it at call time.
from repro.obs.flight import FLIGHT, FlightRecorder  # noqa: E402
from repro.obs.trace import TraceContext  # noqa: E402

__all__ = [
    "active",
    "recording",
    "scoped",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "NULL_RECORDER",
    "Span",
    "TraceConfig",
    "TraceContext",
    "FLIGHT",
    "FlightRecorder",
    "MetricSpec",
    "CATALOGUE",
    "SCHEMA_VERSION",
    "bucket_quantile",
    "lookup",
    "strip_namespace",
    "validate_snapshot",
]
