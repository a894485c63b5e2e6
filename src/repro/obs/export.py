"""Exporters: JSON snapshots and Chrome ``trace_event`` timelines.

The Chrome trace targets ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): a ``{"traceEvents": [...]}`` object of
complete ("X") events with microsecond timestamps relative to the
registry's ``t0_s``.  Thread tracks come from the registry's per-thread
track ids: spans recorded on the calling thread (a point read's
``psa.prepare`` then ``engine.lookup``, back to back; a shard request's
scatter, dispatch and gather) sit on track 0, spans from other threads (an epoch drain)
on worker tracks.

Registries that merged remote payloads
(:meth:`~repro.obs.registry.MetricsRegistry.merge_remote`) additionally
render one process lane per worker pid: the local process keeps
``pid 1`` (its lane layout is unchanged), each shard worker appears
under its real OS pid with its own thread tracks, and every lane shares
the router's clock (``perf_counter`` is system-wide on Linux) — so a
routed request reads left-to-right as scatter → per-shard execution →
gather across process lanes.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import ConfigError
from repro.obs.registry import MetricsRegistry

_TRACK_NAMES = {0: "main (traverse/scatter)"}


def chrome_trace(registry: MetricsRegistry) -> Dict[str, Any]:
    """Render the registry's spans as a Chrome trace_event object."""
    t0 = registry.t0_s
    events: List[Dict[str, Any]] = []
    tracks = {0}
    for name, cat, start_s, end_s, track, depth, args in registry.spans():
        tracks.add(track)
        event: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": (start_s - t0) * 1e6,
            "dur": max(end_s - start_s, 0.0) * 1e6,
            "pid": 1,
            "tid": track,
        }
        if args:
            event["args"] = {k: _jsonable(v) for k, v in args.items()}
        events.append(event)
    metadata: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "args": {"name": "harmonia-repro"},
    }, {
        "name": "process_sort_index",
        "ph": "M",
        "pid": 1,
        "args": {"sort_index": 0},
    }]
    for track in sorted(tracks):
        metadata.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": track,
            "args": {"name": _TRACK_NAMES.get(track, f"worker-{track}")},
        })
        metadata.append({
            "name": "thread_sort_index",
            "ph": "M",
            "pid": 1,
            "tid": track,
            "args": {"sort_index": track},
        })
    # Remote process lanes (merged shard-worker registries).
    for order, (pid, entry) in enumerate(
        sorted(registry.remote_processes().items()), start=1
    ):
        label = entry["label"] or entry["prefix"].rstrip(".") or f"pid-{pid}"
        remote_tracks = {0}
        for name, cat, start_s, end_s, track, depth, args in entry["spans"]:
            remote_tracks.add(track)
            event = {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": (start_s - t0) * 1e6,
                "dur": max(end_s - start_s, 0.0) * 1e6,
                "pid": pid,
                "tid": track,
            }
            if args:
                event["args"] = {k: _jsonable(v) for k, v in args.items()}
            events.append(event)
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"{label} (pid {pid})"},
        })
        metadata.append({
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "args": {"sort_index": order},
        })
        for track in sorted(remote_tracks):
            metadata.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": track,
                "args": {"name": "main" if track == 0
                         else f"worker-{track}"},
            })
            metadata.append({
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": track,
                "args": {"sort_index": track},
            })
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs", "dropped_spans":
                      registry.dropped_spans},
    }


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # numpy scalars and anything else: go through item()/str()
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    return str(value)


def write_chrome_trace(registry: MetricsRegistry,
                       path: Union[str, Path]) -> Path:
    """Write the span timeline as a ``chrome://tracing`` JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(chrome_trace(registry)) + "\n")
    return path


def write_snapshot(snapshot: Dict[str, Any],
                   path: Union[str, Path]) -> Path:
    """Write a registry snapshot as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_metrics(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a snapshot from disk.

    Accepts either a bare snapshot (``repro obs record`` output) or a
    BENCH-style wrapper whose ``metrics`` key holds the snapshot, so
    ``repro obs diff`` works directly on ``BENCH_*.json`` files.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load metrics from {path}: {exc}") from exc
    if isinstance(data, dict) and "schema_version" not in data \
            and isinstance(data.get("metrics"), dict):
        data = data["metrics"]
    if not isinstance(data, dict):
        raise ConfigError(f"{path} does not contain a metrics snapshot")
    return data


__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_snapshot",
    "load_metrics",
]
