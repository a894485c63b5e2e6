"""Directed tests for the tracing plumbing and the flight recorder:
``bucket_quantile``, registry export/merge across processes, namespaced
schema lookup, the multi-process Chrome exporter lanes, ``TraceContext``
wire format, and :class:`~repro.obs.flight.FlightRecorder`.

The end-to-end sharded-service trace (router + real worker processes)
lives in ``test_shard_tracing.py``.
"""

import json
import threading

import pytest

import repro.obs as obs
from repro.errors import ConfigError
from repro.obs.export import chrome_trace
from repro.obs.flight import (
    FLIGHT_DIR_ENV,
    FlightRecorder,
    crash_dump_path,
    dump_on_crash,
    flight_dir,
)
from repro.obs.registry import Histogram, MetricsRegistry, bucket_quantile
from repro.obs.schema import TIME_EDGES_S, lookup, strip_namespace, \
    validate_snapshot
from repro.obs.trace import TraceContext, new_trace_id, shard_prefix


# --------------------------------------------------------------------------
# bucket_quantile / Histogram.quantile
# --------------------------------------------------------------------------


class TestBucketQuantile:
    def test_empty_is_none(self):
        assert bucket_quantile([1.0, 2.0], [0, 0, 0], 0.5) is None

    def test_single_value_exact_with_bounds(self):
        # One observation: every quantile must collapse to it when the
        # observed min/max clamp the bucket.
        edges = [1.0, 2.0, 4.0]
        counts = [0, 1, 0, 0]
        for q in (0.0, 0.5, 0.99, 1.0):
            assert bucket_quantile(edges, counts, q, lo=1.5, hi=1.5) == 1.5

    def test_interpolates_inside_bucket(self):
        # 10 values uniform in [0, 10): p50 sits mid-bucket.
        assert bucket_quantile([0.0, 10.0], [0, 10, 0], 0.5) == \
            pytest.approx(5.0, abs=1.0)

    def test_overflow_bucket_clamps_to_hi(self):
        edges = [1.0]
        counts = [0, 4]  # everything above the last edge
        assert bucket_quantile(edges, counts, 0.99, hi=7.0) <= 7.0
        assert bucket_quantile(edges, counts, 0.01) >= 1.0

    def test_histogram_quantile_single_observation(self):
        h = Histogram(TIME_EDGES_S)
        h.observe(0.0012)
        assert h.quantile(0.5) == pytest.approx(0.0012)
        assert h.quantile(0.99) == pytest.approx(0.0012)

    def test_histogram_quantile_ordering(self):
        h = Histogram(TIME_EDGES_S)
        for v in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1):
            h.observe(v)
        p50, p95, p99 = (h.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert p99 <= h.max

    def test_merge_dict_edge_mismatch(self):
        h = Histogram((1.0, 2.0))
        with pytest.raises(ConfigError):
            h.merge_dict({"edges": [1.0, 3.0], "counts": [0, 0, 0],
                          "count": 0, "sum": 0.0, "min": None, "max": None})


# --------------------------------------------------------------------------
# schema namespaces
# --------------------------------------------------------------------------


class TestNamespace:
    def test_strip(self):
        assert strip_namespace("shard[3].engine.batches") == "engine.batches"
        assert strip_namespace("engine.batches") == "engine.batches"
        # Nested prefixes strip iteratively.
        assert strip_namespace("shard[0].shard[1].x") == "x"

    def test_lookup_resolves_namespaced(self):
        row = lookup("shard[2].engine.batches")
        assert row is not None and row.name == "engine.batches"
        assert lookup("shard[2].rogue.metric") is None

    def test_validate_accepts_namespaced_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("engine.batches", 1)
        remote = MetricsRegistry()
        remote.counter("engine.batches", 3)
        reg.merge_remote(remote.export_remote(label="w"),
                         prefix=shard_prefix(0))
        problems = validate_snapshot(reg.snapshot())
        assert problems == []


# --------------------------------------------------------------------------
# TraceContext wire format
# --------------------------------------------------------------------------


class TestTraceContext:
    def test_mint_and_wire_roundtrip(self):
        ctx = TraceContext.mint()
        assert len(ctx.trace_id) == 16
        wire = ctx.for_shard(3)
        back = TraceContext.from_wire(wire)
        assert back is not None
        assert back.trace_id == ctx.trace_id and back.shard == 3

    def test_from_wire_rejects_non_contexts(self):
        assert TraceContext.from_wire(None) is None
        assert TraceContext.from_wire(42) is None
        assert TraceContext.from_wire({"shard": 1}) is None

    def test_ids_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64


# --------------------------------------------------------------------------
# registry export / merge
# --------------------------------------------------------------------------


def _remote_payload(pid_label="w0", spans=2):
    reg = MetricsRegistry()
    reg.counter("engine.batches", 5)
    reg.gauge("join.selectivity", 0.25)
    reg.histogram("epoch.publish_wait_s", 0.002)
    for i in range(spans):
        reg.span_at("worker.execute", reg.t0_s + i * 1e-3,
                    reg.t0_s + i * 1e-3 + 5e-4, cat="shard",
                    trace_id="abc", shard=0)
    return reg.export_remote(label=pid_label)


class TestExportMerge:
    def test_export_clears_by_default(self):
        reg = MetricsRegistry()
        reg.counter("engine.batches", 1)
        reg.span_at("worker.execute", reg.t0_s, reg.t0_s + 1e-3)
        payload = reg.export_remote(label="x")
        assert payload["counters"]["engine.batches"] == 1
        assert len(payload["spans"]) == 1
        # cleared: a second export ships nothing
        again = reg.export_remote(label="x")
        assert again["counters"] == {} and again["spans"] == []

    def test_merge_prefixes_and_counts(self):
        host = MetricsRegistry()
        host.counter("engine.batches", 2)
        n = host.merge_remote(_remote_payload(), prefix=shard_prefix(1))
        assert n == 2
        snap = host.snapshot()
        assert snap["counters"]["engine.batches"] == 2
        assert snap["counters"]["shard[1].engine.batches"] == 5
        assert snap["counters"]["trace.spans_merged"] == 2
        assert "shard[1].epoch.publish_wait_s" in snap["histograms"]
        assert validate_snapshot(snap) == []

    def test_merge_same_prefix_accumulates(self):
        host = MetricsRegistry()
        host.merge_remote(_remote_payload(), prefix=shard_prefix(0))
        host.merge_remote(_remote_payload(), prefix=shard_prefix(0))
        snap = host.snapshot()
        assert snap["counters"]["shard[0].engine.batches"] == 10
        hist = snap["histograms"]["shard[0].epoch.publish_wait_s"]
        assert hist["count"] == 2

    def test_merge_histogram_into_existing(self):
        host = MetricsRegistry()
        host.histogram("epoch.publish_wait_s", 0.001)
        remote = MetricsRegistry()
        remote.histogram("epoch.publish_wait_s", 0.004)
        host.merge_remote(remote.export_remote(label="w"), prefix="")
        hist = host.snapshot()["histograms"]["epoch.publish_wait_s"]
        assert hist["count"] == 2
        assert hist["min"] == pytest.approx(0.001)
        assert hist["max"] == pytest.approx(0.004)

    def test_remote_dropped_spans_propagate(self):
        remote = MetricsRegistry(max_spans=1)
        remote.span_at("worker.execute", remote.t0_s, remote.t0_s + 1e-3)
        remote.span_at("worker.execute", remote.t0_s, remote.t0_s + 1e-3)
        payload = remote.export_remote(label="w")
        assert payload["dropped_spans"] == 1
        host = MetricsRegistry()
        host.merge_remote(payload, prefix=shard_prefix(0))
        snap = host.snapshot()
        assert snap["counters"]["obs.dropped_spans"] == 1
        assert snap["spans"]["dropped"] == 1
        assert validate_snapshot(snap) == []

    def test_snapshot_lists_processes(self):
        host = MetricsRegistry()
        payload = _remote_payload()
        host.merge_remote(payload, prefix=shard_prefix(0))
        block = host.snapshot()["spans"]
        procs = block["processes"]
        assert str(payload["pid"]) in procs
        assert procs[str(payload["pid"])]["spans"] == 2
        # namespaced span names appear in the summary
        assert "shard[0].worker.execute" in block["names"]

    def test_clear_drops_remote(self):
        host = MetricsRegistry()
        host.merge_remote(_remote_payload(), prefix=shard_prefix(0))
        host.clear()
        assert host.remote_processes() == {}
        assert "processes" not in host.snapshot()["spans"]

    def test_merge_under_concurrent_recording(self):
        """Satellite: merging remote payloads while other threads record
        locally must lose nothing and corrupt nothing."""
        host = MetricsRegistry(max_spans=100_000)
        n_threads, per_thread, merges = 4, 200, 8
        stop = threading.Event()

        def record(tid):
            for i in range(per_thread):
                host.counter("engine.batches", 1)
                host.span_at("psa.prepare", host.t0_s + i * 1e-6,
                             host.t0_s + i * 1e-6 + 1e-7)
            stop.set()

        threads = [threading.Thread(target=record, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        merged = 0
        for _ in range(merges):
            merged += host.merge_remote(_remote_payload(),
                                        prefix=shard_prefix(0))
        for t in threads:
            t.join()
        snap = host.snapshot()
        assert snap["counters"]["engine.batches"] == n_threads * per_thread
        assert snap["counters"]["shard[0].engine.batches"] == 5 * merges
        assert merged == 2 * merges
        assert snap["spans"]["names"]["psa.prepare"] == \
            n_threads * per_thread
        assert snap["spans"]["names"]["shard[0].worker.execute"] == merged
        assert validate_snapshot(snap) == []


# --------------------------------------------------------------------------
# Chrome exporter: per-process lanes
# --------------------------------------------------------------------------


class TestChromeLanes:
    def _merged_registry(self):
        host = MetricsRegistry()
        host.span_at("shard.request", host.t0_s, host.t0_s + 2e-3,
                     cat="shard", trace_id="t1")
        a, b = _remote_payload("shard-0"), _remote_payload("shard-1")
        # distinct fake pids so the lanes separate even in one process
        a["pid"], b["pid"] = 11111, 22222
        host.merge_remote(a, prefix=shard_prefix(0))
        host.merge_remote(b, prefix=shard_prefix(1))
        return host

    def test_local_lane_keeps_pid_1(self):
        trace = chrome_trace(self._merged_registry())
        local = [e for e in trace["traceEvents"]
                 if e["ph"] == "X" and e["name"] == "shard.request"]
        assert local and all(e["pid"] == 1 for e in local)

    def test_one_lane_per_worker_process(self):
        trace = chrome_trace(self._merged_registry())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in events}
        assert pids == {1, 11111, 22222}
        worker_events = [e for e in events if e["pid"] == 22222]
        assert {e["name"] for e in worker_events} == {"worker.execute"}
        assert all(e["args"]["trace_id"] == "abc" for e in worker_events)

    def test_process_metadata_names_lanes(self):
        trace = chrome_trace(self._merged_registry())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        proc_names = {e["pid"]: e["args"]["name"] for e in meta
                      if e["name"] == "process_name"}
        assert proc_names[11111].startswith("shard-0")
        assert proc_names[22222].startswith("shard-1")
        sort_keys = {e["pid"]: e["args"]["sort_index"] for e in meta
                     if e["name"] == "process_sort_index"}
        # router lane sorts first, workers in pid order after it
        assert sort_keys[1] < sort_keys[11111] < sort_keys[22222]

    def test_trace_json_serializable(self, tmp_path):
        trace = chrome_trace(self._merged_registry())
        (tmp_path / "t.json").write_text(json.dumps(trace))


# --------------------------------------------------------------------------
# FlightRecorder
# --------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_wraps_and_counts_drops(self):
        fr = FlightRecorder(capacity=4)
        for i in range(10):
            fr.note("op", {"i": i})
        assert fr.events_recorded == 10
        assert fr.dropped == 6
        events = fr.events()
        assert len(events) == 4
        assert [e[0] for e in events] == [6, 7, 8, 9]  # oldest first
        assert events[-1][4] == {"i": 9}

    def test_capacity_validation(self):
        with pytest.raises(ConfigError):
            FlightRecorder(capacity=0)

    def test_latency_summary_percentiles(self):
        fr = FlightRecorder()
        for _ in range(100):
            fr.latency("router.search", 0.002)
        fr.latency("router.search", 0.5)
        summary = fr.latency_summary()["router.search"]
        assert summary["count"] == 101
        # p50 stays inside the bucket holding the 0.002 mass
        assert 0.002 <= summary["p50_s"] <= 0.005
        assert summary["p99_s"] >= summary["p50_s"]

    def test_dump_roundtrip(self, tmp_path):
        fr = FlightRecorder(capacity=8)
        fr.note("search", {"n": 4})
        fr.latency("router.search", 1e-3)
        path = tmp_path / "f.json"
        fr.dump_to(str(path), reason="test")
        loaded = json.loads(path.read_text())
        assert loaded["flight"] == 1 and loaded["reason"] == "test"
        assert loaded["events_recorded"] == 1 and loaded["dropped"] == 0
        assert loaded["events"][0]["kind"] == "search"
        assert "router.search" in loaded["latency"]

    def test_publish_gauges(self):
        fr = FlightRecorder(capacity=2)
        for _ in range(5):
            fr.note("x")
        reg = MetricsRegistry()
        fr.publish(reg)
        snap = reg.snapshot()
        assert snap["gauges"]["flight.events"] == 2
        assert snap["gauges"]["flight.dropped"] == 3
        assert validate_snapshot(snap) == []

    def test_publish_noop_when_disabled(self):
        fr = FlightRecorder()
        fr.note("x")
        fr.publish(obs.NULL_RECORDER)  # must not raise

    def test_clear(self):
        fr = FlightRecorder(capacity=2)
        fr.note("x")
        fr.latency("op", 1.0)
        fr.clear()
        assert fr.events() == [] and fr.events_recorded == 0
        assert fr.latency_summary() == {}

    def test_crash_dump_path_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        assert flight_dir() == str(tmp_path)
        assert crash_dump_path(123).endswith("harmonia-flight-123.json")
        assert crash_dump_path(123).startswith(str(tmp_path))
        monkeypatch.setenv(FLIGHT_DIR_ENV, "")
        assert flight_dir() is None
        assert crash_dump_path() is None
        assert dump_on_crash("disabled") is None

    def test_dump_on_crash_writes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        path = dump_on_crash("test-crash")
        assert path is not None
        loaded = json.loads(open(path).read())
        assert loaded["reason"] == "test-crash"
