"""Unit tests for the obs registry: counters, histograms, spans, scoping."""

import threading

import pytest

import repro.obs as obs
from repro.errors import ConfigError
from repro.obs.registry import (
    INT64_MAX,
    INT64_MIN,
    Histogram,
    MetricsRegistry,
    NULL_RECORDER,
    NullRecorder,
    TraceConfig,
)
from repro.obs.schema import (
    BITS_EDGES,
    SCHEMA_VERSION,
    default_edges_for,
    lookup,
    validate_snapshot,
)


class TestCounters:
    def test_increment_and_default(self):
        reg = MetricsRegistry()
        reg.counter("engine.batches")
        reg.counter("engine.batches", 5)
        assert reg.counter_value("engine.batches") == 6
        assert reg.counter_value("never.recorded") == 0

    def test_saturates_at_int64_max(self):
        reg = MetricsRegistry()
        reg.counter("engine.queries", INT64_MAX - 1)
        reg.counter("engine.queries", 10)
        assert reg.counter_value("engine.queries") == INT64_MAX
        reg.counter("engine.queries", 1)  # stays saturated, no wrap
        assert reg.counter_value("engine.queries") == INT64_MAX

    def test_saturates_at_int64_min(self):
        reg = MetricsRegistry()
        reg.counter("engine.queries", INT64_MIN)
        reg.counter("engine.queries", -10)
        assert reg.counter_value("engine.queries") == INT64_MIN

    def test_negative_increment(self):
        reg = MetricsRegistry()
        reg.counter("engine.queries", 10)
        reg.counter("engine.queries", -3)
        assert reg.counter_value("engine.queries") == 7


class TestGauges:
    def test_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("join.selectivity", 1.0)
        reg.gauge("join.selectivity", 2.5)
        assert reg.gauge_value("join.selectivity") == 2.5
        assert reg.gauge_value("missing", default=-1.0) == -1.0


class TestHistogram:
    def test_bucket_edges_left_closed(self):
        h = Histogram((1.0, 2.0, 4.0))
        # bucket 0 = (-inf, 1), 1 = [1, 2), 2 = [2, 4), 3 = [4, inf)
        for v in (0.0, 0.999):
            h.observe(v)
        h.observe(1.0)  # edge value belongs to the bucket it starts
        h.observe(1.999)
        h.observe(2.0)
        h.observe(4.0)
        h.observe(100.0)
        assert h.counts == [2, 2, 1, 2]
        assert h.count == 7 == sum(h.counts)
        assert h.min == 0.0 and h.max == 100.0

    def test_stats(self):
        h = Histogram((10.0,))
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0
        d = h.to_dict()
        assert d["count"] == 2 and d["sum"] == 6.0
        assert len(d["counts"]) == len(d["edges"]) + 1

    def test_empty_to_dict_min_max_none(self):
        d = Histogram((1.0,)).to_dict()
        assert d["min"] is None and d["max"] is None

    def test_invalid_edges(self):
        with pytest.raises(ConfigError):
            Histogram(())
        with pytest.raises(ConfigError):
            Histogram((1.0, 1.0))
        with pytest.raises(ConfigError):
            Histogram((2.0, 1.0))

    def test_registry_uses_catalogue_edges(self):
        reg = MetricsRegistry()
        reg.histogram("psa.bits_sorted", 12)
        snap = reg.snapshot()
        assert tuple(snap["histograms"]["psa.bits_sorted"]["edges"]) == BITS_EDGES

    def test_default_edges_for_uncatalogued(self):
        assert default_edges_for("no.such.histogram") == default_edges_for(
            "another.unknown"
        )


class TestSpans:
    def test_span_records_on_exit(self):
        reg = MetricsRegistry()
        with reg.span("engine.lookup", cat="engine", nq=7):
            pass
        spans = reg.spans()
        assert len(spans) == 1
        name, cat, start, end, track, depth, args = spans[0]
        assert name == "engine.lookup" and cat == "engine"
        assert end >= start and depth == 0 and args == {"nq": 7}
        assert track == 0  # main thread

    def test_nesting_depth(self):
        reg = MetricsRegistry()
        with reg.span("join.run"):
            with reg.span("psa.prepare"):
                with reg.span("engine.lookup"):
                    pass
        by_name = {s[0]: s for s in reg.spans()}
        assert by_name["join.run"][5] == 0
        assert by_name["psa.prepare"][5] == 1
        assert by_name["engine.lookup"][5] == 2

    def test_span_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.span("join.run"):
                raise RuntimeError("boom")
        assert len(reg.spans()) == 1
        # depth bookkeeping recovered: a new span is top-level again
        with reg.span("join.run"):
            pass
        assert reg.spans()[1][5] == 0

    def test_span_at_absolute_timestamps(self):
        reg = MetricsRegistry()
        reg.span_at("epoch.drain", reg.t0_s + 0.5, reg.t0_s + 0.7,
                    tid=12345, batch=3)
        (name, _, start, end, track, _, args) = reg.spans()[0]
        assert end - start == pytest.approx(0.2)
        assert track != 0  # foreign tid lands on a worker track
        assert args["batch"] == 3

    def test_max_spans_drops_and_counts(self):
        reg = MetricsRegistry(max_spans=2)
        for _ in range(5):
            with reg.span("update.merge"):
                pass
        assert len(reg.spans()) == 2
        assert reg.dropped_spans == 3
        assert reg.snapshot()["spans"]["dropped"] == 3

    def test_record_spans_false(self):
        reg = MetricsRegistry(record_spans=False)
        with reg.span("join.run"):
            pass
        assert reg.spans() == []
        assert reg.dropped_spans == 1


class TestSnapshot:
    def test_shape_and_validation(self):
        reg = MetricsRegistry()
        reg.counter("engine.batches", 2)
        reg.gauge("gpusim.utilization", 0.5)
        reg.histogram("engine.run_length", 16.0)
        with reg.span("engine.lookup"):
            pass
        snap = reg.snapshot()
        assert snap["schema_version"] == SCHEMA_VERSION
        assert validate_snapshot(snap) == []
        assert snap["spans"]["names"] == {"engine.lookup": 1}

    def test_validation_catches_unknown_names(self):
        reg = MetricsRegistry()
        reg.counter("made.up.counter")
        problems = validate_snapshot(reg.snapshot())
        assert any("made.up.counter" in p for p in problems)

    def test_validation_catches_kind_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("join.selectivity")  # catalogued as a gauge
        problems = validate_snapshot(reg.snapshot())
        assert any("join.selectivity" in p for p in problems)

    def test_validation_catches_version_and_structure(self):
        assert validate_snapshot(None)
        assert any("schema_version" in p for p in validate_snapshot({}))
        bad = {"schema_version": SCHEMA_VERSION + 1}
        assert any("schema_version" in p for p in validate_snapshot(bad))
        broken_hist = {
            "schema_version": SCHEMA_VERSION,
            "histograms": {
                "engine.run_length": {"edges": [1.0], "counts": [1], "count": 1}
            },
        }
        assert any("buckets" in p for p in validate_snapshot(broken_hist))

    def test_wildcard_families_resolve(self):
        assert lookup("engine.unique_nodes.l0") is not None
        assert lookup("engine.unique_nodes.l13") is not None
        assert lookup("gpusim.pipeline.serial.total_s") is not None
        assert lookup("bench.engine.naive_s") is not None
        assert lookup("engine.unique_nodes.") is None  # bare prefix
        assert lookup("enginex.unique") is None

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("engine.batches")
        with reg.span("engine.lookup"):
            pass
        reg.clear()
        snap = reg.snapshot()
        assert snap["counters"] == {} and snap["spans"]["count"] == 0


class TestThreadSafety:
    def test_concurrent_mutation_exact_totals(self):
        reg = MetricsRegistry(max_spans=10_000)
        n_threads, n_iter = 8, 500

        def work():
            for _ in range(n_iter):
                reg.counter("engine.queries", 2)
                reg.histogram("epoch.publish_wait_s", 1e-3)
                reg.span_at("epoch.drain", reg.t0_s, reg.t0_s + 1e-6)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_iter
        assert reg.counter_value("engine.queries") == 2 * total
        snap = reg.snapshot()
        assert snap["histograms"]["epoch.publish_wait_s"]["count"] == total
        assert snap["spans"]["count"] + snap["spans"]["dropped"] == total

    def test_worker_tracks_are_stable_and_distinct(self):
        reg = MetricsRegistry()
        # Hold all workers alive across the recording: the OS reuses thread
        # idents after join, so distinctness only holds for live threads.
        barrier = threading.Barrier(4)

        def work():
            reg.span_at("epoch.drain", reg.t0_s, reg.t0_s + 1e-6)
            barrier.wait()

        threads = [threading.Thread(target=work) for _ in range(3)]
        for t in threads:
            t.start()
        barrier.wait()
        for t in threads:
            t.join()
        tracks = {s[4] for s in reg.spans()}
        assert len(tracks) == 3 and 0 not in tracks


class TestNullRecorder:
    def test_all_noops(self):
        rec = NULL_RECORDER
        assert rec.enabled is False
        rec.counter("x")
        rec.gauge("x", 1.0)
        rec.histogram("x", 1.0)
        rec.span_at("x", 0.0, 1.0)
        with rec.span("x"):
            pass
        assert rec.snapshot() is None

    def test_singleton_span_reused(self):
        assert NullRecorder().span("a") is NULL_RECORDER.span("b")


class TestRecordingActivation:
    def test_swap_and_restore(self):
        assert obs.active is NULL_RECORDER
        with obs.recording() as rec:
            assert obs.active is rec
            assert rec.enabled
        assert obs.active is NULL_RECORDER

    def test_nesting_restores_outer(self):
        with obs.recording() as outer:
            with obs.recording() as inner:
                assert obs.active is inner
            assert obs.active is outer
        assert obs.active is NULL_RECORDER

    def test_restore_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert obs.active is NULL_RECORDER

    def test_explicit_registry(self):
        reg = MetricsRegistry(max_spans=1)
        with obs.recording(reg) as rec:
            assert rec is reg
        with pytest.raises(TypeError):
            with obs.recording(reg, max_spans=2):
                pass

    def test_constructor_kwargs(self):
        with obs.recording(max_spans=3) as rec:
            assert rec.max_spans == 3


class TestScoped:
    def test_none_leaves_ambient(self):
        with obs.recording() as rec:
            with obs.scoped(None):
                assert obs.active is rec

    def test_disabled_forces_null(self):
        with obs.recording():
            with obs.scoped(TraceConfig(enabled=False)):
                assert obs.active is NULL_RECORDER

    def test_registry_routes(self):
        reg = MetricsRegistry()
        with obs.scoped(TraceConfig(registry=reg)):
            assert obs.active is reg
        assert obs.active is NULL_RECORDER

    def test_enabled_without_registry_keeps_ambient(self):
        with obs.scoped(TraceConfig()):
            assert obs.active is NULL_RECORDER
        with obs.recording() as rec:
            with obs.scoped(TraceConfig()):
                assert obs.active is rec


class TestTraceConfig:
    def test_registry_type_checked(self):
        with pytest.raises(ConfigError):
            TraceConfig(registry="not a registry")

    def test_on_search_config(self):
        from repro.core.config import SearchConfig

        reg = MetricsRegistry()
        cfg = SearchConfig(trace=TraceConfig(registry=reg))
        assert cfg.trace.registry is reg
        with pytest.raises(ConfigError):
            SearchConfig(trace="nope")

    def test_max_spans_validation(self):
        with pytest.raises(ConfigError):
            MetricsRegistry(max_spans=-1)
