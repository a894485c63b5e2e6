"""Tests for obs exporters (JSON snapshot, Chrome trace), report/diff
rendering and the ``harmonia-tool obs`` CLI subcommands."""

import json

import pytest

import repro.obs as obs
from repro.cli import OBS_RECORD_BATCHES, main as cli_main
from repro.errors import ConfigError
from repro.obs.export import (
    chrome_trace,
    load_metrics,
    write_chrome_trace,
    write_snapshot,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_diff, render_report
from repro.obs.schema import SCHEMA_VERSION


def _sample_registry():
    reg = MetricsRegistry()
    reg.counter("engine.batches", 2)
    reg.counter("engine.unique_nodes.l0", 1)
    reg.counter("engine.unique_nodes.l1", 30)
    reg.gauge("gpusim.transactions_per_warp", 3.25)
    reg.gauge("join.selectivity", 0.4)
    reg.histogram("epoch.publish_wait_s", 1e-3)
    reg.span_at("epoch.drain", reg.t0_s + 0.001, reg.t0_s + 0.003,
                cat="epoch", tid=999, batch=0)
    reg.span_at("psa.prepare", reg.t0_s + 0.002, reg.t0_s + 0.005,
                cat="psa", batch=0)
    return reg


class TestChromeTrace:
    def test_structure(self):
        trace = chrome_trace(_sample_registry())
        assert isinstance(trace["traceEvents"], list)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(events) == 2
        assert {e["name"] for e in meta} >= {"process_name", "thread_name"}
        for e in events:
            assert e["ts"] >= 0 and e["dur"] >= 0 and e["pid"] == 1

    def test_microsecond_timestamps_relative_to_t0(self):
        reg = _sample_registry()
        events = [e for e in chrome_trace(reg)["traceEvents"] if e["ph"] == "X"]
        sort = next(e for e in events if e["name"] == "epoch.drain")
        assert sort["ts"] == pytest.approx(1000.0, rel=1e-6)
        assert sort["dur"] == pytest.approx(2000.0, rel=1e-6)

    def test_worker_and_main_tracks_distinct(self):
        events = [
            e for e in chrome_trace(_sample_registry())["traceEvents"]
            if e["ph"] == "X"
        ]
        tids = {e["name"]: e["tid"] for e in events}
        assert tids["epoch.drain"] != tids["psa.prepare"]
        assert tids["psa.prepare"] == 0

    def test_args_jsonable(self, tmp_path):
        import numpy as np

        reg = MetricsRegistry()
        reg.span_at("epoch.drain", reg.t0_s, reg.t0_s + 1e-3,
                    batch=np.int64(3), ratio=np.float64(0.5))
        path = write_chrome_trace(reg, tmp_path / "t.json")
        loaded = json.loads(path.read_text())  # must round-trip as JSON
        ev = next(e for e in loaded["traceEvents"] if e["ph"] == "X")
        assert ev["args"] == {"batch": 3, "ratio": 0.5}


class TestSnapshotIO:
    def test_write_and_load_roundtrip(self, tmp_path):
        snap = _sample_registry().snapshot()
        path = write_snapshot(snap, tmp_path / "snap.json")
        assert load_metrics(path) == snap

    def test_load_bench_wrapper(self, tmp_path):
        snap = _sample_registry().snapshot()
        wrapper = {"bench": "engine", "rows": [], "metrics": snap}
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(wrapper))
        assert load_metrics(path) == snap

    def test_load_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_metrics(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ConfigError):
            load_metrics(bad)
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_metrics(arr)


class TestReport:
    def test_renders_derived_and_units(self):
        text = render_report(_sample_registry().snapshot())
        assert "transactions/warp (Fig 2)" in text
        assert "3.25" in text
        assert "unique nodes per level" in text
        assert "[batches]" in text  # catalogue units

    def test_handles_foreign_version(self):
        snap = _sample_registry().snapshot()
        snap["schema_version"] = SCHEMA_VERSION + 7
        assert "best-effort" in render_report(snap)


class TestDiff:
    def test_deltas_and_added_removed(self):
        a = _sample_registry().snapshot()
        reg_b = _sample_registry()
        reg_b.counter("engine.batches", 2)  # 2 -> 4
        reg_b.counter("join.joins", 9)  # added
        b = reg_b.snapshot()
        del b["gauges"]["join.selectivity"]  # removed
        text = render_diff(a, b)
        assert "engine.batches" in text and "+2" in text
        assert "(added) 9" in text
        assert "(removed)" in text

    def test_no_differences(self):
        snap = _sample_registry().snapshot()
        assert "(no differences)" in render_diff(snap, snap)


class TestObsCLI:
    def test_record_validate_report_diff(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli_main([
            "obs", "record", "--out", str(out),
            "--keys", "4096", "--queries", "4096", "--seed", "3",
        ])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "transactions/warp" in captured
        assert "unique nodes per level" in captured
        snap_path = out / "snapshot.json"
        trace_path = out / "trace.json"
        assert snap_path.exists() and trace_path.exists()

        trace = json.loads(trace_path.read_text())
        ev = sorted((e for e in trace["traceEvents"] if e.get("ph") == "X"
                     and e["name"] in ("psa.prepare", "engine.lookup")),
                    key=lambda e: e["ts"])
        # One search_many per batch: a sort (psa.prepare) that ends before
        # its traverse (engine.lookup) starts (eps: float rounding in µs).
        n = OBS_RECORD_BATCHES
        assert sum(e["name"] == "engine.lookup" for e in ev) == n
        assert [e["name"] for e in ev[:2 * n]] == \
            ["psa.prepare", "engine.lookup"] * n
        eps = 1e-3
        for prep, look in zip(ev[:2 * n:2], ev[1:2 * n:2]):
            assert prep["ts"] + prep["dur"] <= look["ts"] + eps

        assert cli_main(["obs", "validate", str(snap_path)]) == 0
        assert cli_main(["obs", "report", str(snap_path)]) == 0
        assert "gpusim.transactions_per_warp" in capsys.readouterr().out
        assert cli_main(["obs", "diff", str(snap_path), str(snap_path)]) == 0
        assert "(no differences)" in capsys.readouterr().out

    def test_validate_fails_on_unknown_metric(self, tmp_path, capsys):
        snap = _sample_registry().snapshot()
        snap["counters"]["rogue.metric"] = 1
        path = tmp_path / "drift.json"
        path.write_text(json.dumps(snap))
        assert cli_main(["obs", "validate", str(path)]) == 1
        assert "rogue.metric" in capsys.readouterr().out

    def test_diff_missing_file_errors(self, capsys):
        assert cli_main(["obs", "diff", "/no/such/a.json", "/no/b.json"]) == 2
        assert "error" in capsys.readouterr().err
