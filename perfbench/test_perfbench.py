"""Smoke test of the benchmark itself, at tiny scale (a few seconds).

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from inputs import TINY, epoch_inputs, scan_inputs, uniform_inputs  # noqa: E402
from repro import HarmoniaTree  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS
    assert _declared("end_to_end") == dict(run.END_TO_END)
    assert _declared("per_layer") == dict(run.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_clean(workload, trace):
    rec = run.run_workload(workload, seed=5, seconds=0.3, trace=trace,
                           sizes=TINY)
    section = "per_layer" if trace else "end_to_end"
    got = {n: m["unit"] for n, m in rec["metrics"].items()}
    assert got == _declared(section)
    assert all(np.isfinite(m["value"]) for m in rec["metrics"].values())
    assert rec["attempted"] > 0
    assert rec["correct"] and rec["failed"] == 0 and rec["error_rate"] == 0
    if trace:
        assert rec["identity_checks"] > 0
        assert rec["identity_failures"] == 0
    else:
        assert all(rec["metrics"][n]["value"] > 0 for n in got)


def _digest(inp) -> str:
    h = hashlib.sha256()
    for name, value in sorted(vars(inp).items()):
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(value.tobytes())
            continue
        for item in value:  # write rounds or insert lists
            ops = item.ops if hasattr(item, "ops") else item
            h.update(repr([(o.kind, o.key, o.value) for o in ops]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("make", [
    lambda seed: uniform_inputs(seed, TINY, 0.3),
    lambda seed: epoch_inputs(seed, TINY, 0.3),
    lambda seed: scan_inputs(seed, TINY, 0.3),
], ids=run.WORKLOADS)
def test_same_seed_same_inputs(make):
    assert _digest(make(7)) == _digest(make(7))
    assert _digest(make(7)) != _digest(make(8))


def test_oracle_flags_a_wrong_result(monkeypatch):
    honest = HarmoniaTree.search_many

    def off_by_one(self, queries, config=None):
        out = honest(self, queries, config)
        out[0] += 1
        return out

    monkeypatch.setattr(HarmoniaTree, "search_many", off_by_one)
    rec = run.run_workload("uniform_read", seed=5, seconds=0.2, trace=False,
                           sizes=TINY)
    assert not rec["correct"] and rec["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
