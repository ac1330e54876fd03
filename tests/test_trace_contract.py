"""The benchmark's trace contract, checked against the program.

``perfbench/tracer.py`` times the functions it names in ``TRACED`` and
counts attributes of their results; ``BENCHMARK.json`` declares the
per-layer metrics a traced run reports. A program function or attribute
that the tracer reads and that goes missing drops a metric silently, so a
traced run of the benchmark's ``report --interactions aic`` workload must
still report every declared metric. This test reads ``perfbench/`` and
changes nothing in it.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
# derived by perfbench/run.py from the traced and untraced runs, not by the tracer
DERIVED = {"trace.overhead_pct"}


def _bench_module(name: str, monkeypatch):
    """A module of ``perfbench/``, imported under a private name for the test."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_report_covers_every_per_layer_metric(tmp_path, monkeypatch):
    world, tracer = _bench_module("world", monkeypatch), _bench_module("tracer", monkeypatch)
    world.write_csv(world.sample(2000, 1), tmp_path / "input.csv")
    result = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), repr(time.monotonic()), str(result), "1",
         str(SRC), str(min(os.sched_getaffinity(0))), "--", "report",
         "--input", str(tmp_path / "input.csv"), "--outdir", str(tmp_path / "out"),
         "--seed", "1", "--interactions", "aic", "--reps", "10", "--bootstrap", "20"],
        env={"PYTHONPATH": str(SRC), "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    assert data["rc"] == 0
    assert data["missing"] == []
    metrics = tracer.layer_metrics(data["spans"], data["installed"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted({m["name"] for m in declared} - DERIVED - set(metrics)) == []
    # every group is scored on one shared set of --bootstrap replicates
    assert metrics["glm.bootstrap_replicates"] == 20
    assert [s["name"] for s in data["spans"]].count("glm.group_fix_impact") == 1
