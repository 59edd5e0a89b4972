"""Smoke tests of the benchmark: every workload at tiny size passes the
correctness gate, a traced run reports every per-layer metric and leaves no
wrapper installed, and the benchmark refuses to run without the harness."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bindings() -> dict:
    """Every attribute of the hicot modules and their classes, plus os.fsync."""
    found = {("os", "fsync"): os.fsync}
    for name, module in list(sys.modules.items()):
        if name != "hicot" and not name.startswith("hicot."):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("hicot"):
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_the_gate(tmp_path, monkeypatch, name):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.run_workload(name, 7, 0, False, tmp_path / "work", problems=2, loop_k=5)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_run_reports_layers_and_restores_every_function(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert run.cli.scan_blocks is not before[("hicot.cli", "scan_blocks")]
        traces = sys.modules["hicot.traces"]
        assert traces.extract_boxed is not before[("hicot.traces", "extract_boxed")]
        assert os.fsync is not before[("os", "fsync")]
    finally:
        tracer.restore()
    assert _bindings() == before

    result = run.run_workload("rescore_warm", 7, 0, True, tmp_path / "work", problems=2, loop_k=5)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert (tmp_path / "spans-rescore_warm-seed7.jsonl").exists()
    assert _bindings() == before


def test_layer_map_matches_the_spec():
    layers = json.loads((run.BENCH / "layers.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(layers["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    for entry in layers["per_layer"].values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= workloads


def test_refuses_to_run_without_the_harness(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "run_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
