"""Tests of the benchmark itself: python3 -m pytest perfbench -q

A smoke run of each workload must pass every oracle check, and corrupted
provider outputs must be counted as failed deliveries.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowsplat import providers

import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture
def smoke(monkeypatch, tmp_path):
    """Run a workload for a moment: few edges, two set-ups."""
    monkeypatch.setattr(workloads, "MIN_EDGES", 1)
    monkeypatch.setattr(workloads, "SETUP_SAMPLES", 2)

    def run(name, trace=False):
        return workloads.run_workload(name, seed=3, seconds=0.05, trace=trace,
                                      workdir=tmp_path / "work")

    return run


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_passes_oracle_checks(smoke, name):
    result = smoke(name)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
    assert result["provisioned"] == result["keyframes"] > 0
    assert set(result["metrics"]) == {"keyframes_per_s", "edge_latency_ms_p50",
                                      "edge_latency_ms_p90", "setup_s", "peak_rss_mb"}
    assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_smoke_reports_every_layer(smoke, name):
    result = smoke(name, trace=True)
    assert result["failed"] == 0, result["problems"]
    metrics = result["metrics"]
    assert {f"{layer}.{stat}" for layer, stat, _ in workloads.PER_LAYER} <= set(metrics)
    assert 0.0 < metrics["trace.attributed_frac"][0] <= 1.0
    scene_calls = sum(v for k, (v, _) in metrics.items()
                      if k.startswith("providers.SyntheticScene.") and k.endswith(".calls"))
    if name == "dspt_replay":
        assert scene_calls == 0
        assert metrics["providers.read_dspt.calls"][0] == 2 + 2 * workloads.WORKLOADS[name].window
    else:
        assert scene_calls > 0
        assert metrics["geometry.reproject.calls"][0] == 2 * workloads.WORKLOADS[name].window


def _corrupt_edges(monkeypatch, corrupt):
    original = providers.SyntheticProviders.provide_correspondences

    def corrupted(self, i, j, snapshot=None):
        upd = original(self, i, j, snapshot)
        corrupt(upd)
        return upd

    monkeypatch.setattr(providers.SyntheticProviders, "provide_correspondences", corrupted)


def _assert_only_edges_failed(result):
    edges = result["keyframes"] * 2 * workloads.WORKLOADS["tiny_graph"].window
    assert result["failed"] == edges > 0
    assert result["provisioned"] == 0
    assert 0 < result["failed"] / result["attempted"] < 1


def test_shifted_target_counts_as_failed(smoke, monkeypatch):
    def shift(upd):
        upd.target += 1.0

    _corrupt_edges(monkeypatch, shift)
    _assert_only_edges_failed(smoke("tiny_graph"))


def test_nan_weight_counts_as_failed(smoke, monkeypatch):
    def nan_weight(upd):
        upd.weight[0, 0, 0] = np.nan

    _corrupt_edges(monkeypatch, nan_weight)
    _assert_only_edges_failed(smoke("tiny_graph"))


def test_flipped_dspt_byte_counts_as_failed(smoke, monkeypatch):
    original = providers.write_dspt

    def flip_first_payload_byte(path, array):
        original(path, array)
        if Path(path).name.startswith("flow_"):
            with open(path, "r+b") as fh:
                fh.seek(20)
                byte = fh.read(1)[0]
                fh.seek(20)
                fh.write(bytes([byte ^ 0x01]))

    monkeypatch.setattr(providers, "write_dspt", flip_first_payload_byte)
    result = smoke("dspt_replay")
    edges = result["keyframes"] * 2 * workloads.WORKLOADS["dspt_replay"].window
    assert result["failed"] == edges > 0
    assert 0 < result["failed"] / result["attempted"] < 1


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tiny_graph",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_is_the_contract(trace):
    """The last line of run.py's output is the JSON object the contract names."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "tiny_graph",
                           "--seed", "2", "--seconds", "0.3", "--trace", trace],
                          capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 < result["attempted"]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = bench["end_to_end"] if trace == "0" else bench["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
