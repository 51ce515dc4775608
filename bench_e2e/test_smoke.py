"""Smoke test of the benchmark itself: schema, names, record identity.

Runs every workload at ``--smoke`` sizes in a child interpreter (one
pass each) plus one traced run, and checks what the driver relies on:
the last stdout line is the result object, its metric names are exactly
those ``BENCHMARK.json`` declares, the workload names match, and the
benchmark's own record checks pass (``correct``).  Never a timing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = run_smoke(workload, trace=0)
    check(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_names_what_it_should_move():
    """``layers.json`` maps each per-layer metric to the end-to-end
    metrics it should move and the workloads it should move them on."""
    layers = json.loads((HERE / "layers.json").read_text())
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for name, entry in layers.items():
        assert set(entry) == {"moves", "on"}, name
        assert set(entry["moves"]) <= end_to_end, name
        assert entry["on"] and set(entry["on"]) <= set(WORKLOADS), name


def test_traced_run_reports_every_layer_and_closes():
    result = run_smoke("serve_closed_loop", trace=1)
    check(result, SPEC["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["serve.executed_points"] > 0
    assert metrics["serve.deduped"] > 0 and metrics["serve.replayed"] > 0
    assert metrics["core.decide_calls"] > 0
    trace = json.loads((HERE / "out" / "trace-serve_closed_loop.json").read_text())
    assert {"id", "parent", "name", "start", "end", "thread", "label"} == set(
        trace["spans"][0])
