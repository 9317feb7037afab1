"""Small-scale smoke test of the benchmark itself.

    python3 -m pytest perfbench/check_smoke.py -q

Runs every workload at 2 Monte Carlo paths (evolve-fine has one trajectory
and runs at full size, against its reference CSV), once untraced and twice
traced with the same seed.  Asserts that every metric of BENCHMARK.json is
emitted with its unit, that the count metrics repeat exactly, and that the
layer map in metrics.json names the same metrics.  The file name keeps it out
of the repository's default test collection; it takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = {m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")}
STEPS = {"converge": 2 * 2520, "energy": 2 * 1000, "evolve-fine": 1000}


def bench(workload: str, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--paths", "2"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_emitted(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = bench(workload, 0)
    assert_emitted(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first, second = bench(workload, 1), bench(workload, 1)
    for result in (first, second):
        assert_emitted(result, SPEC["per_layer"])
    counts = {name: first["metrics"][name]["value"] for name in COUNTS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNTS}
    assert counts["dynamics.split_calls"] + counts["dynamics.mid_calls"] == STEPS[workload]
    assert counts["noise.field_calls"] == STEPS[workload]
    assert counts["dynamics.nonconv"] == 0


def test_metric_map_matches_benchmark():
    layer_map = json.loads((ROOT / "perfbench" / "metrics.json").read_text(encoding="utf-8"))
    named = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    mapped = {m["name"]: m["unit"] for m in layer_map["end_to_end"] + layer_map["per_layer"]}
    assert {k: v for k, v in mapped.items() if k != "fail_rate"} == named
    assert set(layer_map["workloads"]) == set(WORKLOADS)
