"""Smoke self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once, plus one traced run, on a 2 000-row corpus and
checks that the printed metric names and units are exactly the ones
BENCHMARK.json declares. A last case starts Ray with fewer CPUs than an
encoder actor needs and checks that the watchdog fails the run, with Ray's
resource warning, instead of letting it hang.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args: str, timeout: float = 180) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--rows", "2000", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(metrics: list[dict]) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_declared_metrics(workload):
    res = result_of(run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_prints_declared_metrics():
    workload = SPEC["workloads"][0]["name"]
    res = result_of(run("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"))
    assert res["correct"] is True
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units(SPEC["per_layer"])


def test_unplaceable_job_fails_instead_of_hanging():
    proc = run("--workload", "encode_fresh", "--seed", "1", "--seconds", "1",
               "--ray-cpus", "1")
    assert proc.returncode != 0
    assert "hang forever" in proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] is False and res["failed"] >= 1
