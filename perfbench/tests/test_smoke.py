"""Seconds-long runs of every workload through the benchmark's command."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from scenarios import WORKLOADS as WORKLOAD_CLASSES

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_line(process):
    return json.loads(process.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_and_passes_its_checks(workload):
    process = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "0")
    assert process.returncode == 0, process.stderr[-3000:]
    result = result_line(process)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= WORKLOAD_CLASSES[workload].min_requests
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", ["cell_cold", "sweep_warm"])
def test_traced_runs_repeat_their_deterministic_figures(workload):
    runs = []
    for _ in range(2):
        process = bench("--workload", workload, "--seed", "4", "--seconds",
                        "1", "--trace", "1")
        assert process.returncode == 0, process.stderr[-3000:]
        runs.append(result_line(process))
    first, second = (run["metrics"] for run in runs)
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    exact = [name for name in first
             if name.endswith(("py_calls_per_op", "py_calls_per_cell",
                               "py_calls"))
             or name.split(".")[0] in ("core", "memory", "power")
             or name == "sim.result_digest"]
    for name in exact:
        assert first[name] == second[name], name
    assert first["sim.result_digest"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                    "1", "--trace", "0", cwd=tmp_path)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
