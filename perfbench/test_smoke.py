"""Smoke test of the benchmark: every workload at reduced sizes, untraced and
traced, in a few seconds.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

os.environ.update(bench.THREAD_PINS)
bench.import_mavik()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_untraced_and_traced(name, tmp_path):
    plain, _, problems = bench.run(name, 0, 0.0, False, workloads.SMOKE, tmp_path)
    assert plain["correct"], problems
    assert plain["attempted"] >= 1 and plain["failed"] == 0
    assert _units(plain["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())

    first, _, problems = bench.run(name, 0, 0.0, True, workloads.SMOKE, tmp_path)
    assert first["correct"], problems
    second, _, problems = bench.run(name, 0, 0.0, True, workloads.SMOKE, tmp_path)
    assert second["correct"], problems
    assert _units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for metric in spans.WORK_COUNTS:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [m for m, _ in bench.END_TO_END]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    args = ["--workload", "fit-numeric", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
