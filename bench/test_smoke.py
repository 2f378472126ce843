"""Smoke test of the benchmark itself, at minimal size.

    python3 -m pytest bench/test_smoke.py

``--seconds 0`` runs only the fixed quality unit of each workload (one
shipped-size unit), including ``snr_sweep_workers2``, which
BENCHMARK.json does not list. Every metric named in BENCHMARK.json must
print with its unit, and no operation may fail. This file sits outside ``tests/`` so the package's
own test run does not pick it up.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from workloads import QUALITY_UNITS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd, workload, trace, seed=20260814, seconds=0):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_report(proc, trace):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.endswith("error_rate 0") for line in lines)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}")
                   for line in lines[:-1])
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    result = check_report(run_bench(ROOT, workload, trace), trace)
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_held_out_seed_matches_reference():
    # A run longer than one unit goes past the fixed unit into seeded ones.
    result = check_report(run_bench(ROOT, "p_sweep_ideal", 0, seed=7, seconds=15), 0)
    assert result["attempted"] > QUALITY_UNITS


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
