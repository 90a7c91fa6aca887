"""Tests of the benchmark itself, on smoke-size inputs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def assert_reports(out: subprocess.CompletedProcess, specs: list[dict]) -> dict:
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert isinstance(result["metrics"][spec["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [spec["name"]] and line.split()[2] == spec["unit"]
                   for line in lines[:-1]), spec["name"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    out = run("--workload", workload, "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    result = assert_reports(out, DECLARED["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_prints_every_per_layer_metric(workload):
    out = run("--workload", workload, "--trace", "1", "--smoke")
    assert out.returncode == 0, out.stderr
    result = assert_reports(out, DECLARED["per_layer"])
    assert result["correct"]
    spans = BENCH / "out" / f"trace-{workload}-seed3.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) >= {"name", "start_ns", "end_ns", "parent", "workload", "pass"}


def copy_checkout(dest: Path, with_src: bool = True) -> Path:
    """Copy BENCHMARK.json, bench/ and (optionally) src/ into dest; returns the copied run.py."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest / "bench" / "run.py"


@pytest.mark.parametrize("workload, section, key", [
    ("census_table", "census", "-9,6"),
    ("exact_sweep", "key_identity", "2,8"),
])
def test_tampered_reference_fails(tmp_path, workload, section, key):
    script = copy_checkout(tmp_path)
    path = tmp_path / "bench" / "reference.json"
    reference = json.loads(path.read_text())
    smoke_x = {"census": "200000", "key_identity": "5000"}[section]
    entry = reference[section][smoke_x]
    entry[key] = [entry[key][0] + 1, entry[key][1]] if section == "census" else entry[key] + 1
    path.write_text(json.dumps(reference))
    out = run("--workload", workload, "--trace", "0", "--smoke", cwd=tmp_path, script=script)
    assert out.returncode != 0
    result = json.loads(out.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    frac = next(line for line in out.stdout.splitlines() if line.startswith("failed_frac"))
    assert float(frac.split()[1]) > 0
    assert "FAILED" in out.stderr


def test_no_result_without_the_program(tmp_path):
    script = copy_checkout(tmp_path, with_src=False)
    out = run("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path, script=script)
    assert out.returncode != 0
    assert "correct" not in out.stdout
