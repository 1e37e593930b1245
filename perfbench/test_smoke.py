"""Smoke tests of the benchmark itself: every workload at a tiny size
(--smoke), untraced and traced, must pass its checks and print every metric
that BENCHMARK.json names, each with its unit."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("metric ")}
    for name, unit in named.items():
        assert printed.get(name) == unit, name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert printed["failed_frac"] == "ratio"


def test_worker_processes_stay_within_cpu_count(monkeypatch, capsys):
    """Runs the jobs-2 workload in this process and records the size of every
    worker pool it asks for; at most two small workers are started."""
    real_pool = multiprocessing.Pool
    asked = []

    def recording_pool(processes=None, *args, **kwargs):
        asked.append(processes)
        return real_pool(processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    assert run.main(["--workload", "closure-c2-jobs2", "--seed", "7", "--seconds", "0",
                     "--trace", "0", "--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    cpus = os.cpu_count() or 1
    assert asked if cpus > 1 else not asked
    assert all(p is not None and 1 <= p <= cpus for p in asked)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "k3-c1", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
