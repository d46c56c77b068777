"""Smoke test of the benchmark itself, at the tiny sizes.

Run from the checkout root (it takes about a minute)::

    python3 -m pytest -q perfbench/test_smoke.py

It runs every workload path with tracing off and on, checks that each metric
named in BENCHMARK.json is emitted with its unit, that the kernel counts of
the traced run repeat exactly, that a corrupted certificate and a changed
report trip their gates, and that the benchmark refuses a directory without
the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload, to compare their counts."""
    results = {}
    for workload in WORKLOADS:
        pair = []
        for _ in range(2):
            proc = bench(workload, 1)
            assert proc.returncode == 0, proc.stderr
            pair.append(last_json(proc.stdout))
        results[workload] = pair
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload, traced):
    first, second = traced[workload]
    assert first["correct"] is True and first["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    counts = [k for k, unit in units.items() if unit in ("count", "B")]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    metrics = first["metrics"]
    if workload.startswith("verify"):
        assert metrics["spaces.discrete_norm.calls"]["value"] > 0
        suites = sum(v["value"] for k, v in metrics.items() if k.startswith("suites."))
        assert suites > 0
    else:
        assert metrics["spaces.discrete_norm.calls"]["value"] == 0
        assert metrics["gabor.fft_calls"]["value"] > 0


def test_corrupted_certificate_trips_gate(monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", ROOT)
    monkeypatch.setattr(run, "WORK", ROOT / ".perfbench_work")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    real = run.read_certificate

    def corrupted(path):
        cert = real(path)
        cert["B"] *= 1.0 + 1e-4
        return cert

    monkeypatch.setattr(run, "read_certificate", corrupted)
    code = run.main(["--workload", "certify-1d", "--seed", "5", "--seconds", "1",
                     "--size", "tiny"])
    result = last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_directory_without_program():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("verify-1d", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_changed_report_trips_repeat_gate(monkeypatch):
    work = ROOT / ".perfbench_work" / "repeat-gate"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    monkeypatch.setattr(run, "WORK", work)
    gates = run.Gates()
    run.check_repeatable(gates, "key", b"report")
    run.check_repeatable(gates, "key", b"report")
    assert gates.failed == 0
    run.check_repeatable(gates, "key", b"changed report")
    shutil.rmtree(work)
    assert gates.failed == 1
