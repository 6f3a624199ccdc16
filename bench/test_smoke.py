"""Smoke test of the benchmark: every workload at its smallest size.

    python3 -m pytest bench/test_smoke.py -q

Each workload runs once untraced and once traced with `--smoke --seconds 0`
(two workers, smallest pass), and its result must name every metric of
BENCHMARK.json with its unit.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _smoke(workload: str, trace: int):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(record_line)["record"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    record, result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert record["fail_share"] == 0.0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted
    for timing in record["timings"].values():
        assert set(timing) == {"median", "q1", "q3", "n"} and timing["n"] >= 1
    env = record["environment"]
    for key in ("python", "numpy", "scipy", "blas", "nproc", "blas_threads", "git_commit"):
        assert key in env
    assert set(env["blas_threads"].values()) == {"1"}


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "fig3", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
