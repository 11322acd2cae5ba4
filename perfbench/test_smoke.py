"""Tiny-size smoke runs of the benchmark, through its own command line."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_reports_every_metric(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(m["trace.report_s"], rel=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "kernel", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_problem_files(tmp_path):
    import fixtures

    for name in ("a", "b"):
        fixtures.generate("kernel", 5, str(tmp_path / name), size="tiny")
    files = sorted(os.listdir(tmp_path / "a"))
    assert files == sorted(os.listdir(tmp_path / "b"))
    for f in files:
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
