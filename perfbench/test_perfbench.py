"""Self-test of the benchmark at a tiny sample size.

    python3 -m pytest perfbench -q

Runs every workload twice untraced and twice traced at m=40, checks that
each metric named in BENCHMARK.json is printed with its unit, and that
the exact counts repeat between the two runs.  Also checks that the
benchmark refuses to run without the package next to it.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_M = "40"
EXACT_END_TO_END = ("rounds", "gap_bound")


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--m", TINY_M],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_present_and_counts_repeat(workload, trace):
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    first, second = (result_of(run_bench(workload, trace)) for _ in range(2))
    for result in (first, second):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: v["unit"] for name, v in result["metrics"].items()} == {
            spec["name"]: spec["unit"] for spec in named
        }
    exact = [n for n in first["metrics"] if n.endswith(".calls") or n in EXACT_END_TO_END]
    assert exact
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_without_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("lp-colgen", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_generator_matches_acceptance_fixture():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from conftest import two_gaussians as fixture
    finally:
        sys.path.remove(str(ROOT / "tests"))
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    features, labels = run.two_gaussians(200, 0, 2)
    expected = fixture(200, seed=0)
    np.testing.assert_array_equal(features, expected.features)
    np.testing.assert_array_equal(labels, expected.labels)
