"""The benchmark's own checks.  Slow (about two minutes); run with

    python -m pytest perfbench/test_perfbench.py

* exact counts -- search counters of every named engine-hard
  instance, the proof length and the ATPG outcome counts -- repeat
  exactly across two processes (with different hash seeds), so later
  changes may cite them as evidence;
* every run is correct and reports every metric BENCHMARK.json names;
* without the program's source the benchmark fails without a result.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("cdcl.conflicts.", "cdcl.decisions.", "cdcl.propagations.",
         "drat.proof_steps", "atpg.detected", "atpg.redundant")


def run(workload, trace, hash_seed, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", ["engine-hard", "atpg-flow"])
def test_exact_counts_repeat(workload):
    first, second = (result(run(workload, 1, seed)) for seed in (0, 1))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"]
                                     for m in spec()["per_layer"]}
    exact = {name: value["value"]
             for name, value in first["metrics"].items()
             if name.startswith(EXACT) and value["value"] > 0}
    assert exact
    for name, value in exact.items():
        assert second["metrics"][name]["value"] == value, name


def test_end_to_end_metrics_reported():
    out = result(run("atpg-flow", 0, 0))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"]
                                   for m in spec()["end_to_end"]}
    assert all(entry["value"] > 0 for entry in out["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("engine-hard", 0, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
