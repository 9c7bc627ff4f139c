"""Self-test of the end-to-end benchmark.

Runs every workload for one second, untraced and traced, and checks that
each run is correct and emits exactly the metrics ``BENCHMARK.json``
declares, under well-formed names.  From the checkout root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py")]
        + list(args), cwd=cwd, stdout=subprocess.PIPE, text=True,
        timeout=600,
    )


def test_declared_names_are_well_formed():
    declared = (BENCHMARK["workloads"] + BENCHMARK["end_to_end"]
                + BENCHMARK["per_layer"])
    names = [entry["name"] for entry in declared]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_emits_every_declared_metric(workload, trace):
    completed = run_benchmark(ROOT, "--workload", workload, "--seed", "0",
                              "--seconds", "1", "--trace", str(trace))
    assert completed.returncode == 0
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert set(result["metrics"]) == set(units)
    for name, entry in result["metrics"].items():
        assert NAME.match(name), name
        assert entry["unit"] == units[name]
        assert isinstance(entry["value"], float)
        if not trace:
            assert entry["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = run_benchmark(tmp_path, "--workload", WORKLOADS[0])
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
