"""Self-tests of the benchmark, on the smoke size (about a minute in all).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from gen import planted_partition, write_dataset
from workloads import WORKLOADS

sys.path.insert(0, run.SRC)

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run.run_workload(workload, "smoke", 0, 0.0, trace, quiet=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], float | int) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_reference_value_fails_the_op():
    reference = copy.deepcopy(run.load_reference("grid-search", "smoke", 0))
    assert reference is not None, "record smoke references with record.py first"
    reference["test_acc"][0] += 0.01
    result = run.run_workload("grid-search", "smoke", 0, 0.0, False, reference=reference, quiet=True)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_reproduces_the_same_bytes(tmp_path, workload):
    w = WORKLOADS[workload]
    features = "csv" if w.in_process else w.features

    def digest(seed, name):
        d = tmp_path / name
        d.mkdir()
        arrays = planted_partition(w.shapes["smoke"], seed)
        return [open(p, "rb").read() for p in write_dataset(str(d), *arrays, features)]

    assert digest(3, "a") == digest(3, "b")
    assert digest(3, "a2") != digest(4, "c")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-search", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
