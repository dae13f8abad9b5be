"""The package names the benchmark harness reads still resolve.

``perfbench/spans.py`` wraps every ``(module, function)`` of its
``TARGETS`` table, and ``perfbench/worker.py`` calls
``graphsig.build_graph`` and ``graphsig.io.load_dataset`` after a bare
``import graphsig``; ``perfbench/workloads.py`` runs CLI verbs.
Removing or renaming one of them breaks the benchmark; these tests
catch that in the unit suite.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsig
from graphsig.cli import build_parser

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_targets():
    return [(module, function) for module, function, _ in _load(SPANS).TARGETS]


@pytest.mark.parametrize("module, function", span_targets())
def test_span_target_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"graphsig.{module}"), function))


def test_bare_import_binds_what_the_worker_reads():
    # a fresh interpreter: here other tests have already imported graphsig.io
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphsig.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import graphsig; "
        "print(callable(graphsig.build_graph), callable(graphsig.io.load_dataset))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["True", "True"]


def test_every_cli_step_the_benchmark_runs_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(SPANS.parent))  # workloads.py imports its sibling gen.py
    workloads = _load(SPANS.parent / "workloads.py")
    steps = [
        argv
        for workload in workloads.WORKLOADS.values()
        if not workload.in_process
        for argv in workloads.cli_steps(workload, ("e.csv", "f.bin", "l.csv"), "op")
    ]
    assert steps
    for argv in steps:
        assert build_parser().parse_args(argv).verb == argv[0]
