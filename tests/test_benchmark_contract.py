"""The benchmark in ``perfbench/`` drives basopt by module attribute and by
result field, so a rename in the package breaks every benchmark run: in the
tracer's self-test, or in a workload's own checks."""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import basopt.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_point_exists():
    points = _load(PERFBENCH / "tracer.py", "perfbench_tracer").patch_points()
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def _load_runner(monkeypatch):
    """``perfbench/run.py`` as a module; it imports its tracer as ``tracer``
    and pins thread-pool variables in ``os.environ``, both undone after."""
    monkeypatch.setitem(sys.modules, "tracer", _load(PERFBENCH / "tracer.py", "tracer"))
    with mock.patch.dict(os.environ):
        return _load(PERFBENCH / "run.py", "perfbench_run")


@pytest.mark.parametrize("name", ["mich2d_search", "mich10d_ragged", "grid_mich2d"])
def test_each_workload_runs_and_checks_once(tmp_path, monkeypatch, name):
    """One operation of the workload, with the checks the benchmark runs on
    its first operation, and no failure."""
    runner = _load_runner(monkeypatch)
    assert sorted(runner.WORKLOADS) == sorted(
        ["mich2d_search", "mich10d_ragged", "grid_mich2d"])
    workload = runner.WORKLOADS[name]
    workload.load(basopt.cli, 0)
    result = workload.prepare(tmp_path)()
    record = workload.check(result, tmp_path)
    assert record["failures"] == []
    assert record["evals"] > 0
    assert workload.finish() == []
