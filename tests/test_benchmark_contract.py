"""The benchmark's tracer replaces basopt functions by module attribute, so a
rename in the package breaks every benchmark run in its tracer self-test."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_point_exists():
    points = _load_tracer().patch_points()
    assert points
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points
               if not callable(getattr(owner, attr, None))]
    assert missing == []
