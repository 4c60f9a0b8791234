"""The benchmark's trace hooks look layers up by module or class
attribute; each of those attributes must exist in the package."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_lookup_point_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.layer_points()
    assert points
    for owner, attr, _ in points:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
