"""The benchmark's traced run must find every layer it wraps."""

import functools
import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).parents[1] / "perfbench" / "traced.py"


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.LAYERS
    for name, module, attr in traced.LAYERS:
        owner = importlib.import_module(f"cuspidal.{module}")
        target = functools.reduce(getattr, attr.split("."), owner)
        assert callable(target), (name, module, attr)
