"""The benchmark's traced run must find every layer it wraps."""

import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_traced_verify_records_every_layer_span():
    # the tracer rebinds only the modules loaded when it installs, so a layer
    # imported later would drop out of the trace without any error
    env = dict(os.environ)
    src = str(TRACED.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACED), "verify", "-p", "13", "--structure"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0
    names = {span[0] for span in result["spans"]}
    assert names >= {
        "cartan.context_ms",
        "cartan.partition_ms",
        "stickelberger.a_ms",
        "stickelberger.theta_ms",
        "classgroup.det_ms",
        "arith.factor_ms",
        "classgroup.lattice_ms",
        "classgroup.snf_ms",
        "classgroup.float_check_ms",
        "classgroup.bernoulli_ms",
        "verify.algebraic_ms",
    }
