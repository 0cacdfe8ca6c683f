"""The benchmark's traced run must find every layer it wraps."""

import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        "classgroup.det_ms",
        "arith.factor_ms",
        "classgroup.snf_ms",
        "classgroup.float_check_ms",
        "classgroup.bernoulli_ms",
        "verify.algebraic_ms",
    }


def traced_span_names(*argv):
    env = dict(os.environ)
    src = str(TRACED.parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACED), *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rc"] == 0, result["stderr"]
    return {span[0] for span in result["spans"]}


def test_traced_crosscheck_records_the_harness_span():
    # cli loads crosscheck lazily; the tracer must still rebind it
    assert "crosscheck.harness_ms" in traced_span_names("crosscheck")


def test_traced_analytic_verify_records_its_spans():
    names = traced_span_names("verify", "-p", "7", "--analytic")
    assert names >= {"verify.algebraic_ms", "siegel.analytic_ms"}


RUN = TRACED.with_name("run.py")
GOLDENS = json.loads(TRACED.with_name("goldens.json").read_text())


@pytest.fixture(scope="module")
def bench_run():
    """perfbench/run.py as a module; it imports traced.py from its own
    folder, and its dataclasses look their module up in sys.modules."""
    sys.path.insert(0, str(RUN.parent))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(RUN.parent))
    yield module
    sys.modules.pop(spec.name, None)


# table --pmax 101 is pinned with its caches in test_cli.py
@pytest.mark.parametrize("command", [c for c in GOLDENS if c != "table --pmax 101"])
def test_benchmark_command_matches_golden(command, bench_run, capsys):
    from cuspidal.cli import main

    argv = command.split()
    assert main(argv) == 0
    assert bench_run.key_lines(argv, capsys.readouterr().out) == GOLDENS[command]
