"""What a command-line process loads: no ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``) in any command, the
q-series layer ``cuspidal.siegel`` only for ``verify --analytic``, and the
Smith-form components ``cuspidal.components`` only for ``--structure``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
# run the command as ``python -m cuspidal.cli`` would, then report sys.modules
PROBE = (
    "import json, sys\n"
    "from cuspidal.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "print(json.dumps([rc, sorted(sys.modules)]))\n"
)


def loaded_modules(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    rc, modules = json.loads(proc.stdout.splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(modules)


@pytest.mark.parametrize(
    "argv",
    [
        ("--version",),
        ("order", "-p", "5"),
        ("table", "--pmax", "13"),
        ("verify", "-p", "13", "--structure"),
    ],
)
def test_commands_load_neither_dataclasses_nor_siegel(argv):
    modules = loaded_modules(*argv)
    assert "cuspidal.cli" in modules and "cuspidal.verify" in modules
    assert not modules & {"dataclasses", "inspect", "cuspidal.siegel"}


def test_analytic_suite_loads_siegel():
    modules = loaded_modules("verify", "-p", "7", "--analytic")
    assert "cuspidal.siegel" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_only_the_structure_loads_its_components():
    assert "cuspidal.components" not in loaded_modules("order", "-p", "13")
    assert "cuspidal.components" not in loaded_modules("table", "--pmax", "13")
    assert "cuspidal.components" in loaded_modules("verify", "-p", "13", "--structure")
