"""What a command-line process executes.  Importing ``cuspidal`` registers
every layer module as a lazy module: each is in sys.modules from the start
but is compiled and run only when a command first reads one of its
attributes.  So a module counts here once it has executed, and a
sys.modules entry that is still a lazy module does not.

Pinned: importing ``cuspidal.cli`` registers every module of the package
and executes only the command line and the errors it names; ``--version``
executes no layer module; ``order`` and ``table`` execute neither the
check layers (``verify``, ``crosscheck``, ``siegel``) nor the Smith-form
components, and import no ``fractions``; ``verify``
executes the components only with ``--structure``; ``verify`` and
``crosscheck`` do not execute each other; ``table`` forks its workers
only after ``cuspidal.classgroup`` has executed, so that no worker
compiles it again.  No command imports ``dataclasses`` (which pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src"
# run the command as ``python -m cuspidal.cli`` would, then report the
# modules that executed and, for each os.fork call, whether
# cuspidal.classgroup had executed by then
PROBE = """\
import importlib.util, os, sys

def executed(name):
    module = sys.modules.get(name)
    return module is not None and type(module) is not importlib.util._LazyModule

forks = []
real_fork = os.fork

def fork():
    forks.append(executed("cuspidal.classgroup"))
    return real_fork()

os.fork = fork
import cuspidal.cli
if {cpus}:
    cuspidal.cli._usable_cpus = lambda: {cpus}
rc = cuspidal.cli.main(sys.argv[1:])
print(repr([rc, sorted(filter(executed, list(sys.modules))), forks]))
"""


# import the command line only, then report each module of the package
# in sys.modules and whether it has executed
REGISTERED = """\
import importlib.util, sys
import cuspidal.cli
print(repr([(name, type(module) is not importlib.util._LazyModule)
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "cuspidal"]))
"""


def run_python(code, *argv):
    """The last line that ``python -c code argv...`` prints, as a literal."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return ast.literal_eval(proc.stdout.splitlines()[-1]), proc.stderr


def run_probe(*argv, cpus=0):
    (rc, modules, forks), stderr = run_python(PROBE.format(cpus=cpus), *argv)
    assert rc == 0, stderr
    return set(modules), forks


def loaded_modules(*argv):
    return run_probe(*argv)[0]


def package_modules(modules):
    return {m for m in modules if m.split(".")[0] == "cuspidal"}


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
    assert "cuspidal.cli" in modules
    assert not modules & {"dataclasses", "inspect", "cuspidal.siegel"}


def test_importing_the_command_line_registers_every_module():
    registered = dict(run_python(REGISTERED)[0])
    assert set(registered) == {"cuspidal"} | {
        f"cuspidal.{path.stem}" for path in (SRC / "cuspidal").glob("*.py")
        if path.stem != "__init__"
    }
    assert {name for name, executed in registered.items() if executed} == {
        "cuspidal", "cuspidal._version", "cuspidal.cli", "cuspidal.errors"
    }


def test_version_executes_no_layer_module():
    assert package_modules(loaded_modules("--version")) == {
        "cuspidal", "cuspidal._version", "cuspidal.cli", "cuspidal.errors"
    }


@pytest.mark.parametrize("argv", [("order", "-p", "13", "-k", "2"), ("table", "--pmax", "31")])
def test_order_and_table_execute_no_check_layer(argv):
    modules = loaded_modules(*argv)
    assert "cuspidal.classgroup" in modules
    assert not modules & {
        "cuspidal.verify", "cuspidal.crosscheck", "cuspidal.components", "cuspidal.siegel",
        "fractions", "decimal",
    }


def test_verify_and_crosscheck_do_not_execute_each_other():
    modules = loaded_modules("verify", "-p", "13")
    assert "cuspidal.verify" in modules and "cuspidal.crosscheck" not in modules
    modules = loaded_modules("crosscheck")
    assert "cuspidal.crosscheck" in modules and "cuspidal.verify" not in modules


def test_table_forks_after_its_module_has_executed():
    _, forks = run_probe("table", "--pmax", "31", cpus=2)
    assert forks == [True]


def test_analytic_suite_loads_siegel():
    modules = loaded_modules("verify", "-p", "7", "--analytic")
    assert "cuspidal.siegel" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_only_the_structure_loads_its_components():
    assert "cuspidal.components" not in loaded_modules("order", "-p", "13")
    assert "cuspidal.components" not in loaded_modules("table", "--pmax", "13")
    assert "cuspidal.components" not in loaded_modules("verify", "-p", "13")
    assert "cuspidal.components" in loaded_modules("verify", "-p", "13", "--structure")


def test_table_forks_its_workers_with_no_new_import():
    # the rows use os.fork and os pipes; signal and traceback are imported
    # only when a row or the table fails
    modules = loaded_modules("table", "--pmax", "101")
    assert not modules & {"multiprocessing", "concurrent.futures", "signal", "traceback"}
