"""The package's public names resolve on first access (PEP 562), no
module of the package reads another's private names, and no function
imports a package module: the package registers each one as a lazy module
(``cuspidal/__init__``), so the modules import each other at their tops.
Those imports form no cycle, the Smith-form kernels (``components``)
import only ``arith`` and ``errors``, and the fork helper (``workers``)
imports no module of the package."""

import ast
import graphlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cuspidal

# in a fresh interpreter that imports only the package, read the public
# name argv[1] first, before any module has run, then every other; print the
# public names that dir() misses and the registration loop's names left in
# the namespace
FRESH = """\
import sys
import cuspidal
for name in [sys.argv[1], *cuspidal.__all__]:
    getattr(cuspidal, name)
print(repr([sorted(set(cuspidal.__all__) - set(dir(cuspidal))),
            sorted({"_name", "_spec"} & set(vars(cuspidal)))]))
"""


def test_every_public_name_resolves():
    for name in cuspidal.__all__:
        value = getattr(cuspidal, name)
        if name != "__version__":
            module = importlib.import_module(f"cuspidal.{cuspidal._EXPORTS[name]}")
            assert value is getattr(module, name), name


def test_a_fresh_interpreter_resolves_every_public_name():
    # here the other tests may have run every module already; there none
    # has, and a module that another one imports is a package attribute
    # once that one has run: so each name is read first in an interpreter
    src = Path(cuspidal.__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    for name in cuspidal.__all__:
        proc = subprocess.run(
            [sys.executable, "-c", FRESH, name],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert ast.literal_eval(proc.stdout) == [[], []], name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cuspidal import *", namespace)
    assert set(cuspidal.__all__) <= set(namespace)


def test_dir_lists_every_public_name():
    assert set(cuspidal.__all__) <= set(dir(cuspidal))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cuspidal.no_such_name


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    # a relative ``from .m import _x`` or a read of ``m._x``, m another
    # module of the package, fails; dunder names such as __version__ do not
    src = Path(cuspidal.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [
                    f"{path.name}:{node.lineno} from .{node.module} import {alias.name}"
                    for alias in node.names
                    if _private(alias.name)
                ]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules - {path.stem}
                and _private(node.attr)
            ):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not found, found


def test_no_function_imports_a_package_module():
    src = Path(cuspidal.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.ImportFrom):
                    modules = ["." * node.level + (node.module or "")]
                elif isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                else:
                    continue
                if any(m.startswith(".") or m.split(".")[0] == "cuspidal" for m in modules):
                    found.add(f"{path.name}:{node.lineno}")
    assert not found, sorted(found)


def _import_graph():
    """Each module's top-level relative imports."""
    src = Path(cuspidal.__file__).parent
    graph = {}
    for path in sorted(src.glob("*.py")):
        graph[path.stem] = set()
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[path.stem].update(names)
    return graph


def test_module_imports_form_no_cycle_and_components_knows_no_level():
    # components takes integer rows, polynomials and moduli, so it imports
    # no cartan, stickelberger or classgroup
    graph = _import_graph()
    assert graph["components"] <= {"arith", "errors"}, graph["components"]
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle {exc.args[1]}")


def test_the_fork_helper_imports_no_package_module():
    assert _import_graph()["workers"] == set()
