"""The package's public names resolve on first access (PEP 562), and no
module of the package reads another's private names."""

import ast
import importlib
from pathlib import Path

import pytest

import cuspidal


def test_every_public_name_resolves():
    for name in cuspidal.__all__:
        value = getattr(cuspidal, name)
        if name != "__version__":
            module = importlib.import_module(f"cuspidal.{cuspidal._EXPORTS[name]}")
            assert value is getattr(module, name), name


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
