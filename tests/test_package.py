"""The package's public names resolve on first access (PEP 562)."""

import importlib

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
