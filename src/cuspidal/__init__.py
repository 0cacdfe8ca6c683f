"""Exact computation of cuspidal divisor class groups of non-split Cartan
modular curves: orders, factored orders, abelian-group structure, and the
numerical verification layer for the underlying modular units.

This is the one place that decides when a module of the package runs.
Importing the package registers every layer module as a lazy module
(``importlib.util.LazyLoader``): each is in sys.modules and is a package
attribute from the start, but is compiled and run only at the first read
of one of its attributes.  So a command compiles only the modules it uses,
and the modules import each other at their tops: no function imports a
package module.  Each public name below resolves from its module on first
access (PEP 562)."""

import importlib.util
import sys

from ._version import __version__

for _name in (
    "arith", "cartan", "classgroup", "components", "crosscheck", "errors", "siegel",
    "stickelberger", "verify",
):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _name, _spec

# public name -> the module that defines it
_EXPORTS = {
    "Factorization": "arith",
    "Primality": "arith",
    "factorize": "arith",
    "is_prime": "arith",
    "legendre": "arith",
    "CartanClass": "cartan",
    "CartanContext": "cartan",
    "CartanElement": "cartan",
    "choose_epsilon": "cartan",
    "cusp_count_plus": "cartan",
    "find_generator_H": "cartan",
    "genus_plus": "cartan",
    "norm_class_partition": "cartan",
    "ClassGroupResult": "classgroup",
    "bernoulli_formula_k1": "classgroup",
    "compute_class_group": "classgroup",
    "float_crosscheck": "classgroup",
    "order": "classgroup",
    "structure": "classgroup",
    "InvariantViolation": "errors",
    "GroupRingElement": "stickelberger",
    "compute_a": "stickelberger",
    "somme_identities_check": "stickelberger",
    "stickelberger_data": "stickelberger",
    "theta": "stickelberger",
    "theta_prime": "stickelberger",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(globals()[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
