"""Exact computation of cuspidal divisor class groups of non-split Cartan
modular curves: orders, factored orders, abelian-group structure, and the
numerical verification layer for the underlying modular units.

Importing the package runs none of its layer modules: each public name
below is imported from its module on first access (PEP 562), so a command
compiles only the modules it uses."""

from ._version import __version__

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
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
