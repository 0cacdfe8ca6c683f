"""Exact computation of cuspidal divisor class groups of non-split Cartan
modular curves: orders, factored orders, abelian-group structure, and the
numerical verification layer for the underlying modular units."""

from ._version import __version__
from .arith import (
    Factorization,
    Primality,
    factorize,
    is_prime,
    legendre,
)
from .cartan import (
    CartanClass,
    CartanContext,
    CartanElement,
    choose_epsilon,
    cusp_count_plus,
    find_generator_H,
    genus_plus,
    norm_class_partition,
)
from .classgroup import (
    ClassGroupResult,
    bernoulli_formula_k1,
    compute_class_group,
    float_crosscheck,
    order,
    structure,
)
from .errors import InvariantViolation
from .stickelberger import (
    GroupRingElement,
    compute_a,
    somme_identities_check,
    stickelberger_data,
    theta,
    theta_prime,
)

__all__ = [
    "__version__",
    "CartanClass",
    "CartanContext",
    "CartanElement",
    "ClassGroupResult",
    "Factorization",
    "GroupRingElement",
    "InvariantViolation",
    "Primality",
    "bernoulli_formula_k1",
    "choose_epsilon",
    "compute_a",
    "compute_class_group",
    "cusp_count_plus",
    "factorize",
    "find_generator_H",
    "float_crosscheck",
    "genus_plus",
    "is_prime",
    "legendre",
    "norm_class_partition",
    "order",
    "somme_identities_check",
    "stickelberger_data",
    "structure",
    "theta",
    "theta_prime",
]
