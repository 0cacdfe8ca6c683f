"""Arithmetic in (Z/p^k Z)[sqrt(eps)] and the curve-level formulas.

An element s = a1 + a2*sqrt(eps) is stored as the residue pair (a1, a2)
modulo p^k; it is a unit iff p does not divide both coordinates.  The unit
classes modulo {+-1} carry a canonical representative (CartanClass below):

    0 <= a1 <= (p^k - 1) / 2,   0 <= a2 <= p^k - 1,
    and additionally a2 <= (p^k - 1) / 2 when a1 == 0.

The quotient H = (Z/p^k Z)* / {+-1} is cyclic of order n = (p-1) p^(k-1) / 2;
unit classes are partitioned into n buckets by the H-class of their norm
a1^2 - eps * a2^2, each bucket holding (p+1) p^(k-1) classes.

CartanContext.classes() and norm_class_partition() enumerate those
(p^2 - 1) p^(2k-2) / 2 classes densely, quadratic in p^k in time and
memory.  They are test oracles, which no command reads: stickelberger
convolves the theta' row and verify's bucket sizes and fiber sums, and
siegel takes each bucket from the units of two norms (units_of_norm).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .arith import Primality, factorize, is_prime, legendre
from .errors import InvariantViolation, brief_int


class CartanElement(NamedTuple):
    a1: int
    a2: int


class CartanClass(NamedTuple):
    a1: int
    a2: int


def cusp_count_plus(p: int, k: int = 1) -> int:
    """Number of cusps of the plus-curve at level p^k: (p-1) p^(k-1) / 2."""
    validate_pk(p, k)
    return (p - 1) * p ** (k - 1) // 2


def genus_plus(p: int) -> int:
    """Genus of the plus-curve at prime level, from the Hurwitz count."""
    validate_pk(p, 1)
    value = p * p - 10 * p + 23 + 6 * legendre(-1, p) + 4 * legendre(-3, p)
    if value % 24 or value < 0:
        raise InvariantViolation(f"genus formula gave non-integer {value}/24 for p={p}")
    return value // 24


# Per-level caches (keyed by CartanContext) keep this many contexts: enough
# for the two that ``verify --eps-independence`` compares, while a table run
# over many levels holds no more than that.
CONTEXT_CACHE_SIZE = 2


def validate_pk(p: int, k: int) -> None:
    if k < 1:
        raise ValueError("k must be a positive integer")
    if p < 5 or is_prime(p) is Primality.COMPOSITE:
        raise ValueError(f"p must be a prime >= 5, got {brief_int(p)}")


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    return all(e.exponent == 1 for e in factorize(n).entries)


def is_valid_epsilon(p: int, eps: int) -> bool:
    return eps % 4 == 3 and _is_squarefree(eps) and legendre(eps, p) == -1


def valid_epsilons(p: int) -> Iterator[int]:
    """Valid eps in the fixed deterministic order: -1 first when p = 3 mod 4,
    then positive candidates 3, 7, 11, ... (squarefree non-residues only)."""
    validate_pk(p, 1)
    if p % 4 == 3:
        yield -1
    c = 3
    while True:
        if is_valid_epsilon(p, c):
            yield c
        c += 4


def choose_epsilon(p: int) -> int:
    return next(valid_epsilons(p))


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def find_generator_H(p: int, k: int = 1) -> int:
    """Smallest positive integer whose class generates H = (Z/p^k Z)*/{+-1}."""
    validate_pk(p, k)
    m = p**k
    n = (p - 1) * p ** (k - 1) // 2
    prime_divs = [e.prime for e in factorize(n).entries]
    g = 2
    while True:
        if g % p:
            # order in H divides n; g generates iff no proper quotient fixes it
            if all(pow(g, n // q, m) not in (1, m - 1) for q in prime_divs):
                return g
        g += 1


class CartanContext(NamedTuple):
    """Immutable bundle: p, k, the ring constant eps, and a generator w of H."""

    p: int
    k: int
    epsilon: int
    w: int
    modulus: int
    n: int

    @classmethod
    def create(cls, p: int, k: int = 1, epsilon: int | None = None) -> "CartanContext":
        validate_pk(p, k)
        if epsilon is None:
            epsilon = choose_epsilon(p)
        elif not is_valid_epsilon(p, epsilon):
            raise ValueError(
                f"epsilon = {epsilon} is not squarefree, = 3 mod 4, and a non-residue mod {p}"
            )
        n = (p - 1) * p ** (k - 1) // 2
        return cls(p=p, k=k, epsilon=epsilon, w=find_generator_H(p, k), modulus=p**k, n=n)

    # -- ring operations ----------------------------------------------------

    def reduce(self, s) -> CartanElement:
        return CartanElement(s[0] % self.modulus, s[1] % self.modulus)

    def neg(self, s) -> CartanElement:
        return CartanElement(-s[0] % self.modulus, -s[1] % self.modulus)

    def conj(self, s) -> CartanElement:
        return CartanElement(s[0] % self.modulus, -s[1] % self.modulus)

    def mul(self, s, t) -> CartanElement:
        m = self.modulus
        return CartanElement(
            (s[0] * t[0] + self.epsilon * s[1] * t[1]) % m,
            (s[0] * t[1] + s[1] * t[0]) % m,
        )

    def power(self, s, e: int) -> CartanElement:
        out = CartanElement(1, 0)
        base = self.reduce(s)
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def norm(self, s) -> int:
        """|s| = s * conj(s) = a1^2 - eps * a2^2 mod p^k."""
        return (s[0] * s[0] - self.epsilon * s[1] * s[1]) % self.modulus

    def trace_half(self, s) -> int:
        """(s + conj(s)) / 2 = a1 mod p^k."""
        return s[0] % self.modulus

    def is_invertible(self, s) -> bool:
        return s[0] % self.p != 0 or s[1] % self.p != 0

    def classes(self) -> Iterator[CartanClass]:
        """All canonical unit classes, (p^2 - 1) p^(2k-2) / 2 of them."""
        m, p = self.modulus, self.p
        half = (m - 1) // 2
        for a2 in range(1, half + 1):
            if a2 % p:
                yield CartanClass(0, a2)
        for a1 in range(1, half + 1):
            if a1 % p:
                for a2 in range(m):
                    yield CartanClass(a1, a2)
            else:
                for a2 in range(m):
                    if a2 % p:
                        yield CartanClass(a1, a2)

    def bucket_size(self) -> int:
        return (self.p + 1) * self.p ** (self.k - 1)


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def h_index_table(ctx: CartanContext) -> dict[int, int]:
    """Residue r (unit mod p^k) -> index i in 1..n with +-w^i = r."""
    table: dict[int, int] = {}
    m = ctx.modulus
    x = 1
    for i in range(1, ctx.n + 1):
        x = x * ctx.w % m
        table[x] = i
        table[m - x] = i
    if len(table) != 2 * ctx.n:
        raise InvariantViolation("w does not enumerate H")
    return table


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def norm_class_partition(ctx: CartanContext) -> dict[int, tuple[CartanClass, ...]]:
    """Partition of all unit classes by the H-class of the norm.

    Key i in 1..n means +-|s| = w^i (i = n is the identity bucket); every
    bucket has exactly (p+1) p^(k-1) classes.
    """
    table = h_index_table(ctx)
    buckets: dict[int, list[CartanClass]] = {i: [] for i in range(1, ctx.n + 1)}
    for cls in ctx.classes():
        buckets[table[ctx.norm(cls)]].append(cls)
    size = ctx.bucket_size()
    for i, bucket in buckets.items():
        if len(bucket) != size:
            raise InvariantViolation(
                f"bucket {i} has {len(bucket)} classes, expected {size}"
            )
    return {i: tuple(b) for i, b in buckets.items()}


def units_of_norm(ctx: CartanContext, target: int) -> Iterator[CartanElement]:
    """Every unit s = a1 + a2 sqrt(eps) of norm exactly ``target``, in the
    order a1 = 0, 1, ..., then a2 = 0, 1, ...; the a2 for each a1 are
    looked up by the value of eps * a2^2."""
    m = ctx.modulus
    by_square: dict[int, list[int]] = {}
    for a2 in range(m):
        by_square.setdefault(ctx.epsilon * a2 * a2 % m, []).append(a2)
    for a1 in range(m):
        for a2 in by_square.get((a1 * a1 - target) % m, ()):
            s = CartanElement(a1, a2)
            if ctx.is_invertible(s):
                yield s


def find_norm_one_generator(ctx: CartanContext) -> CartanElement:
    """A generator of the norm-one subgroup, which is cyclic of order
    (p+1) p^(k-1); its existence is itself the cyclicity check."""
    target = ctx.bucket_size()
    prime_divs = [e.prime for e in factorize(target).entries]
    one = CartanElement(1, 0)
    for s in units_of_norm(ctx, 1):
        if ctx.power(s, target) != one:
            raise InvariantViolation("norm-one element order does not divide group order")
        if all(ctx.power(s, target // q) != one for q in prime_divs):
            return s
    raise InvariantViolation("norm-one subgroup has no generator: not cyclic")


def find_norm_minus_one_element(ctx: CartanContext) -> CartanElement:
    """Some unit of norm exactly -1 (the norm map onto (Z/p^k Z)* is onto)."""
    s = next(units_of_norm(ctx, -1), None)
    if s is None:
        raise InvariantViolation("norm map missed -1; it must be surjective")
    return s
