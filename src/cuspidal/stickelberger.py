"""Group-ring layer over H and the Stickelberger elements.

Indexing convention, used everywhere in the package: a ``GroupRingElement``
stores ``coeffs[j]`` = coefficient of w^j for j in Z/nZ, with j = 0 the
identity.  The vector ``a`` of bucket sums is indexed the same way
(``a[j]`` belongs to the norm bucket of w^j), and theta places ``a[j]`` at
w^(-j), i.e. ``theta.coeffs[m] = a[(-m) mod n]``.

The bucket sums come from two cyclic convolutions over Z/p^k (compute_a),
in O(p^k) integer operations and one packed big-integer product each; no
unit class is enumerated.  The fiber identities (somme_identities_check)
still read the classes of each norm fiber through cartan.norm_fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .arith import packed_product
from .cartan import CONTEXT_CACHE_SIZE, CartanContext, norm_fiber
from .errors import InvariantViolation


class GroupRingElement:
    """Element of Q[H] for the cyclic group H of order n generated by w."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CartanContext, coeffs: Sequence[Fraction | int]):
        if len(coeffs) != ctx.n:
            raise ValueError(f"need {ctx.n} coefficients, got {len(coeffs)}")
        self.ctx = ctx
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def zero(cls, ctx: CartanContext) -> "GroupRingElement":
        return cls(ctx, (0,) * ctx.n)

    @classmethod
    def basis(cls, ctx: CartanContext, j: int) -> "GroupRingElement":
        coeffs = [0] * ctx.n
        coeffs[j % ctx.n] = 1
        return cls(ctx, coeffs)

    def _same_group(self, other: "GroupRingElement") -> None:
        c, d = self.ctx, other.ctx
        if (c.p, c.k, c.w) != (d.p, d.k, d.w):
            raise ValueError("elements live over different groups")

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._same_group(other)
        return GroupRingElement(
            self.ctx, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._same_group(other)
        return GroupRingElement(
            self.ctx, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "GroupRingElement":
        return GroupRingElement(self.ctx, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, GroupRingElement):
            self._same_group(other)
            n = self.ctx.n
            out = [Fraction(0)] * n
            for i, x in enumerate(self.coeffs):
                if not x:
                    continue
                for j, y in enumerate(other.coeffs):
                    if y:
                        out[(i + j) % n] += x * y
            return GroupRingElement(self.ctx, out)
        return GroupRingElement(self.ctx, tuple(x * Fraction(other) for x in self.coeffs))

    __rmul__ = __mul__

    def shift(self, j: int) -> "GroupRingElement":
        """Multiplication by w^j (cyclic rotation of coefficients)."""
        n = self.ctx.n
        j %= n
        return GroupRingElement(self.ctx, self.coeffs[n - j :] + self.coeffs[: n - j])

    def degree(self) -> Fraction:
        return sum(self.coeffs, Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        c, d = self.ctx, other.ctx
        return (c.p, c.k, c.w) == (d.p, d.k, d.w) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.k, self.ctx.w, self.coeffs))

    def __repr__(self) -> str:
        return f"GroupRingElement(n={self.ctx.n}, coeffs={self.coeffs})"


def d_value(p: int) -> int:
    """d = 12 / gcd(12, p+1): the divisibility constraint on exponent sums."""
    return 12 // math.gcd(12, p + 1)


def e_value(p: int, k: int) -> int:
    """e = p^(3k-2) (p-1) / (2d), the degree gcd in the index computation."""
    e = p ** (3 * k - 2) * math.gcd((p * p - 1) // 24, (p - 1) // 2)
    num = p ** (3 * k - 2) * (p - 1)
    if num % (2 * d_value(p)) or e != num // (2 * d_value(p)):
        raise InvariantViolation("the two expressions for e disagree")
    return e


def _cyclic_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Cyclic convolution of two nonnegative integer vectors of one length:
    one packed product, folded at the length.  Each coefficient before the
    fold is at most max(a) * sum(b), which sets the slot width."""
    width = ((max(a) * sum(b)).bit_length() + 7) // 8
    coef = packed_product(a, b, width)
    n = len(a)
    return [x + y for x, y in zip(coef[:n], coef[n:])]


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def compute_a(ctx: CartanContext) -> tuple[Fraction, ...]:
    """Bucket sums a[j] = (p^k / 2) * sum over the w^j norm bucket of
    B2(<a1 / p^k>); exact rationals, and their total is 0.

    With m = p^k and a in [0, m), 12 m * (m / 2) B2(a / m) = f(a) =
    m^2 - 6 a (m - a).  As f(a) = f(m - a), the units s and -s of a class
    contribute alike, so 24 m a[j] = D(w^j) + D(-w^j), where D(r) sums
    f(a1) over every pair (a1, a2) in (Z/m)^2 with a1^2 - eps a2^2 = r.
    A pair that is not a unit has a norm that is not a unit, so only units
    reach these r.  Over Z/m, D = m^2 N - 6 V with the cyclic convolutions

        N = S * C,   V = U * C,
        S[t] = #{a : a^2 = t},   U[t] = sum of a (m - a) over a^2 = t,
        C[u] = #{b : -eps b^2 = u},

    all nonnegative, each one packed big-integer product.  N[r] counts the
    units of norm r; it must be (p+1) p^(k-1) for every unit r."""
    m = ctx.modulus
    squares, weights, minus_eps = [0] * m, [0] * m, [0] * m
    for a in range(m):
        t = a * a % m
        squares[t] += 1
        weights[t] += a * (m - a)
        minus_eps[-ctx.epsilon * t % m] += 1
    count = _cyclic_product(squares, minus_eps)
    weighted = _cyclic_product(weights, minus_eps)
    fiber = ctx.bucket_size()
    if any(count[r] != fiber for r in range(m) if r % ctx.p):
        raise InvariantViolation(f"a unit norm fiber does not have {fiber} elements")
    out = []
    r = 1  # w^j
    for _ in range(ctx.n):
        total = sum(m * m * count[x] - 6 * weighted[x] for x in (r, m - r))
        out.append(Fraction(total, 24 * m))
        r = r * ctx.w % m
    if sum(out) != 0:
        raise InvariantViolation("bucket sums do not cancel: sum a_i != 0")
    return tuple(out)


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def theta(ctx: CartanContext) -> GroupRingElement:
    """theta = sum_j a_j w^(-j), the divisor of the identity-bucket unit."""
    a = compute_a(ctx)
    n = ctx.n
    return GroupRingElement(ctx, tuple(a[(-i) % n] for i in range(n)))


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def theta_prime(ctx: CartanContext) -> GroupRingElement:
    """theta shifted by the constant (p+1) p^(2k-1) / 12 on every coefficient;
    its degree must be -(p^2-1) p^(3k-2) / 24."""
    p, k = ctx.p, ctx.k
    const = Fraction((p + 1) * p ** (2 * k - 1), 12)
    out = GroupRingElement(ctx, tuple(c - const for c in theta(ctx).coeffs))
    expected = -Fraction((p * p - 1) * p ** (3 * k - 2), 24)
    if out.degree() != expected:
        raise InvariantViolation(
            f"deg(theta') = {out.degree()}, expected {expected}"
        )
    return out


@dataclass(frozen=True)
class StickelbergerData:
    a: tuple[Fraction, ...]
    theta: GroupRingElement
    theta_prime: GroupRingElement
    d: int
    e: int


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def stickelberger_data(ctx: CartanContext) -> StickelbergerData:
    return StickelbergerData(
        a=compute_a(ctx),
        theta=theta(ctx),
        theta_prime=theta_prime(ctx),
        d=d_value(ctx.p),
        e=e_value(ctx.p, ctx.k),
    )


def divisor_of_unit(ctx: CartanContext, exponents: Sequence[int]) -> GroupRingElement:
    """Divisor of the power product with exponent n_h on the bucket unit of
    h = w^j, i.e. (sum_h n_h w^h) * theta, as an integral degree-zero element.

    The exponent sum must be divisible by d, otherwise the product is not a
    modular unit on the plus-curve and there is no divisor to return.
    """
    if len(exponents) != ctx.n:
        raise ValueError(f"need {ctx.n} exponents, got {len(exponents)}")
    d = d_value(ctx.p)
    total = sum(exponents)
    if total % d:
        raise ValueError(
            f"exponent sum {total} is not divisible by d = {d}: "
            "not a modular unit on the plus-curve"
        )
    u = GroupRingElement(ctx, exponents)
    div = u * theta(ctx)
    if not div.is_integral() or div.degree() != 0:
        raise InvariantViolation("unit divisor must be integral of degree zero")
    return div


def kl_unit_check(p: int, k: int, family: Mapping[tuple[int, int], int]) -> bool:
    """Power-product unit criterion at level n = p^k.

    For exponents m_a on classes a = (a1, a2) (integer coordinates of the
    scaled index), all four congruences must hold:
        sum m_a a1^2 = sum m_a a2^2 = sum m_a a1 a2 = 0  (mod p^k)
        sum m_a = 0  (mod 12).
    """
    n = p**k
    s11 = s22 = s12 = sm = 0
    for (a1, a2), mult in family.items():
        s11 += mult * a1 * a1
        s22 += mult * a2 * a2
        s12 += mult * a1 * a2
        sm += mult
    return s11 % n == 0 and s22 % n == 0 and s12 % n == 0 and sm % 12 == 0


def somme_identities_check(ctx: CartanContext, h: int) -> bool:
    """Quadratic bucket sums for the H-class of h.

    The refined identities live on the exact-norm fibers: over the classes
    with |s| = h0 precisely,

        sum a1^2      =  h0 (p+1) p^(k-1) / 4        (mod p^k)
        sum a2^2      = -h0 (p+1) p^(k-1) / (4 eps)  (mod p^k)
        sum a1 a2     =  0                           (mod p^k)

    and the H-bucket of {+-h} is the union of the h and -h fibers (whose
    right-hand sides cancel).  Both fibers are checked here; that is what
    makes the statement independent of which representative of {s, -s} is
    used, since all three quadratic forms are even.
    """
    m = ctx.modulus
    if math.gcd(h, ctx.p) != 1:
        raise ValueError("h must be a unit residue")
    inv4 = pow(4, -1, m)
    inv_eps = pow(ctx.epsilon % m, -1, m)
    base = (ctx.p + 1) * ctx.p ** (ctx.k - 1) % m
    ok = True
    for h0 in (h % m, -h % m):
        fiber = norm_fiber(ctx, h0)
        if len(fiber) != ctx.bucket_size() // 2:
            raise InvariantViolation("norm fiber has the wrong size")
        s11 = sum(c.a1 * c.a1 for c in fiber) % m
        s22 = sum(c.a2 * c.a2 for c in fiber) % m
        s12 = sum(c.a1 * c.a2 for c in fiber) % m
        rhs1 = h0 * base * inv4 % m
        rhs2 = -h0 * base * inv4 * inv_eps % m
        ok = ok and s11 == rhs1 and s22 == rhs2 and s12 == 0
    return ok
