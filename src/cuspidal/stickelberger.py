"""Group-ring layer over H and the Stickelberger elements.

Indexing convention, used everywhere in the package: a ``GroupRingElement``
stores ``coeffs[j]`` = coefficient of w^j for j in Z/nZ, with j = 0 the
identity.  The vector ``a`` of bucket sums is indexed the same way
(``a[j]`` belongs to the norm bucket of w^j), and theta places ``a[j]`` at
w^(-j), i.e. ``theta.coeffs[m] = a[(-m) mod n]``.

The integer row of theta' (theta_prime_row), the unit counts per norm
(norm_counts) and the quadratic sums over every exact-norm fiber
(somme_identities_check) are cyclic convolutions over Z/p^k of the same
root tables (_root_tables), in O(p^k) integer operations and one
arith.cyclic_product each; no unit class is enumerated.  theta_image and
d_theta_row push the row to Z[C_size] for the lattice rows.  The commands
read these; the bucket sums (compute_a) and the group-ring elements theta
and theta' are the row's rational forms, test oracles only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .arith import cyclic_product, fold
from .cartan import CONTEXT_CACHE_SIZE, CartanContext
from .errors import InvariantViolation

if TYPE_CHECKING:  # fractions is imported where the group ring uses it
    from fractions import Fraction


class GroupRingElement:
    """Element of Q[H] for the cyclic group H of order n generated by w."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: CartanContext, coeffs: Sequence[Fraction | int]):
        if len(coeffs) != ctx.n:
            raise ValueError(f"need {ctx.n} coefficients, got {len(coeffs)}")
        from fractions import Fraction

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
        from fractions import Fraction

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
        return sum(self.coeffs, 0)

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


def _root_tables(ctx: CartanContext) -> tuple[list[int], list[int], list[int]]:
    """Over Z/m, m = p^k: S[t] = #{a : a^2 = t}, U[t] = sum of a (m - a)
    over a^2 = t, and C[u] = #{b : -eps b^2 = u}, the factors of the
    convolutions of theta_prime_row and somme_identities_check."""
    m = ctx.modulus
    squares, weights, minus_eps = [0] * m, [0] * m, [0] * m
    for a in range(m):
        t = a * a % m
        squares[t] += 1
        weights[t] += a * (m - a)
        minus_eps[-ctx.epsilon * t % m] += 1
    return squares, weights, minus_eps


def norm_counts(ctx: CartanContext) -> tuple[list[int], list[int], list[int]]:
    """N = S * C, N[r] the number of units of norm r at a unit r, with U
    and C for theta_prime_row's V = U * C; verify reads N alone."""
    squares, weights, minus_eps = _root_tables(ctx)
    return cyclic_product(squares, minus_eps), weights, minus_eps


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def theta_prime_row(ctx: CartanContext) -> tuple[int, ...]:
    """a'_j for j in Z/nZ, the coefficient of w^(-j) in theta': the integer
    first row of the circulant A_theta'.

    With m = p^k and a in [0, m), (m / 2) B2(a / m) = a (a - m) / (2 m) +
    m / 12.  As a (a - m) is the same at a and m - a, the units s and -s of
    a class contribute alike, and a bucket's (p+1) p^(k-1) classes give the
    shift (p+1) p^(2k-1) / 12 that theta' drops.  So

        a'_j = -(V(w^j) + V(-w^j)) / (4 m),

    where V(r) sums a1 (m - a1) over every pair (a1, a2) in (Z/m)^2 with
    a1^2 - eps a2^2 = r.  A pair that is not a unit has a norm that is not
    a unit, so only units reach these r.  Over Z/m, with the cyclic
    convolutions

        N = S * C,   V = U * C,
        S[t] = #{a : a^2 = t},   U[t] = sum of a (m - a) over a^2 = t,
        C[u] = #{b : -eps b^2 = u},

    all nonnegative, each one packed big-integer product, N[r] counts the
    units of norm r; it must be (p+1) p^(k-1) for every unit r.

    The division is exact, m being odd.  4 | V(r): a1 and m - a1 pair off
    in a fiber with equal products a1 (m - a1), each even.  m | V(r) + V(-r):
    a1 (m - a1) = -a1^2 (mod m), and the sum of a1^2 over the units of norm
    r, the fiber identity of somme_identities_check, is (p+1) p^(k-1) r / 2
    (mod m), which cancels between r and -r.  A remainder is still an
    InvariantViolation."""
    m = ctx.modulus
    count, weights, minus_eps = norm_counts(ctx)
    fiber = ctx.bucket_size()
    if any(count[r] != fiber for r in range(m) if r % ctx.p):
        raise InvariantViolation(f"a unit norm fiber does not have {fiber} elements")
    weighted = cyclic_product(weights, minus_eps)
    out = []
    r = 1  # w^j
    for _ in range(ctx.n):
        a, rem = divmod(weighted[r] + weighted[m - r], 4 * m)
        if rem:
            raise InvariantViolation("theta' is not integral")
        out.append(-a)
        r = r * ctx.w % m
    return tuple(out)


def theta_prime_degree(p: int, k: int) -> int:
    """deg theta' = -(p^2-1)/24 * p^(3k-2), the trivial character's value."""
    return -((p * p - 1) // 24) * p ** (3 * k - 2)


def theta_image(ctx: CartanContext, size: int) -> list[int]:
    """pi(theta') in Z[C_size] for size | n, pi taking w to the generator of
    C_size: coefficient i sums those of w^j in theta' over j = i (mod size).
    pi is the identity at size n."""
    a = theta_prime_row(ctx)
    return fold(a[:1] + a[:0:-1], size)  # theta'_j = a'_(-j)


def d_theta_row(ctx: CartanContext, size: int) -> list[int]:
    """d * pi(theta) in Z[C_size], every coefficient (of w^0 too), for
    d = d_value(p); O(n).  theta - theta' is (p+1) p^(2k-1) / 12 on every
    coefficient, so pi adds n / size times that, and d times it is an
    integer."""
    p = ctx.p
    d_shift = (p + 1) // math.gcd(12, p + 1) * p ** (2 * ctx.k - 1) * (ctx.n // size)
    row = [d_value(p) * x + d_shift for x in theta_image(ctx, size)]
    if sum(row):
        raise InvariantViolation("lattice generator does not have degree zero")
    return row


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def compute_a(ctx: CartanContext) -> tuple[Fraction, ...]:
    """Bucket sums a[j] = (p^k / 2) * sum over the w^j norm bucket of
    B2(<a1 / p^k>); exact rationals, and their total is 0.  Each is
    theta_prime_row's a'_j plus the shift (p+1) p^(2k-1) / 12."""
    from fractions import Fraction

    p, k = ctx.p, ctx.k
    shift = Fraction((p + 1) * p ** (2 * k - 1), 12)
    out = tuple(shift + x for x in theta_prime_row(ctx))
    if sum(out) != 0:
        raise InvariantViolation("bucket sums do not cancel: sum a_i != 0")
    return out


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
    from fractions import Fraction

    p, k = ctx.p, ctx.k
    const = Fraction((p + 1) * p ** (2 * k - 1), 12)
    out = GroupRingElement(ctx, tuple(c - const for c in theta(ctx).coeffs))
    expected = theta_prime_degree(p, k)
    if out.degree() != expected:
        raise InvariantViolation(
            f"deg(theta') = {out.degree()}, expected {expected}"
        )
    return out


class StickelbergerData(NamedTuple):
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


def _fiber_square_sums(ctx: CartanContext) -> tuple[list[int], list[int]]:
    """For every residue r, the sums of a1^2 and of a2^2 modulo p^k over
    the pairs (a1, a2) in (Z/p^k)^2 with a1^2 - eps a2^2 = r; at a unit r
    these are the units of norm exactly r.  With S and C of _root_tables,

        sum a1^2 = (t S[t]) * C  at r,
        sum a2^2 = -eps^-1 (S * (u C[u]))  at r,

    as a1^2 = t and -eps a2^2 = u over the pairs counted at t + u = r."""
    m = ctx.modulus
    squares, _, minus_eps = _root_tables(ctx)
    s11 = cyclic_product([t * c for t, c in enumerate(squares)], minus_eps)
    s22 = cyclic_product(squares, [u * c for u, c in enumerate(minus_eps)])
    inv_eps = pow(ctx.epsilon % m, -1, m)
    return [x % m for x in s11], [-inv_eps * x % m for x in s22]


def somme_identities_check(ctx: CartanContext) -> tuple[int, ...]:
    """The unit h in 1..(p^k - 1)/2 whose quadratic fiber identities fail,
    sorted; () when all hold.

    The identities live on the exact-norm fibers: over the classes with
    |s| = h0 precisely,

        sum a1^2      =  h0 (p+1) p^(k-1) / 4        (mod p^k)
        sum a2^2      = -h0 (p+1) p^(k-1) / (4 eps)  (mod p^k)
        sum a1 a2     =  0                           (mod p^k)

    and the H-bucket of {+-h} is the union of the h and -h fibers, so both
    are checked for each h.  The sums over the units of norm h0, which
    _fiber_square_sums gives for every h0 at once, are twice the class sums,
    as s and -s give equal squares; 2 is invertible mod p^k, so they are
    compared with twice the right-hand sides, h0 B / 2 and -h0 B / (2 eps)
    for B = bucket_size().  The sum of a1 a2 is not computed: each fiber is
    closed under a2 -> -a2, so it is 0 mod p^k on every fiber, and only the
    two square sums carry content.
    """
    m = ctx.modulus
    s11, s22 = _fiber_square_sums(ctx)
    half = ctx.bucket_size() * pow(2, -1, m) % m
    inv_eps = pow(ctx.epsilon % m, -1, m)
    return tuple(
        h
        for h in range(1, (m + 1) // 2)
        if h % ctx.p
        and any(
            s11[h0] != h0 * half % m or s22[h0] != -h0 * half * inv_eps % m
            for h0 in (h, m - h)
        )
    )
