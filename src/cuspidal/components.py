"""Smith forms of the structure() components that avoid the whole lattice.

  * euclid_mod(): coker B_d modulo M_d for an orbit block, as
    (Z/M_d)[x]/(Phi_d, F), by polynomial Euclid over Z/M_d with dynamic
    evaluation (Della Dora, Dicrescenzo and Duval, EUROCAL 1985).
  * p_part_mod(): the p-part of the unit-divisor lattice, split by the
    characters of the prime-to-p part of the group (the eigenspace method,
    Washington, Introduction to Cyclotomic Fields, GTM 83).

structure() loads this module when it runs, so the commands that never ask
for the structure do not compile it.
"""

from __future__ import annotations

import math
from typing import Sequence

from .classgroup import _part_with_primes_of, snf_mod


def euclid_mod(phi: Sequence[int], block: Sequence[Sequence[int]], m: int) -> tuple[int, ...]:
    """Invariant factors, the 1s included, of coker(block) modulo m for an
    orbit block: block is the matrix of multiplication by F = block[0] on
    Z[x]/(phi), phi monic, so the module is (Z/m)[x]/(phi, F).

    Polynomial Euclid over Z/m, in O(deg phi ^ 2) ring operations: a unit
    leading coefficient is divided out; a non-unit one splits the modulus
    into coprime parts, the one made of the primes it shares with the
    modulus and the rest, each part going on alone and their chains
    multiplying position by position.  A monic g of degree e with
    remainder 0 leaves (Z/part)^e.  A part with no such split, such as
    l^2 with the leading coefficient divisible by l once, goes to
    snf_mod(block, part)."""
    c = len(block)
    chain = [1] * c
    parts = [(phi, block[0], m)]
    while parts:
        a, b, m = parts.pop()
        a, b = [x % m for x in a], [x % m for x in b]
        while True:
            while b and not b[-1]:
                b.pop()
            if not b or math.gcd(b[-1], m) > 1:
                break
            inv = pow(b[-1], -1, m)
            b = [x * inv % m for x in b]
            deg = len(b) - 1
            for i in range(len(a) - 1 - deg, -1, -1):  # a <- a mod b
                f = a[i + deg]
                if f:
                    a[i : i + deg + 1] = [(x - f * y) % m for x, y in zip(a[i : i + deg + 1], b)]
            a, b = b, a[:deg]
        if not b:
            factors = (1,) * (c + 1 - len(a)) + (m,) * (len(a) - 1)
        elif (m1 := _part_with_primes_of(m, b[-1])) < m:
            parts += [(a, b, m1), (a, b, m // m1)]
            continue
        else:  # every prime of m divides the leading coefficient
            factors = snf_mod(block, m)
        chain = [x * y for x, y in zip(chain, factors)]
    return tuple(chain)


def p_part_mod(v: Sequence[int], p: int, w: int, modulus: int) -> tuple[int, ...]:
    """Invariant factors, the 1s included, of I / Z[C_n] v modulo a power
    of the odd prime p, for an integer v of degree 0 in Z[C_n] (coefficient
    j of w^j), I the augmentation ideal and n = m q with m = (p-1)/2 and q
    a power of p.  In the basis {w^i - 1} of I, they are those of the
    (w^j - 1) v and v.

    Character split: Z_p[C_n] = prod_i Z_p[C_q] by w -> zeta^i y, zeta a
    Teichmuller m-th root of unity, w^(2 p^(s-1)) modulo p^s for w given
    as an integer whose class generates (Z/p)*/+-1 (ctx.w does).
    Component i != 0 is Z_p[C_q]/(v_i), a q x q cyclic matrix; component 0
    takes I to the augmentation ideal of Z_p[C_q], which v_0 lies in: q
    rows y^r v_0 in the basis {y^c - 1}."""
    n = len(v)
    q = 1
    while n % (q * p) == 0:
        q *= p
    zeta = pow(w, 2 * (modulus // p), modulus)
    factors: list[int] = []
    for i in range(n // q):
        z, zj = pow(zeta, i, modulus), 1
        c = [0] * q
        for j, x in enumerate(v):
            c[j % q] += x * zj
            zj = zj * z % modulus
        first = 1 if i == 0 else 0
        factors += snf_mod([[c[col - r] for col in range(first, q)] for r in range(q)], modulus)
    return tuple(sorted(factors))
