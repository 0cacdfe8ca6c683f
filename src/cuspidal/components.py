"""Smith forms of the structure() components, none of them on the whole
lattice.

  * euclid_mod(): the orbit component (Z/M_d)[x]/(Phi_d, F) from the pair
    (Phi_d, F mod Phi_d), by polynomial Euclid over Z/M_d with dynamic
    evaluation (Della Dora, Dicrescenzo and Duval, EUROCAL 1985).
  * p_part_mod(): the p-part of the unit-divisor lattice, split by the
    characters of the prime-to-p part of the group (the eigenspace method,
    Washington, Introduction to Cyclotomic Fields, GTM 83).
  * quotient_mod(): the parts of the group at the primes of 6n other than
    p, from the lattice pushed forward to Z[C_m], m = (p-1)/2: the same
    split, by the idempotent of the trivial character of C_q.

Each reduces a matrix modulo m by snf_mod(), the one Smith-form kernel.
The module also builds the lattice rows of the C_m quotient and of the
whole lattice (classgroup.generator_matrix) from stickelberger's theta'
rows.  classgroup imports it as a lazy package module, and only
structure() and generator_matrix() read it: order, table and verify
without --structure do not compile it.
"""

from __future__ import annotations

import math
from typing import Sequence

from .arith import part_with_primes_of
from .cartan import CartanContext
from .classgroup import lattice_index
from .errors import InvariantViolation
from .stickelberger import d_theta_row, theta_image


def euclid_mod(phi: Sequence[int], f: Sequence[int], m: int) -> tuple[int, ...]:
    """Invariant factors, deg phi of them with the 1s, of the module
    (Z/m)[x]/(phi, f), phi monic and deg f < deg phi, such as an orbit
    pair (Phi_d, F mod Phi_d) of classgroup.orbit_blocks().

    Polynomial Euclid over Z/m on (a, b) = (phi, f), in O(deg phi ^ 2) ring
    operations: a unit leading coefficient of b is inverted once and scales
    each row of a mod b, whose remainder is reduced modulo m once; a
    non-unit one splits the modulus into coprime parts, the one made of the
    primes it shares with the modulus and the rest, each part going on alone
    and their chains multiplying position by position.  A g of degree e,
    leading coefficient a unit, with remainder 0 leaves (Z/part)^e.  A part
    with no such split, such as l^2 with the leading coefficient divisible
    by l once, goes to snf_mod() as multiplication by b on
    (Z/part)[x]/(a), a made monic, padded with 1s."""
    c = len(phi) - 1
    chain = [1] * c
    parts = [(phi, f, m)]
    while parts:
        a, b, m = parts.pop()
        a, b = [x % m for x in a], [x % m for x in b]
        while True:
            while b and not b[-1]:
                b.pop()
            if not b or math.gcd(b[-1], m) > 1:
                break
            inv = pow(b[-1], -1, m)
            deg = len(b) - 1
            for i in range(len(a) - 1 - deg, -1, -1):  # a <- a mod b, reduced once
                t = a[i + deg] * inv % m
                if t:
                    a[i : i + deg + 1] = [x - t * y for x, y in zip(a[i : i + deg + 1], b)]
            a, b = b, [x % m for x in a[:deg]]
        if not b:
            factors = (1,) * (c + 1 - len(a)) + (m,) * (len(a) - 1)
        elif (m1 := part_with_primes_of(m, b[-1])) < m:
            parts += [(a, b, m1), (a, b, m // m1)]
            continue
        else:  # every prime of m divides the leading coefficient
            inv = pow(a[-1], -1, m)  # r <- x * r mod a needs a monic
            a = [x * inv % m for x in a]
            rows, r = [], b + [0] * (len(a) - 1 - len(b))
            for _ in range(len(r)):
                rows.append(r)
                top = r[-1]  # r <- x * r mod a
                r = [(lo - top * y) % m for lo, y in zip([0] + r[:-1], a)]
            factors = (1,) * (c - len(rows)) + snf_mod(rows, m)
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


def lattice_rows(ctx: CartanContext, size: int) -> list[list[int]]:
    """Generators of the lattice of pi(theta) in the degree-zero part of
    Z[C_size], size | n, in the basis {w^i - 1 : i = 1..size-1}: the rows
    (w^j - 1) pi(theta), j = 1..size-1, and d * pi(theta).  At size n this
    is the unit-divisor lattice (classgroup.generator_matrix); at size m,
    the C_m quotient of quotient_mod().  The shift rows are read off
    pi(theta'): w^j - 1 kills the norm element, by which theta' and theta
    differ."""
    t = theta_image(ctx, size)
    # coefficient i of w^j pi(theta') is t_(i-j); a negative index wraps
    rows = [[t[i - j] - t[i] for i in range(1, size)] for j in range(1, size)]
    return rows + [d_theta_row(ctx, size)[1:]]


def quotient_mod(ctx: CartanContext, index: int, modulus: int) -> tuple[int, ...]:
    """Invariant factors, the 1s included and n - 1 entries, of the parts
    of I/L at the primes of modulus, for modulus prime to p and dividing
    T = index = [I : theta I], from the C_m quotient.

    Let n = m q, q = p^(k-1), C_q the subgroup of order q and pi the map
    onto Z[C_m].  For a prime l != p, e_0 = (1/q) sum_{y in C_q} y is an
    l-integral idempotent and L a Z[H]-module, so (I/L)_l is the sum of
    e_0 (I/L)_l, the group of the lattice of pi(theta) in Z[C_m], and
    (1 - e_0)(I/L)_l, whose order divides T/T_0 for T_0 = lattice_index(ctx,
    m).  The m - 1 shift rows of the quotient must have determinant +-T_0
    modulo the check prime, T_0 must divide T, and gcd(T/T_0, modulus) must
    be 1; then the factors are snf_mod() of the m x (m-1) quotient matrix."""
    m = (ctx.p - 1) // 2
    t0 = lattice_index(ctx, m)
    rows = lattice_rows(ctx, m)
    if _det_mod(rows[:-1], _CHECK_PRIME) not in (t0 % _CHECK_PRIME, -t0 % _CHECK_PRIME):
        raise InvariantViolation("C_m quotient rows do not have determinant +-T_0")
    cofactor, rem = divmod(index, t0)
    if rem:
        raise InvariantViolation("T_0 does not divide T = [I : theta I]")
    if math.gcd(cofactor, modulus) > 1:
        raise InvariantViolation(
            "gcd(T/T_0, rest of T_S) > 1: the characters nontrivial on C_q "
            "reach a prime of 6n other than p"
        )
    return (1,) * (ctx.n - m) + snf_mod(rows, modulus)


# ---------------------------------------------------------------------------
# Smith form modulo m

_CHECK_PRIME = 1073741789  # largest prime below 2^30


def _det_mod(rows: Sequence[Sequence[int]], q: int) -> int:
    """Determinant of a square integer matrix modulo the prime q."""
    a = [[x % q for x in row] for row in rows]
    det = 1
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        prow = a[c]
        det = det * prow[c] % q
        inv = pow(prow[c], -1, q)
        tail = prow[c + 1 :]
        for row in a[c + 1 :]:
            f = row[c] * inv % q
            if f:
                row[c + 1 :] = [(x - f * y) % q for x, y in zip(row[c + 1 :], tail)]
    return det % q


def _pivot_out_units(rows: list[list[int]], mod: int) -> int:
    """Pivot on entries that are units mod ``mod`` until none is left.

    Each pivot clears its column from the other rows (row operations mod
    ``mod``), then its row and column go: it is an invariant factor 1 of
    the quotient module.  The pivot column is swapped to the end of every
    row and popped, so the rows are updated in place and their columns
    reordered alike.  Zero rows are dropped.  Returns the pivot count."""
    pivots = 0
    while True:
        rows[:] = [row for row in rows if any(row)]
        hit = next(
            (
                (i, j)
                for i, row in enumerate(rows)
                for j, x in enumerate(row)
                if math.gcd(x, mod) == 1
            ),
            None,
        )
        if hit is None:
            return pivots
        i, j = hit
        prow = rows[i]
        rows[i] = rows[-1]
        rows.pop()
        inv = pow(prow[j], -1, mod)
        prow[j] = prow[-1]
        prow.pop()
        prow[:] = [y * inv % mod for y in prow]
        for row in rows:
            f = row[j]
            row[j] = row[-1]
            row.pop()
            if f:
                row[:] = [(x - f * y) % mod for x, y in zip(row, prow)]
        pivots += 1


def snf_mod(matrix: Sequence[Sequence[int]], modulus: int) -> tuple[int, ...]:
    """Invariant factors d1 | ... | dc of Z^c modulo the rows of an integer
    matrix with c columns and modulus * Z^c, the 1s included.  When the row
    span contains modulus * Z^c, they are the row span's own; otherwise they
    are its parts at the primes of the modulus, cut at the modulus.

    Elimination over Z/m, every entry below m, with no factorization of m
    (dynamic evaluation): units mod m are pivoted out.  If the entries left
    share a factor g > 1 with m, each remaining factor gains g, the block
    is divided by g in place, and m drops to m/g.  Otherwise an entry whose
    gcd with m misses a prime of m splits m into coprime parts m1 m2; the
    quotient is the sum of its reductions mod m1 and mod m2, whose factors
    multiply position by position."""
    ncols = len(matrix[0])
    block = [[x % modulus for x in row] for row in matrix]
    factors: list[int] = []
    scale, m = 1, modulus
    while True:
        factors += [scale] * _pivot_out_units(block, m)
        if not block:  # the columns no row reaches take the full modulus
            return tuple(factors + [scale * m] * (ncols - len(factors)))
        g = m
        for row in block:
            g = math.gcd(g, *row)
        if g == 1:
            break
        scale *= g
        m //= g
        for row in block:
            row[:] = [x // g for x in row]
    # no unit and no common factor: some entry misses a prime of m
    m1 = next(d for row in block for x in row if (d := part_with_primes_of(m, x)) < m)
    chains = zip(snf_mod(block, m1), snf_mod(block, m // m1))
    return tuple(factors + [scale * a * b for a, b in chains])
