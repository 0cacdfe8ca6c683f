"""Smith-form kernels over integer data: rows, polynomials and moduli.
The module knows no level: it imports only arith and errors, and
classgroup.structure() makes every level decision (T_0, the index checks,
which rows and moduli go where) and hands it integer data.

  * orbit_blocks(): the orbit pairs (Phi_d, F mod Phi_d) of an integer row F.
  * euclid_mod(): the orbit component (Z/M_d)[x]/(Phi_d, F) from its pair,
    by polynomial Euclid over Z/M_d with dynamic evaluation (Della Dora,
    Dicrescenzo and Duval, EUROCAL 1985).
  * p_part_mod(): the p-part of the unit-divisor lattice, split by the
    characters of the prime-to-p part of the group (the eigenspace method,
    Washington, Introduction to Cyclotomic Fields, GTM 83).
  * lattice_rows() and quotient_mod(): the lattice of pi(theta) in
    Z[C_size] from the rows pi(theta') and d pi(theta), and its invariant
    factors modulo a part of T_S once its shift rows have determinant
    +-T_0.
  * divisibility_chain(): the invariant factors of a diagonal matrix, which
    merges the factors of coprime parts.

Every matrix here is reduced modulo m by snf_mod(), the one Smith-form kernel.
Only classgroup's structure() and generator_matrix() read the module, so
order, table and verify without --structure do not compile it.
"""

from __future__ import annotations

import math
from typing import Sequence

from .arith import fold, part_with_primes_of
from .errors import InvariantViolation


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (coefficients from the
    constant term up) by a monic divisor; both stay integral."""
    rem = list(num)
    deg = len(den) - 1
    quot = [0] * max(len(rem) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + deg]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    return quot, rem[:deg]


def orbit_blocks(f: Sequence[int]) -> dict[int, tuple[list[int], list[int]]]:
    """{d: (Phi_d, F mod Phi_d)} for every d | n = len(f), F = sum_j f_j x^j:
    the pair that fixes the orbit component Z[x]/(Phi_d, F), whose order
    is |N_d| = |Res(Phi_d, F mod Phi_d)|.

    Phi_d comes from x^d - 1 = prod_{e | d} Phi_e by exact division, and
    F mod Phi_d from F mod (x^d - 1), which Phi_d divides."""
    n = len(f)
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        phi = [-1] + [0] * (d - 1) + [1]
        for e, (phi_e, _) in blocks.items():
            if d % e == 0:
                phi, rem = _divmod_monic(phi, phi_e)
                if any(rem):
                    raise InvariantViolation(f"Phi_{e} does not divide x^{d} - 1")
        blocks[d] = phi, _divmod_monic(fold(f, d), phi)[1]
    return blocks


def euclid_mod(phi: Sequence[int], f: Sequence[int], m: int) -> tuple[int, ...]:
    """Invariant factors, deg phi of them with the 1s, of the module
    (Z/m)[x]/(phi, f), phi monic and deg f < deg phi, such as an orbit
    pair (Phi_d, F mod Phi_d) of orbit_blocks().

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
    as an integer whose class generates (Z/p)*/+-1 (the generator of H does).
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


def lattice_rows(t: Sequence[int], d_row: Sequence[int]) -> list[list[int]]:
    """Generators of the lattice of pi(theta) in the degree-zero part of
    Z[C_size], size = len(t), in the basis {w^i - 1 : i = 1..size-1}, from
    t = pi(theta') and d_row = d * pi(theta): the rows (w^j - 1) pi(theta),
    j = 1..size-1, and d * pi(theta).  The shift rows are read off t: w^j - 1
    kills the norm element, by which theta' and theta differ."""
    size = len(t)
    # coefficient i of w^j pi(theta') is t_(i-j); a negative index wraps
    rows = [[t[i - j] - t[i] for i in range(1, size)] for j in range(1, size)]
    return rows + [list(d_row[1:])]


def quotient_mod(rows: Sequence[Sequence[int]], t0: int, modulus: int) -> tuple[int, ...]:
    """Invariant factors, the 1s included, of the lattice_rows() of the C_m
    quotient modulo modulus, once its m - 1 shift rows are checked to have
    determinant +-t0 modulo a 30-bit prime: snf_mod() of the m x (m-1)
    matrix."""
    if _det_mod(rows[:-1], _CHECK_PRIME) not in (t0 % _CHECK_PRIME, -t0 % _CHECK_PRIME):
        raise InvariantViolation("C_m quotient rows do not have determinant +-T_0")
    return snf_mod(rows, modulus)


def divisibility_chain(diag: Sequence[int]) -> tuple[int, ...]:
    """The invariant factors of the diagonal matrix diag, sorted: gcd/lcm
    exchanges (diag(a, b) ~ diag(gcd, lcm)) until each divides the next."""
    diag = list(diag)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            if diag[i] == 1:  # divides everything
                continue
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = math.gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    diag.sort()
    return tuple(diag)


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
