"""Order and structure of the cuspidal class group.

Two independent exact routes plus a floating cross-check:

  * order(): |det A| of the circulant matrix built from theta', divided by
    (p^2-1)/24 * p^(k-1) * e.  The determinant comes from its orbit
    factorization: with F(x) = sum_j 12 p^k a'_j x^j,

        det(12 p^k A) = prod_{d | n} N_d,    N_d = Res(Phi_d, F),

    one factor per orbit of characters of H of exact order d.  N_d is the
    product of F(zeta) over the primitive d-th roots of unity zeta, taken
    modulo proven primes l = 1 (mod 2n), where one Bluestein transform
    evaluates F at every n-th root of unity, and recovered by CRT past a
    Parseval bound on |N_d|.
  * structure(): Smith normal form of the lattice L of unit divisors inside
    the degree-zero part I of the group ring; the invariant factors describe
    the full abelian group, and their product must equal order().  L holds
    theta I, of index T = |prod_{d > 1} N_d| / (12 p^k)^(n-1) in I.  The
    parts at the primes S dividing 6pn come from the whole lattice modulo
    T_S, the part of T made of S (over Z/p^s for the p-parts, modulo the
    rest of T_S for the others); for a prime outside S the group ring
    splits into the fields Z[x]/Phi_d, so the rest comes from the
    phi(d) x phi(d) orbit blocks of the scaled theta' row (orbit_blocks),
    each modulo M_d, the part of N_d prime to S.  Every elimination pivots
    on units and keeps each entry below its modulus; snf() is the kernel
    for the small block left over, and the dense test oracle.
  * bernoulli_formula_k1(): for k = 1, the same order through an explicit
    determinant over F_{p^2} powers of an independent generator.
  * float_crosscheck(): eigenvalues of the circulant are finite Fourier
    sums of the first row; per orbit, their log-magnitudes must add up to
    log|N_d|.

Every row here is an integer row scaled by 12 p^k (12 p for the Bernoulli
route), from the bucket sums through the determinant to the lattice; the
scale is divided back out exactly, and a remainder is an InvariantViolation.

The circulant convention is pinned by the p = 5 worked fixture: the scaled
first row is (-180, -120) = 60 (-3, -2), with determinant 60^2 * 5, so
det A = 5 and the order is 1.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

from ._version import __version__
from .arith import (
    DEFAULT_RHO_BUDGET,
    Factorization,
    Primality,
    factorize,
    is_prime,
    packed_product,
)
from .cartan import (
    CONTEXT_CACHE_SIZE,
    CartanContext,
    CartanElement,
    cusp_count_plus,
    genus_plus,
)
from .errors import InvariantViolation
from .stickelberger import compute_a, d_value, stickelberger_data

_SCALE_NUM = 12  # denominators of theta' coefficients divide 12 p^k
FLOAT_TOL = 1e-9  # relative tolerance of float_crosscheck
_PRIME_TOP = 1 << 62  # CRT primes are the proven primes = 1 (mod 2n) below it


def _norm_bound(f: Sequence[int], d: int, phi: int) -> int:
    """B with |N_d| <= B: with G = F mod (x^d - 1), AM-GM over the primitive
    d-th roots and Parseval over all d-th roots give
    |N_d|^2 <= (d ||G||_2^2 / phi(d))^phi(d)."""
    folded = [0] * d
    for j, c in enumerate(f):
        folded[j % d] += c
    num = (d * sum(c * c for c in folded)) ** phi
    den = phi**phi
    return math.isqrt(-(-num // den))


def _prime_divisors(m: int) -> list[int]:
    """The primes dividing m >= 1, by trial division (m is at most 2n here)."""
    qs, q = [], 2
    while q * q <= m:
        if m % q == 0:
            qs.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return qs + [m] * (m > 1)


def _crt_primes(n: int):
    """(l, h) for the proven primes l = 1 (mod 2n) below 2^62, walking down
    from the top; h has exact order 2n mod l."""
    step = 2 * n
    qs = _prime_divisors(step)
    for ell in range((_PRIME_TOP - 2) // step * step + 1, step, -step):
        if is_prime(ell) is not Primality.PROVEN:
            continue
        for c in range(2, ell):
            h = pow(c, (ell - 1) // step, ell)
            if all(pow(h, step // q, ell) != 1 for q in qs):
                yield ell, h
                break
    raise InvariantViolation(f"too few primes = 1 (mod {step}) below 2^62")


def _values_mod(f: Sequence[int], ell: int, h: int) -> list[int]:
    """F(g^i) mod l for i in Z/nZ, g = h^2 of order n, by Bluestein's chirp:
    g^(ij) = h^(i^2) h^(j^2) h^(-(i-j)^2), so the values come from one
    convolution of (f_j h^(j^2)) with (h^(-m^2)).  As h^(-(m+n)^2) =
    (-1)^n h^(-m^2), it is cyclic (n even) or negacyclic (n odd) of length
    n: one big-integer product of packed residues, folded at n."""
    n = len(f)
    step = 2 * n
    hp = [1] * step  # h^e for e in Z/2nZ
    for e in range(1, step):
        hp[e] = hp[e - 1] * h % ell
    w = (2 * ell.bit_length() + n.bit_length() + 7) // 8  # bytes per slot
    coef = packed_product(
        [c * hp[j * j % step] % ell for j, c in enumerate(f)],
        [hp[-j * j % step] for j in range(n)],
        w,
    )
    sign = -1 if n % 2 else 1
    return [(coef[i] + sign * coef[i + n]) * hp[i * i % step] % ell for i in range(n)]


def orbit_norms(f: Sequence[int]) -> dict[int, int]:
    """{d: N_d} for every d | n, where N_d = Res(Phi_d, F) and F(x) is the
    integer first row sum_j f_j x^j; their product is the determinant of the
    circulant with entry (i, j) = f[(j - i) mod n].

    N_d is the product of F(zeta) over the primitive d-th roots of unity
    zeta.  It is computed by CRT over primes l = 1 (mod 2n), where every
    such zeta is a power g^i with n / gcd(i, n) = d, until the primes'
    product exceeds twice the largest bound of _norm_bound; N_d is then the
    symmetric residue."""
    n = len(f)
    orbit = [n // math.gcd(i, n) for i in range(n)]
    phis = dict.fromkeys(orbit, 0)
    for d in orbit:
        phis[d] += 1
    bounds = {d: _norm_bound(f, d, phi) for d, phi in phis.items()}
    need = 2 * max(bounds.values())
    res = dict.fromkeys(phis, 0)
    modulus = 1
    for ell, h in _crt_primes(n):
        local = dict.fromkeys(phis, 1)
        for d, v in zip(orbit, _values_mod(f, ell, h)):
            local[d] = local[d] * v % ell
        inv = pow(modulus, -1, ell)
        for d, x in res.items():
            res[d] = x + modulus * ((local[d] - x) * inv % ell)
        modulus *= ell
        if modulus > need:
            break
    norms = {}
    for d in sorted(res):
        x = res[d]
        norms[d] = x - modulus if 2 * x > modulus else x
        if abs(norms[d]) > bounds[d]:
            raise InvariantViolation(f"N_{d} exceeds its bound")
    return norms


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


def orbit_blocks(f: Sequence[int]) -> dict[int, list[list[int]]]:
    """{d: B_d} for every d | n = len(f), where B_d is the phi(d) x phi(d)
    integer matrix of multiplication by F = sum_j f_j x^j on Z[x]/Phi_d:
    row i holds the coefficients of x^i F mod Phi_d.  det B_d = N_d, and
    coker B_d = Z[x]/(Phi_d, F).

    Phi_d comes from x^d - 1 = prod_{e | d} Phi_e by exact division, and
    F mod Phi_d from F mod (x^d - 1), which Phi_d divides."""
    n = len(f)
    phis: dict[int, list[int]] = {}
    blocks = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        phi = [-1] + [0] * (d - 1) + [1]
        for e, phi_e in phis.items():
            if d % e == 0:
                phi, rem = _divmod_monic(phi, phi_e)
                if any(rem):
                    raise InvariantViolation(f"Phi_{e} does not divide x^{d} - 1")
        phis[d] = phi
        folded = [0] * d
        for j, c in enumerate(f):
            folded[j % d] += c
        _, r = _divmod_monic(folded, phi)
        rows = []
        for _ in range(len(phi) - 1):
            rows.append(r)
            top = r[-1]  # r <- x * r mod Phi_d
            r = [lo - top * c for lo, c in zip([0] + r[:-1], phi)]
        blocks[d] = rows
    return blocks


def _scaled_a(ctx: CartanContext) -> list[int]:
    """12 p^k a_j for j in Z/nZ; compute_a divides integer totals by 12 p^k,
    so every denominator divides the scale."""
    scale = _SCALE_NUM * ctx.modulus
    return [x.numerator * (scale // x.denominator) for x in compute_a(ctx)]


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def circulant_theta_prime(ctx: CartanContext) -> tuple[int, ...]:
    """First row of 12 p^k A_theta': F_j = 12 p^k a'_j, where a'_j is the
    coefficient of w^(-j) in theta' (identity at j = 0), i.e.
    F_j = 12 p^k a_j - (p+1) p^(3k-1)."""
    shift = (ctx.p + 1) * ctx.p ** (3 * ctx.k - 1)
    return tuple(x - shift for x in _scaled_a(ctx))


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def theta_prime_norms(ctx: CartanContext) -> MappingProxyType:
    """Read-only {d: N_d} of 12 p^k A_theta', computed once per context for
    order(), lattice_index() and float_crosscheck()."""
    return MappingProxyType(orbit_norms(circulant_theta_prime(ctx)))


def order(ctx: CartanContext) -> int:
    """|det A_theta'| / ((p^2-1)/24 * p^(k-1) * e), checked to divide exactly."""
    data = stickelberger_data(ctx)
    p, k = ctx.p, ctx.k
    scale = _SCALE_NUM * ctx.modulus
    norms = theta_prime_norms(ctx)
    # N_1 = F(1) is the degree of the scaled row, so this ties the row to theta'
    if norms[1] != scale * data.theta_prime.degree():
        raise InvariantViolation("circulant row does not have the degree of theta'")
    scaled = math.prod(norms.values())
    if scaled == 0:
        raise InvariantViolation("A_theta' is singular")
    det, rem = divmod(abs(scaled), scale ** ctx.n)
    if rem:
        raise InvariantViolation("det A_theta' is not an integer")
    denom = (p * p - 1) // 24 * p ** (k - 1) * data.e
    if det % denom:
        raise InvariantViolation(
            f"|det| = {det} is not divisible by {denom} (indexing bug?)"
        )
    return det // denom


# ---------------------------------------------------------------------------
# Smith normal form

def snf(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (the nonzero Smith diagonal) of an
    arbitrary rectangular integer matrix.

    Pivots are chosen of minimal nonzero magnitude, which keeps coefficient
    growth in check; the divisibility chain is enforced afterwards through
    gcd/lcm exchanges on the diagonal (diag(a, b) ~ diag(gcd, lcm))."""
    a = [list(map(int, row)) for row in matrix]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = a[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        pivot = a[t][t]
        if any(a[i][t] for i in range(t + 1, nr)):
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            continue  # remainders may be smaller than the pivot: re-pick
        if any(a[t][j] for j in range(t + 1, nc)):
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
            continue
        t += 1

    return _divisibility_chain([abs(a[i][i]) for i in range(min(nr, nc)) if a[i][i]])


def _divisibility_chain(diag: Sequence[int]) -> tuple[int, ...]:
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


def generator_matrix(ctx: CartanContext) -> list[list[int]]:
    """Integer generators of the unit-divisor lattice inside the degree-zero
    part, in the basis {w^i - 1 : i = 1..n-1}.

    Rows are (w^j - 1) theta for j = 1..n-1 plus d * theta; an element of
    degree zero with coefficients c has coordinates (c_1, ..., c_{n-1}).
    Each row is built from the integer vector 12 p^k theta and divided back
    exactly."""
    scale = _SCALE_NUM * ctx.modulus
    n = ctx.n
    a = _scaled_a(ctx)
    t = [a[-i % n] for i in range(n)]  # 12 p^k theta, coefficient of w^i
    if sum(t):
        raise InvariantViolation("lattice generator does not have degree zero")

    def exact(x: int) -> int:
        q, r = divmod(x, scale)
        if r:
            raise InvariantViolation("lattice generator is not integral")
        return q

    # coefficient i of w^j theta is theta_(i-j); a negative index wraps mod n
    rows = [[exact(t[i - j] - t[i]) for i in range(1, n)] for j in range(1, n)]
    d = d_value(ctx.p)
    rows.append([exact(d * t[i]) for i in range(1, n)])
    return rows


def lattice_index(ctx: CartanContext) -> int:
    """T = [I : theta I], I the augmentation ideal: the index of the span of
    the rows (w^j - 1) theta, j = 1..n-1, in the degree-zero part.

    It is |prod_{d > 1} N_d| / (12 p^k)^(n-1) over the theta' orbit norms;
    theta' and theta differ by a multiple of the norm element, which only
    the trivial character (d = 1) sees.  T = 0 means the lattice does not
    have full rank."""
    scaled = math.prod(v for d, v in theta_prime_norms(ctx).items() if d > 1)
    index, rem = divmod(abs(scaled), (_SCALE_NUM * ctx.modulus) ** (ctx.n - 1))
    if rem:
        raise InvariantViolation("[I : theta I] is not an integer")
    if index == 0:
        raise InvariantViolation("unit-divisor lattice does not have full rank")
    return index


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


def _pivot_out_units(rows: list[list[int]], mod: int, is_unit) -> int:
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
            ((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if is_unit(x)),
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


def _p_exponents_mod(rows: Sequence[Sequence[int]], p: int, s: int, ncols: int) -> list[int]:
    """min(v, s) for the exponents v with p^v the invariant factors of
    Z^ncols modulo the rows, by elimination over Z/p^s with unit pivots.

    When no unit is left, every entry is divisible by p: the remaining
    factors each gain one p and the modulus drops to p^(s - shift).  A
    column no row reaches any more has the full exponent s."""
    mod = p**s
    block = [[x % mod for x in row] for row in rows]
    exps: list[int] = []
    shift = 0
    while True:
        exps += [shift] * _pivot_out_units(block, mod, lambda x: x % p)
        if not block:
            return exps + [s] * (ncols - len(exps))
        shift += 1
        mod //= p
        for row in block:
            row[:] = [x // p for x in row]


def _p_exponents(rows: Sequence[Sequence[int]], p: int, e: int, ncols: int) -> list[int]:
    """The p-adic exponents of the invariant factors, given that p^e Z^ncols
    lies in the row span.

    They are taken modulo p^s for s = 2, 4, 8, ... up to e: once every
    exponent found is below s, none was cut off by the modulus.  The
    exponents stay far below e (at most 4 at every tested level, where e
    reaches 79), so the entries stay small."""
    s = min(2, e)
    while True:
        exps = _p_exponents_mod(rows, p, s, ncols)
        if s == e or max(exps, default=0) < s:
            return exps
        s = min(2 * s, e)


def _coprime_factors(rows: Sequence[Sequence[int]], m: int, ncols: int) -> list[int]:
    """Invariant factors of Z^ncols modulo the rows and m Z^ncols: units
    mod m are pivoted out, and the small block left over, with m I
    appended, goes to snf()."""
    if m == 1:
        return [1] * ncols
    block = [[x % m for x in row] for row in rows]
    ones = _pivot_out_units(block, m, lambda x: math.gcd(x, m) == 1)
    c = ncols - ones
    block += [[m if i == j else 0 for j in range(c)] for i in range(c)]
    return [1] * ones + list(snf(block))


def snf_mod(matrix: Sequence[Sequence[int]], modulus: int, p: int) -> tuple[int, ...]:
    """Invariant factors d1 | ... | dc of Z^c modulo the rows of an integer
    matrix with c columns and modulus * Z^c, the 1s included; p is a prime
    to split off the modulus.  When the row span contains modulus * Z^c,
    they are the row span's own; otherwise they are its parts at the primes
    of the modulus, cut at the modulus.

    With modulus = p^e M and p not dividing M, the p-parts come from
    elimination over Z/p^s, s <= e, and the rest from elimination mod M,
    every entry below its modulus."""
    ncols = len(matrix[0])
    e, m = 0, modulus
    while m % p == 0:
        m //= p
        e += 1
    exps = _p_exponents(matrix, p, e, ncols)
    rest = _coprime_factors(matrix, m, ncols)
    return tuple(p**v * r for v, r in zip(sorted(exps), sorted(rest)))


def _prime_to(x: int, primes: Sequence[int]) -> int:
    """x with every factor from the given primes divided out."""
    for q in primes:
        while x % q == 0:
            x //= q
    return x


def structure(ctx: CartanContext) -> tuple[int, ...]:
    """Invariant factors (> 1) of the cuspidal class group, via the Smith
    form of the unit-divisor lattice L; the product equals order().

    The n-1 rows (w^j - 1) theta have determinant +-T = [I : theta I], so
    T Z^(n-1) lies in L.  The determinant is checked modulo a 30-bit prime
    first, which ties the rows to the orbit norms that T is taken from.
    With S the primes dividing 6pn, T = T_S T' where T_S is made of S:

      * the S-parts are those of L + T_S Z^(n-1), from snf_mod() on the
        joint lattice;
      * for a prime l outside S, Z_l[H] = prod_{d | n} Z_l[x]/Phi_d; 12 p^k
        and d_value(p) are l-units, theta has degree 0, and theta' - theta
        is a multiple of the norm element, which is 0 in every factor with
        d > 1.  So the l-part of the group is that of the sum over d > 1 of
        coker B_d, the orbit blocks of the scaled theta' row, each taken
        modulo M_d, the part of N_d prime to S.

    Each block must have determinant N_d modulo the check prime and factors
    whose product is M_d, and the M_d must multiply to T'.  The block
    factors are merged into one chain and multiplied into the S-parts
    position by position, the two being coprime."""
    rows = generator_matrix(ctx)
    index = lattice_index(ctx)
    det = _det_mod(rows[:-1], _CHECK_PRIME)
    if det not in (index % _CHECK_PRIME, -index % _CHECK_PRIME):
        raise InvariantViolation("lattice rows do not have determinant +-[I : theta I]")
    primes = sorted({2, 3, ctx.p, *_prime_divisors(ctx.n)})
    index_prime_to_s = _prime_to(index, primes)
    joint = snf_mod(rows, index // index_prime_to_s, ctx.p)

    norms = theta_prime_norms(ctx)
    pieces: list[int] = []
    m_product = 1
    for d, block in orbit_blocks(circulant_theta_prime(ctx)).items():
        if d == 1:
            continue
        if _det_mod(block, _CHECK_PRIME) != norms[d] % _CHECK_PRIME:
            raise InvariantViolation(f"orbit block {d} does not have determinant N_{d}")
        m = _prime_to(abs(norms[d]), primes)
        factors = _coprime_factors(block, m, len(block))
        if math.prod(factors) != m:
            raise InvariantViolation(f"orbit block {d} factors do not multiply to M_{d}")
        pieces += factors
        m_product *= m
    if m_product != index_prime_to_s:
        raise InvariantViolation("the M_d do not multiply to the part of T prime to 6pn")
    chain = _divisibility_chain(pieces)  # n - 1 entries, like joint
    return tuple(f for f in (a * b for a, b in zip(joint, chain)) if f != 1)


# ---------------------------------------------------------------------------
# cross-checks

def circulant_eigenvalues(ctx: CartanContext) -> list[complex]:
    """lambda_m = sum_j a'_j exp(2 pi i j m / n), m = 1..n (m = n trivial);
    the n roots of unity are built once and indexed by j m mod n."""
    scale = _SCALE_NUM * ctx.modulus
    row = [x / scale for x in circulant_theta_prime(ctx)]
    n = len(row)
    roots = [cmath.exp(2j * math.pi * t / n) for t in range(n)]
    return [sum(x * roots[j * m % n] for j, x in enumerate(row)) for m in range(1, n + 1)]


def float_crosscheck(ctx: CartanContext) -> bool:
    """Per orbit d | n, the sum of log|lambda_m| over the m with
    n / gcd(m, n) = d vs. log|N_d / (12 p^k)^phi(d)|, and the
    trivial-character eigenvalue vs. deg(theta'), all to relative FLOAT_TOL.

    Log magnitudes are compared instead of raw products because the
    determinants overflow doubles by many orders of magnitude."""
    scale = _SCALE_NUM * ctx.modulus
    norms = theta_prime_norms(ctx)
    if not all(norms.values()):
        return False
    eigs = circulant_eigenvalues(ctx)
    n = len(eigs)
    log_sums = dict.fromkeys(norms, 0.0)
    sizes = dict.fromkeys(norms, 0)
    for m, v in enumerate(eigs, 1):
        d = n // math.gcd(m, n)
        log_sums[d] += math.log(abs(v))
        sizes[d] += 1

    def close(x, want: float) -> bool:
        return abs(x - want) <= FLOAT_TOL * max(1.0, abs(want))

    log_scale = math.log(scale)
    ok_orbits = all(
        close(log_sums[d], math.log(abs(norm)) - sizes[d] * log_scale)
        for d, norm in norms.items()
    )
    deg = float(stickelberger_data(ctx).theta_prime.degree())
    return ok_orbits and close(eigs[-1], deg)


def bernoulli_formula_k1(p: int) -> int:
    """Order at prime level through the explicit (p-1)/2 determinant over
    powers of a generator v of F_{p^2}*.

    Entry (i, j) is P_(i-j) with P_r = (p/2) (sum_{l=0}^{p} B2(x_l / p)
    - (p+1)/6) and x_l = tr(v^(r+l(p-1)/2))/2 mod p; the value is
    576 |det P| / ((p-1)^2 p (p+1) gcd(12, p+1)).  The p+1 constant terms
    1/6 of B2 cancel the shift, so 12 p P_r = 6 sum_l x_l (x_l - p) is an
    integer row."""
    ctx = CartanContext.create(p, 1)
    m = (p * p - 1) // 2  # largest exponent needed below is r+p(p-1)/2 < m
    v = _field_generator(ctx)
    powers = [CartanElement(1, 0)]
    for _ in range(m):
        powers.append(ctx.mul(powers[-1], v))

    half = (p - 1) // 2
    row = []
    for r in range(half):
        xs = [powers[r + l * half].a1 % p for l in range(p + 1)]
        row.append(6 * sum(x * (x - p) for x in xs))

    scaled = math.prod(orbit_norms(row).values())
    det, rem = divmod(abs(scaled), (_SCALE_NUM * p) ** half)
    if rem:
        raise InvariantViolation("Bernoulli determinant is not an integer")
    num = 576 * det
    den = (p - 1) ** 2 * p * (p + 1) * math.gcd(12, p + 1)
    if num % den:
        raise InvariantViolation("Bernoulli formula does not divide exactly")
    return num // den


def _field_generator(ctx: CartanContext) -> CartanElement:
    """Generator of F_{p^2}* = (Z/pZ)[sqrt(eps)]*; requires k = 1."""
    if ctx.k != 1:
        raise ValueError("field generator search needs k = 1")
    group_order = ctx.p * ctx.p - 1
    prime_divs = [e.prime for e in factorize(group_order).entries]
    one = CartanElement(1, 0)
    for a2 in range(1, ctx.p):
        for a1 in range(ctx.p):
            v = CartanElement(a1, a2)
            if all(ctx.power(v, group_order // q) != one for q in prime_divs):
                return v
    raise InvariantViolation("F_{p^2}* has no generator: impossible")


# ---------------------------------------------------------------------------
# bundled result

@dataclass
class ClassGroupResult:
    """One full computation: order, factorization, structure, provenance."""

    p: int
    k: int
    order: int
    cusps: int
    epsilon: int
    generator: int
    genus: int | None = None
    factorization: Factorization | None = None
    invariant_factors: tuple[int, ...] | None = None
    timings_ms: dict[str, float] = field(default_factory=dict)
    tool_version: str = __version__

    def factored_str(self) -> str:
        if self.factorization is None:
            return str(self.order)
        return str(self.factorization)

    def to_json_dict(self) -> dict:
        """JSON-safe form; big integers go out as decimal strings."""
        fz = self.factorization
        return {
            "p": self.p,
            "k": self.k,
            "order": str(self.order),
            "cusps": self.cusps,
            "epsilon": self.epsilon,
            "generator": self.generator,
            "genus": self.genus,
            "factorization": None
            if fz is None
            else [[str(e.prime), e.exponent, e.certainty.value] for e in fz.entries],
            "factor_steps_used": None if fz is None else fz.steps_used,
            "factor_budget_exhausted": None if fz is None else fz.budget_exhausted,
            "invariant_factors": None
            if self.invariant_factors is None
            else [str(d) for d in self.invariant_factors],
            "timings_ms": dict(self.timings_ms),
            "tool_version": self.tool_version,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClassGroupResult":
        from .arith import FactorEntry, Primality

        fz = data.get("factorization")
        factorization = (
            None
            if fz is None
            else Factorization(
                tuple(FactorEntry(int(p), int(e), Primality(c)) for p, e, c in fz),
                steps_used=int(data.get("factor_steps_used") or 0),
                budget_exhausted=bool(data.get("factor_budget_exhausted")),
            )
        )
        inv = data.get("invariant_factors")
        return cls(
            p=int(data["p"]),
            k=int(data["k"]),
            order=int(data["order"]),
            cusps=int(data["cusps"]),
            epsilon=int(data["epsilon"]),
            generator=int(data["generator"]),
            genus=None if data.get("genus") is None else int(data["genus"]),
            factorization=factorization,
            invariant_factors=None if inv is None else tuple(int(d) for d in inv),
            timings_ms={k: float(v) for k, v in data.get("timings_ms", {}).items()},
            tool_version=data.get("tool_version", __version__),
        )


def compute_class_group(
    p: int,
    k: int = 1,
    *,
    factor: bool = True,
    with_structure: bool = False,
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> ClassGroupResult:
    ctx = CartanContext.create(p, k)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    compute_a(ctx)  # cached, so order_ms below is the rest of order()
    timings["bucket_sums_ms"] = (time.perf_counter() - t0) * 1000

    t0 = time.perf_counter()
    value = order(ctx)
    timings["order_ms"] = (time.perf_counter() - t0) * 1000

    factorization = None
    if factor:
        t0 = time.perf_counter()
        factorization = factorize(value, rho_budget=rho_budget)
        if factorization.value() != value:
            raise InvariantViolation("factorization does not reassemble")
        timings["factor_ms"] = (time.perf_counter() - t0) * 1000

    invariant_factors = None
    if with_structure:
        t0 = time.perf_counter()
        invariant_factors = structure(ctx)
        product = math.prod(invariant_factors)
        if product != value:
            raise InvariantViolation(
                f"invariant factors multiply to {product}, order is {value}"
            )
        timings["structure_ms"] = (time.perf_counter() - t0) * 1000

    return ClassGroupResult(
        p=p,
        k=k,
        order=value,
        cusps=cusp_count_plus(p, k),
        epsilon=ctx.epsilon,
        generator=ctx.w,
        genus=genus_plus(p) if k == 1 else None,
        factorization=factorization,
        invariant_factors=invariant_factors,
        timings_ms=timings,
    )
