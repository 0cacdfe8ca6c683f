"""Order and structure of the cuspidal class group.

Two independent exact routes plus a floating cross-check:

  * order(): |det A| of the circulant matrix built from theta', divided by
    (p^2-1)/24 * p^(k-1) * e.  The determinant comes from its orbit
    factorization: with F(x) = sum_j a'_j x^j, theta' as an integer row
    (stickelberger.theta_prime_row),

        det A = prod_{d | n} N_d,    N_d = Res(Phi_d, F),

    one factor per orbit of characters of H of exact order d.  N_d is the
    product of F(zeta) over the primitive d-th roots of unity zeta, taken
    modulo proven primes l = 1 (mod 2n), where one Bluestein transform
    evaluates F at every n-th root of unity, and recovered by CRT past a
    Parseval bound on F.
  * structure(): the invariant factors of the lattice L of unit divisors
    inside the degree-zero part I of the group ring, whose product must
    equal order().  L holds theta I, of index T = |prod_{d > 1} N_d| in I.
    Above k = 1 no n-row matrix is built: with S the primes dividing 6pn,
    the p-part comes from a split of Z_p[H] by the characters of the
    prime-to-p part of H, the rest of T_S from the C_m quotient,
    m = (p-1)/2, and each prime outside S from the orbit pairs
    (Phi_d, F mod Phi_d) of the theta' row.  structure() makes every level
    decision, and the integer kernels of components.py, whose one Smith-form
    kernel snf_mod() takes every matrix modulo m, know no level.
  * bernoulli_formula_k1(): for k = 1, the same order through an explicit
    determinant of B2 sums over the norm classes of F_{p^2}*, enumerated
    pair by pair (theta' takes the same row by convolution).
  * float_crosscheck(): eigenvalues of the circulant are finite Fourier
    sums of the first row, taken by a float FFT; per orbit, their
    log-magnitudes must add up to log|N_d|.

Every row here is an integer row, from theta' through the determinant to
the lattice; no Fraction is built on the order, structure or float-check
path.

The circulant convention is pinned by the p = 5 worked fixture: the first
row is (-3, -2), with determinant 5, so det A = 5 and the order is 1.
"""

from __future__ import annotations

import cmath
import math
import time
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import components
from ._version import __version__
from .arith import (
    DEFAULT_RHO_BUDGET,
    FactorEntry,
    Factorization,
    Primality,
    cyclic_product,
    factorize,
    fold,
    is_prime,
    part_with_primes_of,
)
from .cartan import (
    CONTEXT_CACHE_SIZE,
    CartanContext,
    cusp_count_plus,
    genus_plus,
)
from .errors import InvariantViolation
from .stickelberger import (
    d_theta_row, e_value, theta_image, theta_prime_degree, theta_prime_row,
)

FLOAT_TOL = 1e-9  # relative tolerance of float_crosscheck
_PRIME_TOP = 1 << 62  # CRT primes are the proven primes = 1 (mod 2n) below it


def _norm_bound(f: Sequence[int], d: int, phi: int) -> int:
    """B with |N_d| <= B: with G = F mod (x^d - 1), AM-GM over the primitive
    d-th roots and Parseval over all d-th roots give
    |N_d|^2 <= (d ||G||_2^2 / phi(d))^phi(d)."""
    num = (d * sum(c * c for c in fold(f, d))) ** phi
    den = phi**phi
    return math.isqrt(-(-num // den))


def _crt_primes(n: int):
    """(l, h) for the proven primes l = 1 (mod 2n) below 2^62, walking down
    from the top; h has exact order 2n mod l."""
    step = 2 * n
    qs = [e.prime for e in factorize(step).entries]
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
    n: one arith.cyclic_product of the residues."""
    n = len(f)
    step = 2 * n
    hp = [1] * step  # h^e for e in Z/2nZ
    for e in range(1, step):
        hp[e] = hp[e - 1] * h % ell
    conv = cyclic_product(
        [c * hp[j * j % step] % ell for j, c in enumerate(f)],
        [hp[-j * j % step] for j in range(n)],
        -1 if n % 2 else 1,
    )
    return [c * hp[i * i % step] % ell for i, c in enumerate(conv)]


def _norms_mod(f: Sequence[int], ell: int, h: int) -> dict[int, int]:
    """{d: N_d mod l} for every d | n = len(f): the product of the values
    F(g^i) with n / gcd(i, n) = d, the primitive d-th roots of unity."""
    n = len(f)
    local: dict[int, int] = {}
    for i, v in enumerate(_values_mod(f, ell, h)):
        d = n // math.gcd(i, n)
        local[d] = local.get(d, 1) * v % ell
    return local


def orbit_norms(f: Sequence[int]) -> dict[int, int]:
    """{d: N_d} for every d | n, where N_d = Res(Phi_d, F) and F(x) is the
    integer first row sum_j f_j x^j; their product is the determinant of the
    circulant with entry (i, j) = f[(j - i) mod n].

    N_d is the product of F(zeta) over the primitive d-th roots of unity
    zeta, computed by CRT over primes l = 1 (mod 2n), where every such zeta
    is a power of g (_norms_mod), until the primes' product exceeds twice
    the largest bound of _norm_bound; N_d is then the symmetric residue.
    The rows of theta' and of the Bernoulli route are primitive, so no
    content is divided out."""
    n = len(f)
    orbit = [n // math.gcd(i, n) for i in range(n)]
    phis = dict.fromkeys(sorted(orbit), 0)
    for d in orbit:
        phis[d] += 1
    bounds = {d: _norm_bound(f, d, phi) for d, phi in phis.items()}
    need = 2 * max(bounds.values())
    res = dict.fromkeys(phis, 0)
    modulus = 1
    for ell, h in _crt_primes(n):
        local = _norms_mod(f, ell, h)
        inv = pow(modulus, -1, ell)
        for d, x in res.items():
            res[d] = x + modulus * ((local[d] - x) * inv % ell)
        modulus *= ell
        if modulus > need:
            break
    norms = {}
    for d, x in res.items():
        x = x - modulus if 2 * x > modulus else x
        if abs(x) > bounds[d]:
            raise InvariantViolation(f"N_{d} exceeds its bound")
        norms[d] = x
    return norms


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def theta_prime_norms(ctx: CartanContext) -> MappingProxyType:
    """Read-only {d: N_d} of A_theta', computed once per context for
    order(), lattice_index() and float_crosscheck()."""
    return MappingProxyType(orbit_norms(theta_prime_row(ctx)))


def order(ctx: CartanContext) -> int:
    """|det A_theta'| / ((p^2-1)/24 * p^(k-1) * e), checked to divide exactly:
    det A_theta' = N_1 T, with T = lattice_index(ctx, n)."""
    p, k = ctx.p, ctx.k
    degree = theta_prime_degree(p, k)
    # N_1 = F(1) is the degree of the row, so this ties the row to theta'
    if theta_prime_norms(ctx)[1] != degree:
        raise InvariantViolation("circulant row does not have the degree of theta'")
    det = -degree * lattice_index(ctx, ctx.n)
    denom = (p * p - 1) // 24 * p ** (k - 1) * e_value(p, k)
    if det % denom:
        raise InvariantViolation(
            f"|det| = {det} is not divisible by {denom} (indexing bug?)"
        )
    return det // denom


# ---------------------------------------------------------------------------
# structure

def generator_matrix(ctx: CartanContext) -> list[list[int]]:
    """The unit-divisor lattice rows (w^j - 1) theta, j = 1..n-1, and
    d * theta: components.lattice_rows at size n, for the tests."""
    return components.lattice_rows(theta_image(ctx, ctx.n), d_theta_row(ctx, ctx.n))


def lattice_index(ctx: CartanContext, size: int) -> int:
    """[I_size : pi(theta) I_size] for size | n, I_size the augmentation
    ideal of Z[C_size] and pi taking w to its generator: the index of the
    span of the rows (w^j - 1) pi(theta), j = 1..size-1, in the degree-zero
    part.  At size n it is T = [I : theta I]; at m = (p-1)/2, the T_0 of
    structure()'s C_m quotient.

    It is |prod_{d | size, d > 1} N_d| over the theta' orbit norms, the
    characters of H of order d | size being those that factor through
    C_size; theta' and theta differ by a multiple of the norm element, which
    only the trivial character (d = 1) sees.  An index of 0 means the
    lattice does not have full rank."""
    norms = theta_prime_norms(ctx)
    index = abs(math.prod(v for d, v in norms.items() if d > 1 and size % d == 0))
    if index == 0:
        raise InvariantViolation(f"the lattice at size {size} does not have full rank")
    return index


def structure(ctx: CartanContext) -> tuple[int, ...]:
    """Invariant factors (> 1) of the cuspidal class group I/L, one
    component of the group ring at a time (components.py); the product
    equals order().  T = [I : theta I] comes from the orbit norms, and
    T Z^(n-1) lies in L.  With S the primes dividing 6pn, T = T_S T':

      * the p-part modulo p^s, s doubling from 2 until no factor reaches
        p^s: over Z_p, L = Z[H] d theta, d = d_value(p) being a p-unit, so
        p_part_mod() splits the O(n) row d theta (d_theta_row) by the
        characters of the prime-to-p part of H;
      * the rest of T_S from the C_m quotient, m = (p-1)/2: for a prime
        l != p the idempotent e_0 of the trivial character of C_q, n = m q,
        is l-integral, so (I/L)_l is the group of the lattice of pi(theta)
        in Z[C_m] (lattice_rows(), quotient_mod()) plus (1 - e_0)(I/L)_l,
        whose order divides T/T_0, T_0 = lattice_index(ctx, m).  T/T_0 is
        |prod N_d| over the d | n that do not divide m, so T_0 divides T by
        construction, and gcd(T/T_0, rest of T_S) must be 1;
      * for a prime l outside S, Z_l[H] = prod_{d | n} Z_l[x]/Phi_d; d is
        an l-unit, theta has degree 0, and theta' - theta is a multiple of
        the norm element, 0 in every factor with d > 1.  So the l-part is
        that of the sum over d > 1 of the orbit components Z[x]/(Phi_d, F)
        of the theta' row F, each given by the pair (Phi_d, F mod Phi_d) of
        orbit_blocks() and taken modulo M_d, the part of N_d prime to S, by
        euclid_mod().

    Each pair must have resultant N_d modulo the first CRT prime l, the
    product of the remainder's values at the roots of order d (_norms_mod),
    and factors multiplying to M_d; the M_d must multiply to T'.  The parts
    are coprime, so one divisibility_chain() of all their factors is the
    group's."""
    index = lattice_index(ctx, ctx.n)
    norms = theta_prime_norms(ctx)
    six_pn = 6 * ctx.p * ctx.n
    index_s = part_with_primes_of(index, six_pn)
    p_top = part_with_primes_of(index_s, ctx.p)
    rest_s = index_s // p_top
    m = (ctx.p - 1) // 2
    t0 = lattice_index(ctx, m)
    # T/T_0, the orbits of the characters that do not factor through C_m
    beyond_m = abs(math.prod(v for d, v in norms.items() if m % d))
    if math.gcd(beyond_m, rest_s) > 1:
        raise InvariantViolation(
            "gcd(T/T_0, rest of T_S) > 1: the characters nontrivial on C_q "
            "reach a prime of 6n other than p"
        )
    # the p-part modulo p^s, s = 2, 4, 8, ...: once every factor is below
    # p^s, none was cut off.  They stay far below p_top (at most p^5 at every
    # tested level, where p_top reaches p^79), so the entries stay small.
    d_theta = d_theta_row(ctx, ctx.n)
    q = min(ctx.p**2, p_top)
    while True:
        p_part = components.p_part_mod(d_theta, ctx.p, ctx.w, q)
        if q == p_top or p_part[-1] < q:
            break
        q = min(q * q, p_top)
    rows = components.lattice_rows(theta_image(ctx, m), d_theta_row(ctx, m))
    pieces = [*p_part, *components.quotient_mod(rows, t0, rest_s)]

    m_product = 1
    ell, h = next(_crt_primes(ctx.n))
    for d, (phi, r) in components.orbit_blocks(theta_prime_row(ctx)).items():
        if d == 1:
            continue
        if _norms_mod(r + [0] * (ctx.n - len(r)), ell, h)[d] != norms[d] % ell:
            raise InvariantViolation(f"orbit block {d} does not have resultant N_{d}")
        m_d = abs(norms[d]) // part_with_primes_of(abs(norms[d]), six_pn)
        factors = components.euclid_mod(phi, r, m_d)
        if math.prod(factors) != m_d:
            raise InvariantViolation(f"orbit block {d} factors do not multiply to M_{d}")
        pieces += factors
        m_product *= m_d
    if m_product != index // index_s:
        raise InvariantViolation("the M_d do not multiply to the part of T prime to 6pn")
    return tuple(f for f in components.divisibility_chain(pieces) if f != 1)


# ---------------------------------------------------------------------------
# cross-checks

def _fft(x: Sequence[complex], roots: Sequence[complex]) -> list[complex]:
    """sum_j x_j w^(jm) for m in Z/NZ, N = len(x) a power of two and w a
    primitive N-th root of unity, by radix-2 decimation in time; roots holds
    the powers of a primitive R-th root for some multiple R of N, so that
    w^k is roots[k R / N].  N = 4 is written out (w = i), which about halves
    the time of the recursion in Python; N = 2 never comes up, as _dft
    transforms 1 point or at least 4."""
    n = len(x)
    if n == 1:
        return list(x)
    if n == 4:
        a, b, c, d = x
        s, t, u, v = a + c, b + d, a - c, (b - d) * 1j
        return [s + t, u + v, s - t, u - v]
    even = _fft(x[0::2], roots)
    odd = [v * w for v, w in zip(_fft(x[1::2], roots), roots[:: len(roots) // n])]
    return [a + b for a, b in zip(even, odd)] + [a - b for a, b in zip(even, odd)]


def _dft(x: Sequence[float]) -> list[complex]:
    """sum_j x_j exp(2 pi i j m / n) for m in Z/nZ, n = len(x), in floats, by
    Bluestein's chirp, jm = (j^2 + m^2 - (m - j)^2) / 2, which turns the sum
    into a linear convolution of length 2n - 1 taken by the power-of-two FFT
    _fft, at every n.  The chirp exponents are reduced modulo 2n as integers
    before the float exp.  This is the float route of float_crosscheck, so it
    shares nothing with the exact transform of _values_mod."""
    n = len(x)
    size = 1 << (2 * n - 2).bit_length()
    roots = [cmath.exp(2j * math.pi * k / size) for k in range(size)]
    chirp = [cmath.exp(1j * math.pi * (t * t % (2 * n)) / n) for t in range(n)]
    a = [v * c for v, c in zip(x, chirp)] + [0j] * (size - n)
    b = [c.conjugate() for c in chirp] + [0j] * (size - 2 * n + 1)
    b += [c.conjugate() for c in reversed(chirp[1:])]  # t = -(n - 1) .. -1
    prod = [u * v for u, v in zip(_fft(a, roots), _fft(b, roots))]
    # the inverse transform: conjugate, transform, conjugate, divide by size
    conv = _fft([v.conjugate() for v in prod], roots)
    return [conv[m].conjugate() / size * chirp[m] for m in range(n)]


def circulant_eigenvalues(ctx: CartanContext) -> list[complex]:
    """lambda_m = sum_j a'_j exp(2 pi i j m / n), m = 1..n (m = n trivial),
    by the float FFT of the first row, O(n log n)."""
    values = _dft([float(x) for x in theta_prime_row(ctx)])
    return values[1:] + values[:1]


def float_crosscheck(ctx: CartanContext) -> bool:
    """Per orbit d | n, the sum of log|lambda_m| over the m with
    n / gcd(m, n) = d vs. log|N_d|, and the trivial-character eigenvalue
    vs. deg(theta'), all to relative FLOAT_TOL.

    Log magnitudes are compared instead of raw products because the
    determinants overflow doubles by many orders of magnitude."""
    norms = theta_prime_norms(ctx)
    if not all(norms.values()):
        return False
    eigs = circulant_eigenvalues(ctx)
    n = len(eigs)
    log_sums = dict.fromkeys(norms, 0.0)
    for m, v in enumerate(eigs, 1):
        log_sums[n // math.gcd(m, n)] += math.log(abs(v))

    def close(x, want: float) -> bool:
        return abs(x - want) <= FLOAT_TOL * max(1.0, abs(want))

    ok_orbits = all(close(log_sums[d], math.log(abs(norm))) for d, norm in norms.items())
    return ok_orbits and close(eigs[-1], float(theta_prime_degree(ctx.p, ctx.k)))


def bernoulli_formula_k1(p: int) -> int:
    """Order at prime level through the explicit (p-1)/2 determinant of
    generalized Bernoulli numbers, summed over the norm form of F_{p^2}.

    Entry (i, j) is P_(i-j) with P_r = (p/4) (sum_s B2(x_s / p)
    - 2(p+1)/6) over the 2(p+1) units s = x + y sqrt(eps) of F_{p^2} with
    norm x^2 - eps y^2 = +-w^r; the value is 576 |det P| / ((p-1)^2 p (p+1)
    gcd(12, p+1)).  The constant terms 1/6 of B2 cancel the shift, so
    P_r = sum_s x_s (x_s - p) / (4 p), an integer by the argument of
    stickelberger.theta_prime_row at k = 1.  The row is enumerated pair by
    pair, not convolved; only (0, 0) has norm 0, eps being a non-residue."""
    ctx = CartanContext.create(p, 1)
    half = (p - 1) // 2
    index = [0] * p  # index[+-w^j] = j
    r = 1
    for j in range(half):
        index[r] = index[p - r] = j
        r = r * ctx.w % p
    eps_squares = [ctx.epsilon * y * y % p for y in range(p)]
    sums = [0] * half
    for x in range(1, p):  # x = 0 adds 0; x != 0 never has norm 0
        square, weight = x * x, x * (x - p)
        for e in eps_squares:
            sums[index[(square - e) % p]] += weight

    row = []
    for total in sums:
        value, rem = divmod(total, 4 * p)
        if rem:
            raise InvariantViolation("Bernoulli row is not integral")
        row.append(value)

    num = 576 * abs(math.prod(orbit_norms(row).values()))
    den = (p - 1) ** 2 * p * (p + 1) * math.gcd(12, p + 1)
    if num % den:
        raise InvariantViolation("Bernoulli formula does not divide exactly")
    return num // den


# ---------------------------------------------------------------------------
# bundled result

class ClassGroupResult(NamedTuple):
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
    timings_ms: Mapping[str, float] = MappingProxyType({})  # read-only default
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
    rho_budget: int = DEFAULT_RHO_BUDGET,
) -> ClassGroupResult:
    ctx = CartanContext.create(p, k)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    theta_prime_row(ctx)  # cached, so order_ms below is the rest of order()
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

    return ClassGroupResult(
        p=p,
        k=k,
        order=value,
        cusps=cusp_count_plus(p, k),
        epsilon=ctx.epsilon,
        generator=ctx.w,
        genus=genus_plus(p) if k == 1 else None,
        factorization=factorization,
        timings_ms=timings,
    )
