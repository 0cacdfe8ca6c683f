"""Order and structure of the cuspidal class group.

Two independent exact routes plus a floating cross-check:

  * order(): |det A| of the circulant matrix built from theta', divided by
    (p^2-1)/24 * p^(k-1) * e.  The determinant comes from its orbit
    factorization: with F(x) = sum_j 12 p^k a'_j x^j,

        det(12 p^k A) = prod_{d | n} N_d,    N_d = Res(Phi_d, F),

    one factor per orbit of characters of H of exact order d.  N_d is the
    determinant of multiplication by F on Z[x]/Phi_d, a phi(d) x phi(d)
    integer matrix; Bareiss is only the kernel for these blocks.
  * structure(): Smith normal form of the lattice of unit divisors inside
    the degree-zero part of the group ring; the invariant factors describe
    the full abelian group, and their product must equal order().
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
from .arith import DEFAULT_RHO_BUDGET, Factorization, factorize
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


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for r in range(n - 1):
        if a[r][r] == 0:
            for i in range(r + 1, n):
                if a[i][r]:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[r][r]
        tail = a[r][r + 1 :]
        # column r below the pivot is never read again, so it is left as is
        for i in range(r + 1, n):
            row = a[i]
            f = row[r]
            row[r + 1 :] = [
                (x * pivot - f * y) // prev for x, y in zip(row[r + 1 :], tail)
            ]
        prev = pivot
    return sign * a[n - 1][n - 1]


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


def _cyclotomic_polys(n: int) -> dict[int, list[int]]:
    """Phi_d for every d | n, from x^d - 1 = prod_{e | d} Phi_e by exact
    division; coefficients from the constant term up."""
    phis: dict[int, list[int]] = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        poly = [-1] + [0] * (d - 1) + [1]
        for e, phi in phis.items():
            if d % e == 0:
                poly, rem = _divmod_monic(poly, phi)
                if any(rem):
                    raise InvariantViolation(f"Phi_{e} does not divide x^{d} - 1")
        phis[d] = poly
    return phis


def orbit_norms(f: Sequence[int]) -> dict[int, int]:
    """{d: N_d} for every d | n, where N_d = Res(Phi_d, F) and F(x) is the
    integer first row sum_j f_j x^j; their product is the determinant of the
    circulant with entry (i, j) = f[(j - i) mod n].

    N_d is the product of the eigenvalues F(zeta) over the primitive d-th
    roots of unity zeta, computed exactly as the determinant of
    multiplication by F on Z[x]/Phi_d."""
    n = len(f)
    norms = {}
    for d, phi in _cyclotomic_polys(n).items():
        folded = [0] * d  # F mod x^d - 1, which Phi_d divides
        for j, c in enumerate(f):
            folded[j % d] += c
        _, r = _divmod_monic(folded, phi)
        rows = []
        for _ in range(len(phi) - 1):
            rows.append(r)
            top = r[-1]  # r <- x * r mod Phi_d
            r = [lo - top * c for lo, c in zip([0] + r[:-1], phi)]
        norms[d] = bareiss_det(rows)
    return norms


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
    order() and float_crosscheck()."""
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

    diag = [abs(a[i][i]) for i in range(min(nr, nc)) if a[i][i]]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
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


def structure(ctx: CartanContext) -> tuple[int, ...]:
    """Invariant factors (> 1) of the cuspidal class group, via the Smith
    form of the unit-divisor lattice; the product equals order()."""
    diag = snf(generator_matrix(ctx))
    if len(diag) != ctx.n - 1:
        raise InvariantViolation("unit-divisor lattice does not have full rank")
    return tuple(d for d in diag if d != 1)


# ---------------------------------------------------------------------------
# cross-checks

def circulant_eigenvalues(ctx: CartanContext) -> list[complex]:
    """lambda_m = sum_j a'_j exp(2 pi i j m / n), m = 1..n (m = n trivial)."""
    scale = _SCALE_NUM * ctx.modulus
    row = [x / scale for x in circulant_theta_prime(ctx)]
    n = len(row)
    out = []
    for m in range(1, n + 1):
        out.append(sum(row[j] * cmath.exp(2j * math.pi * j * m / n) for j in range(n)))
    return out


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
