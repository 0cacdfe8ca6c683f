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

The circulant convention is pinned by the p = 5 worked fixture: first row
(-3, -2), determinant 5, order 1.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Sequence

from ._version import __version__
from .arith import DEFAULT_RHO_BUDGET, Factorization, bernoulli2, factorize
from .cartan import (
    CONTEXT_CACHE_SIZE,
    CartanContext,
    CartanElement,
    cusp_count_plus,
    genus_plus,
)
from .errors import InvariantViolation
from .stickelberger import d_value, stickelberger_data, theta

_SCALE_NUM = 12  # denominators of theta' coefficients divide 12 p^k


@dataclass(frozen=True)
class CirculantMatrix:
    """Circulant with entry (i, j) = first_row[(j - i) mod n]."""

    first_row: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.first_row)


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


def _scaled_row(m: CirculantMatrix, scale: int) -> list[int]:
    out = []
    for x in m.first_row:
        y = x * scale
        if y.denominator != 1:
            raise ValueError(f"scale {scale} does not clear denominator of {x}")
        out.append(int(y))
    return out


def orbit_norms(m: CirculantMatrix, scale: int) -> dict[int, int]:
    """{d: N_d} for every d | n, where N_d = Res(Phi_d, F) and F(x) is the
    scaled first row sum_j scale*a_j x^j; their product is det(scale*m).

    N_d is the product of the eigenvalues F(zeta) over the primitive d-th
    roots of unity zeta, computed exactly as the determinant of
    multiplication by F on Z[x]/Phi_d."""
    f = _scaled_row(m, scale)
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


def det_exact(m: CirculantMatrix, scale: int) -> Fraction:
    """det(m) as the product of the orbit norms of scale*m, divided back out.

    ``scale`` must clear every denominator (12 p^k does for A_theta')."""
    return Fraction(math.prod(orbit_norms(m, scale).values()), scale**m.n)


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def circulant_theta_prime(ctx: CartanContext) -> CirculantMatrix:
    """A_theta' with first row a'_j indexed by the bucket exponent j
    (a'_j is the coefficient of w^(-j) in theta', identity at j = 0)."""
    tp = stickelberger_data(ctx).theta_prime
    n = ctx.n
    return CirculantMatrix(tuple(tp.coeffs[(-j) % n] for j in range(n)))


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def theta_prime_norms(ctx: CartanContext) -> MappingProxyType:
    """Read-only {d: N_d} of 12 p^k A_theta', computed once per context for
    order() and float_crosscheck()."""
    norms = orbit_norms(circulant_theta_prime(ctx), _SCALE_NUM * ctx.modulus)
    return MappingProxyType(norms)


def order(ctx: CartanContext) -> int:
    """|det A_theta'| / ((p^2-1)/24 * p^(k-1) * e), checked to divide exactly."""
    data = stickelberger_data(ctx)
    p, k = ctx.p, ctx.k
    scale = _SCALE_NUM * ctx.modulus
    det = Fraction(math.prod(theta_prime_norms(ctx).values()), scale**ctx.n)
    if det == 0:
        raise InvariantViolation("A_theta' is singular")
    if det.denominator != 1:
        raise InvariantViolation(f"det A_theta' is not an integer: {det}")
    det_int = abs(det.numerator)
    denom = (p * p - 1) // 24 * p ** (k - 1) * data.e
    if det_int % denom:
        raise InvariantViolation(
            f"|det| = {det_int} is not divisible by {denom} (indexing bug?)"
        )
    return det_int // denom


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
    degree zero with coefficients c has coordinates (c_1, ..., c_{n-1})."""
    th = theta(ctx)
    rows = []
    for j in range(1, ctx.n):
        rows.append(th.shift(j) - th)
    rows.append(d_value(ctx.p) * th)
    out = []
    for elem in rows:
        if elem.degree() != 0:
            raise InvariantViolation("lattice generator does not have degree zero")
        out.append(list(elem.integer_coeffs()[1:]))
    return out


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
    row = [float(x) for x in circulant_theta_prime(ctx).first_row]
    n = len(row)
    out = []
    for m in range(1, n + 1):
        out.append(sum(row[j] * cmath.exp(2j * math.pi * j * m / n) for j in range(n)))
    return out


def float_crosscheck(ctx: CartanContext, tol: float = 1e-9) -> bool:
    """Per orbit d | n, the sum of log|lambda_m| over the m with
    n / gcd(m, n) = d vs. log|N_d / (12 p^k)^phi(d)|, and the
    trivial-character eigenvalue vs. deg(theta'), all to relative tol.

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
        return abs(x - want) <= tol * max(1.0, abs(want))

    log_scale = math.log(scale)
    ok_orbits = all(
        close(log_sums[d], math.log(abs(norm)) - sizes[d] * log_scale)
        for d, norm in norms.items()
    )
    deg = float(stickelberger_data(ctx).theta_prime.degree())
    return ok_orbits and close(eigs[-1], deg)


def bernoulli_formula_k1(p: int, epsilon: int | None = None, *, check: bool = True) -> int:
    """Order at prime level through the explicit (p-1)/2 determinant over
    powers of a generator of F_{p^2}*.

    Entry (i, j) is (p/2) (sum_{l=0}^{p} B2(<tr(v^(i-j+l(p-1)/2))/2 / p>)
    - (p+1)/6); the value is 576 |det| / ((p-1)^2 p (p+1) gcd(12, p+1)).
    With ``check`` the result is compared against order() and a mismatch
    raises, keeping the two computations honest against each other."""
    ctx = CartanContext.create(p, 1, epsilon)
    m = (p * p - 1) // 2  # largest exponent needed below is i-j+p(p-1)/2 < m
    v = _field_generator(ctx)
    powers = [CartanElement(1, 0)]
    for _ in range(m):
        powers.append(ctx.mul(powers[-1], v))

    half = (p - 1) // 2
    shift = Fraction(p + 1, 6)
    scale = Fraction(p, 2)
    profile = []
    for r in range(half):
        total = sum(
            bernoulli2(Fraction(powers[r + l * half].a1 % p, p)) for l in range(p + 1)
        )
        profile.append(scale * (total - shift))

    rows = CirculantMatrix(tuple(profile))
    det = det_exact(rows, _SCALE_NUM * p)
    if det.denominator != 1:
        raise InvariantViolation("Bernoulli determinant is not an integer")
    num = 576 * abs(det.numerator)
    den = (p - 1) ** 2 * p * (p + 1) * math.gcd(12, p + 1)
    if num % den:
        raise InvariantViolation("Bernoulli formula does not divide exactly")
    value = num // den
    if check and value != order(ctx):
        raise InvariantViolation(
            f"Bernoulli-number route gives {value}, determinant route {order(ctx)}"
        )
    return value


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
    epsilon: int | None = None,
    w: int | None = None,
) -> ClassGroupResult:
    ctx = CartanContext.create(p, k, epsilon, w)
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
