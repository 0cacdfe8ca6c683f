"""Independent exact oracles, and the test-only helpers that no command runs.

The orbit norms of classgroup.orbit_norms come from a multi-modular
transform; here each N_d = Res(Phi_d, F) is instead the determinant of
multiplication by F on Z[x]/Phi_d, the phi(d) x phi(d) integer matrix
block_matrix builds from the pair (Phi_d, F mod Phi_d) of
components.orbit_blocks (no command builds it), taken by fraction-free
(Bareiss) elimination.

components.snf_mod eliminates modulo a multiple of the lattice index; snf
is the dense Smith form over Z with minimal pivots, which no command runs.

arith.factorize divides out the trial primes by one gcd per run of primes;
factorize_prime_by_prime divides by each trial prime in turn instead.
arith._ecm_plan reads each giant step's baby steps off two slices of the
prime flags at once; ecm_plan_by_primes places the primes up to B2 one by
one.

classgroup.circulant_eigenvalues takes the float eigenvalues of a circulant
by an FFT; eigenvalues_by_sums adds up each one's n terms.

klein_eval_fraction and infinity_order_slope_fraction are the q-series
evaluators with every index a pair of Fractions, reduced and converted to
floats one Fraction at a time; siegel takes integer pairs over one
denominator and must agree with them bit for bit.

divisor_of_unit re-derives the lattice rows of classgroup.generator_matrix
as Fraction products in the group ring; kl_unit_check is the power-product
unit criterion on class coordinates.

somme_identities_by_classes checks the quadratic fiber identities of one h
by scanning the classes of its norm fibers (norm_fiber), where
stickelberger.somme_identities_check convolves for every h at once.

frac_part and bernoulli2 are the exact Fraction helpers of the *_fraction
evaluators and of the tests' Bernoulli targets; no command calls them.

The remaining helpers read the bundled reference table, brute-force orders
in H and in the Cartan ring, and build a context over a chosen generator w
of H.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import compress
from pathlib import Path
from typing import Mapping, Sequence

from cuspidal.arith import (
    ECM_B2_BOUND,
    FactorEntry,
    Factorization,
    Primality,
    _ECM_D,
    _odd_flags,
    _small_primes,
    _trial_bound,
    factorize,
)
from cuspidal.cartan import (
    CartanClass,
    CartanContext,
    CartanElement,
    h_index_table,
    norm_class_partition,
)
from cuspidal.components import divisibility_chain, orbit_blocks
from cuspidal.crosscheck import parse_value
from cuspidal.errors import InvariantViolation
from cuspidal.siegel import eta_sq, required_terms
from cuspidal.stickelberger import GroupRingElement, d_value, theta


ONE_SIXTH = Fraction(1, 6)


def frac_part(x) -> Fraction:
    """Fractional part <x> in [0, 1); x - <x> is an integer."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def bernoulli2(t) -> Fraction:
    """Second Bernoulli polynomial B2(t) = t^2 - t + 1/6, exactly."""
    t = Fraction(t)
    return t * t - t + ONE_SIXTH


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


def block_matrix(phi: Sequence[int], r: Sequence[int]) -> list[list[int]]:
    """The matrix of multiplication by r on Z[x]/phi, phi monic: row i holds
    the coefficients of x^i r mod phi."""
    rows, r = [], list(r) + [0] * (len(phi) - 1 - len(r))
    for _ in range(len(r)):
        rows.append(r)
        top = r[-1]  # r <- x * r mod phi
        r = [lo - top * c for lo, c in zip([0] + r[:-1], phi)]
    return rows


def block_norms(f: Sequence[int]) -> dict[int, int]:
    """{d: N_d} for every d | n = len(f), each the Bareiss determinant of
    multiplication by F = sum_j f_j x^j on Z[x]/Phi_d."""
    return {d: bareiss_det(block_matrix(*pair)) for d, pair in orbit_blocks(f).items()}


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

    return divisibility_chain([abs(a[i][i]) for i in range(min(nr, nc)) if a[i][i]])


def factorize_prime_by_prime(n: int, *, rho_budget: int) -> Factorization:
    """arith.factorize with its trial stage run one prime at a time: every
    prime up to the trial bound is divided out in turn until one's square
    exceeds the cofactor.  The cofactor then goes to factorize, whose trial
    stage can find nothing in it but itself, when it is a prime below the
    bound; the rest of the pipeline is the one under test."""
    entries = []
    m = n
    for p in _small_primes(_trial_bound(n)):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            e += 1
            m //= p
        if e:
            entries.append(FactorEntry(p, e, Primality.PROVEN))
    rest = factorize(m, rho_budget=rho_budget)
    return Factorization(
        tuple(entries) + rest.entries, rest.steps_used, rest.budget_exhausted
    )


def ecm_plan_by_primes(b1: int) -> tuple:
    """(scalar, first_giant, babies, pairs) of arith._ecm_plan(b1), built
    prime by prime: each prime q <= B1 multiplies its largest power <= B1
    into the scalar, and each prime q in (B1, B2] is written q = gD +- b with
    0 < b < D/2 and adds the index of b to giant step g."""
    b2 = min(100 * b1, ECM_B2_BOUND)
    scalar = 1 << (b1.bit_length() - 1)
    half = _ECM_D // 2
    babies = [b for b in range(1, half, 2) if math.gcd(b, _ECM_D) == 1]
    index = {b: i for i, b in enumerate(babies)}
    by_giant: dict[int, set[int]] = {}
    for q in compress(range(1, b2 + 1, 2), _odd_flags(b2)):
        if q <= b1:
            power = q
            while power * q <= b1:
                power *= q
            scalar *= power
            continue
        g, b = divmod(q, _ECM_D)
        if b > half:
            g, b = g + 1, _ECM_D - b
        by_giant.setdefault(g, set()).add(index[b])
    first, last = min(by_giant), max(by_giant)
    pairs = tuple(tuple(sorted(by_giant.get(g, ()))) for g in range(first, last + 1))
    return scalar, first, tuple(babies), pairs


def eigenvalues_by_sums(row: Sequence[float]) -> list[complex]:
    """lambda_m = sum_j row_j exp(2 pi i j m / n), m = 1..n, each summed term
    by term; the n roots of unity are built once and indexed by j m mod n."""
    n = len(row)
    roots = [cmath.exp(2j * math.pi * t / n) for t in range(n)]
    return [sum(x * roots[j * m % n] for j, x in enumerate(row)) for m in range(1, n + 1)]


def _siegel_product_fraction(
    a1: Fraction, a2: Fraction, tau: complex, lead: complex
) -> complex:
    terms = required_terms(tau)
    q = cmath.exp(2j * math.pi * tau)
    qz = cmath.exp(2j * math.pi * (float(a1) * tau + float(a2)))
    out = lead * (1 - qz)
    qn_qz = qz
    qn_over_qz = cmath.exp(2j * math.pi * (float(1 - a1) * tau - float(a2)))
    for _ in range(terms):
        qn_qz *= q
        out *= (1 - qn_qz) * (1 - qn_over_qz)
        qn_over_qz *= q
    return out


def _siegel_reduced_fraction(a1: Fraction, a2: Fraction, tau: complex) -> complex:
    lead = -cmath.exp(1j * math.pi * tau * float(bernoulli2(a1)))
    lead *= cmath.exp(1j * math.pi * float(a2 * (a1 - 1)))
    return _siegel_product_fraction(a1, a2, tau, lead)


def klein_eval_fraction(a: Sequence[Fraction], tau: complex) -> complex:
    """siegel.klein_eval at the index a = (a1, a2) given as two Fractions."""
    a1, a2 = Fraction(a[0]), Fraction(a[1])
    r1, r2 = frac_part(a1), frac_part(a2)
    if r1 == 0 and r2 == 0:
        raise ValueError("index must not lie in Z^2")
    b1, b2 = int(a1 - r1), int(a2 - r2)
    tau = complex(tau)
    value = _siegel_reduced_fraction(r1, r2, tau) / eta_sq(tau)
    if (b1, b2) != (0, 0):
        sign = -1.0 if (b1 * b2 + b1 + b2) % 2 else 1.0
        x = 2 * frac_part((Fraction(b1) * r2 - Fraction(b2) * r1) / 2)
        value *= sign * cmath.exp(-1j * math.pi * float(x))
    return value


def infinity_order_slope_fraction(
    a: Sequence[Fraction], ys: Sequence[float] = (8.0, 10.0, 12.0)
) -> float:
    """siegel.infinity_order_slope at the index a given as two Fractions."""
    r1, a2 = frac_part(a[0]), Fraction(a[1])
    if r1 == 0 and a2.denominator == 1:
        raise ValueError("index must not lie in Z^2")
    b2 = float(bernoulli2(r1))
    xs, ls = [], []
    for y in ys:
        rest = _siegel_product_fraction(r1, a2, complex(0.0, y), 1.0)
        ls.append(-math.pi * y * b2 + math.log(abs(rest)))
        xs.append(-2 * math.pi * y)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_l = sum(ls) / n
    num = sum((x - mean_x) * (l - mean_l) for x, l in zip(xs, ls))
    var = sum((x - mean_x) ** 2 for x in xs)
    return num / var


def reference_table_path() -> Path:
    return Path(resources.files("cuspidal").joinpath("data/table1.csv"))


@lru_cache(maxsize=1)
def reference_table() -> dict[int, str]:
    """p -> canonical factored order string for the bundled reference rows."""
    out: dict[int, str] = {}
    for raw in reference_table_path().read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line == "p,factorization":
            continue
        p_str, factored = line.split(",", 1)
        out[int(p_str)] = factored.strip()
    return out


def reference_order(p: int) -> int:
    return parse_value(reference_table()[p])


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
    div = GroupRingElement(ctx, exponents) * theta(ctx)
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


def norm_fiber(ctx: CartanContext, h: int) -> tuple[CartanClass, ...]:
    """Classes whose norm is exactly the residue h (not just up to sign),
    read from the dense norm partition."""
    h %= ctx.modulus
    if math.gcd(h, ctx.p) != 1:
        raise ValueError("h must be a unit residue")
    i = h_index_table(ctx)[h]
    return tuple(c for c in norm_class_partition(ctx)[i] if ctx.norm(c) == h)


def fiber_sums_by_classes(ctx: CartanContext, h: int) -> tuple[int, int, int]:
    """Sums of a1^2, a2^2 and a1 a2 modulo p^k over the classes of norm h."""
    m = ctx.modulus
    fiber = norm_fiber(ctx, h)
    if len(fiber) != ctx.bucket_size() // 2:
        raise InvariantViolation("norm fiber has the wrong size")
    return (
        sum(c.a1 * c.a1 for c in fiber) % m,
        sum(c.a2 * c.a2 for c in fiber) % m,
        sum(c.a1 * c.a2 for c in fiber) % m,
    )


def somme_identities_by_classes(ctx: CartanContext, h: int) -> bool:
    """The quadratic fiber identities of stickelberger.somme_identities_check
    for the H-class of h alone, by a scan of the classes of the h and -h
    fibers, the a1 a2 sum included."""
    m = ctx.modulus
    inv4 = pow(4, -1, m)
    inv_eps = pow(ctx.epsilon % m, -1, m)
    base = ctx.bucket_size() % m
    ok = True
    for h0 in (h % m, -h % m):
        s11, s22, s12 = fiber_sums_by_classes(ctx, h0)
        rhs1 = h0 * base * inv4 % m
        rhs2 = -h0 * base * inv4 * inv_eps % m
        ok = ok and s11 == rhs1 and s22 == rhs2 and s12 == 0
    return ok


def class_count(ctx: CartanContext) -> int:
    """Number of unit classes, (p^2 - 1) p^(2k-2) / 2."""
    return (ctx.p * ctx.p - 1) * ctx.p ** (2 * ctx.k - 2) // 2


def canonical_class(ctx: CartanContext, s) -> CartanClass:
    """The representative of {s, -s} satisfying the class invariants."""
    s = ctx.reduce(s)
    if not ctx.is_invertible(s):
        raise ValueError(f"{s} is not invertible mod {ctx.p}^{ctx.k}")
    half = (ctx.modulus - 1) // 2
    a1, a2 = s
    if a1 > half or (a1 == 0 and a2 > half):
        a1, a2 = -a1 % ctx.modulus, -a2 % ctx.modulus
    return CartanClass(a1, a2)


def element_order(ctx: CartanContext, s) -> int:
    """Multiplicative order of the unit s, by repeated multiplication."""
    if not ctx.is_invertible(s):
        raise ValueError("not a unit")
    t = 1
    x = ctx.reduce(s)
    one = CartanElement(1, 0)
    while x != one:
        x = ctx.mul(x, s)
        t += 1
    return t


def order_in_H(p: int, k: int, g: int) -> int:
    """Multiplicative order of the class of g in H (smallest t, g^t = +-1)."""
    m = p**k
    if math.gcd(g, p) != 1:
        raise ValueError("g must be a unit")
    t = 1
    x = g % m
    while x not in (1, m - 1):
        x = x * g % m
        t += 1
    return t


def context_with_generator(p: int, k: int, w: int) -> CartanContext:
    """CartanContext.create(p, k) with w in place of its generator of H;
    a w of the wrong order in H is a ValueError."""
    ctx = CartanContext.create(p, k)
    if order_in_H(p, k, w) != ctx.n:
        raise ValueError(f"w = {w} does not generate H (order != {ctx.n})")
    return ctx._replace(w=w)
