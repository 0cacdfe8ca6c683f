"""Numerical q-series layer: Siegel functions, Klein forms, their
transformation behaviour, and the sign character of the bucket products.

Every index is an integer pair a = (x1, x2) over a denominator den >= 1,
standing for a / den, and must lie outside Z^2.  The arithmetic stays in
integers, and each float is one correctly rounded division of two of them.

Siegel values come from the classical q-product: for 0 <= a1 < 1,

    g_a(tau) = -q^(B2(a1)/2) e^(pi i a2 (a1 - 1)) (1 - q_z)
               prod_{n>=1} (1 - q^n q_z)(1 - q^n / q_z),

with q = e^(2 pi i tau) and q_z = e^(2 pi i (a1 tau + a2)).  Klein forms are
recovered as g_a / eta2 with eta2(tau) = q^(1/12) prod (1 - q^n)^2; any
constant in a classical discriminant normalization is dropped, because every
check here is a modulus or a ratio carrying equally many eta2 factors, so a
global constant cancels identically.

Every product is truncated by one rule: N = required_terms(tau) factors,
one past the smallest N with |q|^N <= TRUNCATION_TARGET = 1e-12, so no caller
chooses a length.  The factors 1 - q^n / q_z are stepped by q from
q / q_z = e^(2 pi i ((1 - a1) tau - a2)), formed as one exponential: for a1
near 1 and large Im tau, q_z alone underflows to 0 while q / q_z is still
far from 0.

Identities that hold only up to a root of unity after index reduction are
never tested pointwise: checks are formulated on moduli, or on ratios whose
ambiguity is pinned to +-1.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import Sequence

from .cartan import (
    CartanContext,
    find_norm_minus_one_element,
    find_norm_one_generator,
    units_of_norm,
)
from .errors import InvariantViolation

TRUNCATION_TARGET = 1e-12
WEIGHT_TOL = 1e-6
ETA_CACHE_SIZE = 64  # distinct tau per eta2 cache; an analytic suite uses about ten

Matrix = Sequence[Sequence[int]]
Index = Sequence[int]


def required_terms(tau: complex) -> int:
    """Truncation length at tau: one past the smallest N with
    |q|^N <= TRUNCATION_TARGET."""
    y = complex(tau).imag
    if y <= 0:
        raise ValueError("tau must lie in the upper half plane")
    return math.ceil(-math.log(TRUNCATION_TARGET) / (2 * math.pi * y)) + 1


@lru_cache(maxsize=ETA_CACHE_SIZE)
def eta_sq(tau: complex) -> complex:
    """q^(1/12) prod_{n<=N} (1 - q^n)^2 (constant normalization dropped).

    Cached: every Klein value at one tau divides by the same eta2(tau)."""
    tau = complex(tau)
    terms = required_terms(tau)
    q = cmath.exp(2j * math.pi * tau)
    out = cmath.exp(2j * math.pi * tau / 12)
    qn = 1.0 + 0j
    for _ in range(terms):
        qn *= q
        f = 1 - qn
        out *= f * f
    return out


def _checked(a: Index, den: int) -> tuple[int, int]:
    """(x1, x2) for an index a / den outside Z^2."""
    x1, x2 = a
    if den < 1:
        raise ValueError("denominator must be positive")
    if x1 % den == 0 and x2 % den == 0:
        raise ValueError("index must not lie in Z^2")
    return x1, x2


def b2(x: int, den: int) -> float:
    """B2(x / den) = (6x^2 - 6x den + den^2) / (6 den^2)."""
    return (6 * x * x - 6 * x * den + den * den) / (6 * den * den)


def _siegel_product(x1: int, x2: int, den: int, tau: complex, lead: complex) -> complex:
    """lead (1 - q_z) prod_{n<=N} (1 - q^n q_z)(1 - q^n / q_z) at the index
    (x1, x2) / den, for 0 <= x1 < den."""
    if not 0 <= x1 < den:
        raise ValueError("first index must already lie in [0, 1)")
    terms = required_terms(tau)
    q = cmath.exp(2j * math.pi * tau)
    qz = cmath.exp(2j * math.pi * (x1 / den * tau + x2 / den))
    out = lead * (1 - qz)
    qn_qz = qz
    qn_over_qz = cmath.exp(2j * math.pi * ((den - x1) / den * tau - x2 / den))
    for _ in range(terms):
        qn_qz *= q
        out *= (1 - qn_qz) * (1 - qn_over_qz)
        qn_over_qz *= q
    return out


def _siegel_reduced(x1: int, x2: int, den: int, tau: complex) -> complex:
    lead = -cmath.exp(1j * math.pi * tau * b2(x1, den))
    lead *= cmath.exp(1j * math.pi * (x2 * (x1 - den) / (den * den)))
    return _siegel_product(x1, x2, den, tau, lead)


def siegel_eval(a: Index, den: int, tau: complex) -> complex:
    """Siegel q-product at a / den with the first index reduced into [0, 1).

    The reduction makes the value exact only up to a root of unity relative
    to an unreduced index; downstream checks are modulus- or ratio-based."""
    x1, x2 = _checked(a, den)
    return _siegel_reduced(x1 % den, x2, den, complex(tau))


def klein_eval(a: Index, den: int, tau: complex) -> complex:
    """Klein form at any index a / den outside Z^2, up to one global constant.

    The index is reduced into [0,1)^2 and the exact translation multiplier
    is applied, so integer translation and the modular law hold as written
    (the single unknown constant divides out of every ratio)."""
    x1, x2 = _checked(a, den)
    b1, r1 = divmod(x1, den)
    b2, r2 = divmod(x2, den)
    tau = complex(tau)
    value = _siegel_reduced(r1, r2, den, tau) / eta_sq(tau)
    if (b1, b2) != (0, 0):
        # epsilon(r / den, b) = (-1)^(b1 b2 + b1 + b2) e^(-pi i phase), where
        # phase = (b1 r2 - b2 r1) / den is reduced mod 2 before going to floats
        sign = -1.0 if (b1 * b2 + b1 + b2) % 2 else 1.0
        phase = ((b1 * r2 - b2 * r1) % (2 * den)) / den
        value *= sign * cmath.exp(-1j * math.pi * phase)
    return value


# ---------------------------------------------------------------------------
# transformation-law residuals

def _moebius(gamma: Matrix, tau: complex) -> complex:
    (a, b), (c, d) = gamma
    return (a * tau + b) / (c * tau + d)


def klein_negation_residual(a: Index, den: int, tau: complex) -> float:
    """|k(-a) + k(a)| / |k(a)|: the negation law, exact complex form."""
    k = klein_eval(a, den, tau)
    k_neg = klein_eval((-a[0], -a[1]), den, tau)
    return abs(k_neg + k) / abs(k)


def klein_translation_residual(a: Index, den: int, b: Index, tau: complex) -> float:
    """| |k(a+b)| - |k(a)| | / |k(a)| for integer b (multiplier has modulus 1)."""
    k = klein_eval(a, den, tau)
    shifted = (a[0] + b[0] * den, a[1] + b[1] * den)
    return abs(abs(klein_eval(shifted, den, tau)) - abs(k)) / abs(k)


def klein_modular_residual(a: Index, den: int, gamma: Matrix, tau: complex) -> float:
    """Modular law on moduli: |k_a(gamma tau) (r tau + s)| against
    |k_(a gamma)(tau)|."""
    (p, q), (r, s) = gamma
    if p * s - q * r != 1:
        raise ValueError("gamma must have determinant 1")
    lhs = klein_eval(a, den, _moebius(gamma, tau)) * (r * tau + s)
    rhs = klein_eval((a[0] * p + a[1] * r, a[0] * q + a[1] * s), den, tau)
    return abs(abs(lhs) - abs(rhs)) / abs(rhs)


def infinity_order_slope(
    a: Index, den: int, ys: Sequence[float] = (8.0, 10.0, 12.0)
) -> float:
    """Least-squares slope of log|g_(a/den)(iy)| against -2 pi y.

    Converges to B2(<a1>)/2 as the sample points grow; subleading factors
    decay like e^(-2 pi y <a1>), so small <a1> needs y well beyond the strip
    where the product is merely convergent.  The leading factor's log
    modulus, -pi y B2(<a1>), is taken in closed form and only the other
    factors are multiplied out: at the y that large levels sample, the
    leading factor alone leaves float range (it underflows at a1 = 0 and
    overflows where B2(<a1>) < 0)."""
    x1, x2 = _checked(a, den)
    r1 = x1 % den
    xs, ls = [], []
    for y in ys:
        rest = _siegel_product(r1, x2, den, complex(0.0, y), 1.0)
        ls.append(-math.pi * y * b2(r1, den) + math.log(abs(rest)))
        xs.append(-2 * math.pi * y)
    n = len(xs)
    mean_x = sum(xs) / n
    mean_l = sum(ls) / n
    num = sum((x - mean_x) * (l - mean_l) for x, l in zip(xs, ls))
    var = sum((x - mean_x) ** 2 for x in xs)
    return num / var


# ---------------------------------------------------------------------------
# integer lifts of level-p^k matrices

def lift_to_sl2(m: Matrix, modulus: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """An integer matrix of determinant 1 congruent to m mod modulus.

    Requires det(m) = 1 mod modulus.  Construction: make the bottom row
    coprime over Z, complete it to SL2(Z) by Bezout, then fix the top row
    with a unipotent correction."""
    (a, b), (c, d) = [[x % modulus for x in row] for row in m]
    if (a * d - b * c) % modulus != 1:
        raise ValueError("matrix must have determinant 1 mod modulus")
    c0 = c if c else modulus
    d0 = d
    for t in range(c0 + 1):
        if math.gcd(c0, d + t * modulus) == 1:
            d0 = d + t * modulus
            break
    else:
        raise InvariantViolation("no coprime lift of the bottom row exists")
    # u*d0 + v*c0 = 1  ->  det [[u, -v], [c0, d0]] = 1
    u = pow(d0, -1, c0)
    v = (1 - u * d0) // c0
    a0, b0 = u, -v
    # m * B^(-1) is unipotent upper-triangular mod modulus; read off its y
    y = (a * -b0 + b * a0) % modulus
    top = (a0 + y * c0, b0 + y * d0)
    lift = (top, (c0, d0))
    if top[0] * d0 - top[1] * c0 != 1:
        raise InvariantViolation("lift lost determinant 1")
    if any(
        (lift[i][j] - (m[i][j] % modulus)) % modulus for i in range(2) for j in range(2)
    ):
        raise InvariantViolation("lift is not congruent to the target")
    return lift


def cartan_group_lift(ctx: CartanContext) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer lift of the multiplication matrix of a norm-one generator:
    an element of the arithmetic group fixing the non-split structure."""
    r = find_norm_one_generator(ctx)
    m = ctx.modulus
    target = ((r.a1, r.a2), (ctx.epsilon * r.a2 % m, r.a1))
    return lift_to_sl2(target, m)


def normalizer_coset_lift(ctx: CartanContext) -> tuple[tuple[int, int], tuple[int, int]]:
    """Integer lift of M_s C for a unit s of norm -1: lands in the
    normalizer coset outside the Cartan part."""
    s = find_norm_minus_one_element(ctx)
    m = ctx.modulus
    target = ((s.a1, -s.a2 % m), (ctx.epsilon * s.a2 % m, -s.a1 % m))
    return lift_to_sl2(target, m)


def classify_in_normalizer(ctx: CartanContext, gamma: Matrix) -> bool:
    """True if gamma mod p^k has Cartan shape [[a, b], [eps b, a]]; False if
    it has coset shape [[a, -b], [eps b, -a]]; ValueError otherwise."""
    m = ctx.modulus
    (a, b), (c, d) = [[x % m for x in row] for row in gamma]
    if d == a and c == ctx.epsilon * b % m:
        return True
    if d == (-a) % m and c == ctx.epsilon * (-b) % m:
        return False
    raise ValueError("matrix does not reduce into the normalizer")


def dihedral_sign(p: int, in_cartan_part: bool) -> int:
    """Predicted character value: -1 exactly when p = 1 mod 4 and the
    element lies outside the Cartan part of the normalizer."""
    return -1 if (p % 4 == 1 and not in_cartan_part) else 1


def t_plus_eval(ctx: CartanContext, h_index: int, tau: complex) -> complex:
    """Product of Klein forms over the norm bucket of w^h_index, at the
    canonical scaled indices (a1 / p^k, a2 / p^k): the units of norm
    +-w^h_index, one per pair {s, -s}, with a1 < p^k / 2, and a2 < p^k / 2
    when a1 = 0, in increasing (a1, a2)."""
    m = ctx.modulus
    r = pow(ctx.w, h_index, m)
    units = (s for t in (r, m - r) for s in units_of_norm(ctx, t))
    bucket = sorted(s for s in units if 2 * s.a1 < m and (s.a1 or 2 * s.a2 < m))
    return math.prod((klein_eval(s, m, tau) for s in bucket), start=1.0 + 0j)


def dihedral_transformation_ratio(
    ctx: CartanContext, h_index: int, gamma: Matrix, tau: complex
) -> complex:
    """T_h(gamma tau) / (J_gamma(tau) T_h(tau)) with the automorphy factor
    J_gamma(tau) = (c tau + d)^(-(p+1) p^(k-1)); equals +-1 exactly."""
    tau = complex(tau)
    (_, _), (c, d) = gamma
    weight = (ctx.p + 1) * ctx.p ** (ctx.k - 1)
    gt = _moebius(gamma, tau)
    lhs = t_plus_eval(ctx, h_index, gt)
    rhs = (c * tau + d) ** (-weight) * t_plus_eval(ctx, h_index, tau)
    return lhs / rhs


def check_Th_weight(
    ctx: CartanContext, h_index: int, gamma: Matrix, tau: complex
) -> bool:
    """Verify the weight law for the bucket product under gamma.

    The ratio against the automorphy factor must be real up to WEIGHT_TOL
    with modulus 1, and its sign must match the dihedral character prediction."""
    in_cartan = classify_in_normalizer(ctx, gamma)
    ratio = dihedral_transformation_ratio(ctx, h_index, gamma, tau)
    if abs(abs(ratio) - 1) > WEIGHT_TOL or abs(ratio.imag) > WEIGHT_TOL:
        return False
    sign = 1 if ratio.real > 0 else -1
    return sign == dihedral_sign(ctx.p, in_cartan)
