"""Named invariant suites surfaced by the command line.

Each function returns a list of Check results; a suite passes when every
check does.  The algebraic suite covers the group-ring identities, the
structure suite the cross-route order equality, and the analytic suite the
desk-scale q-series verification.

The algebraic and eps-independence suites read theta' as its integer row
(stickelberger.theta_prime_row), with the unit-norm counts (norm_counts)
and the row d theta (d_theta_row), all O(p^k) and all in stickelberger:
the dense class partition, the Fraction group ring and the n-row lattice
are test oracles.  ``components`` and ``siegel`` are lazy package modules:
only the structure suite runs the first and only the analytic suite the
second.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import NamedTuple

from . import siegel
from .cartan import CartanContext, valid_epsilons
from .classgroup import FLOAT_TOL, bernoulli_formula_k1, float_crosscheck, order, structure
from .errors import InvariantViolation
from .stickelberger import (
    d_theta_row,
    d_value,
    norm_counts,
    somme_identities_check,
    theta_prime_degree,
    theta_prime_row,
)


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, fn) -> Check:
    try:
        passed, detail = fn()
    except (InvariantViolation, ValueError) as exc:
        return Check(name, False, str(exc))
    return Check(name, passed, detail)


def algebraic_checks(p: int, k: int = 1) -> list[Check]:
    ctx = CartanContext.create(p, k)
    shift = (p + 1) * p ** (2 * k - 1)  # 12 (a_i - a'_i), a'_i the theta' row
    out = []

    def vanishing():
        return 12 * sum(theta_prime_row(ctx)) + ctx.n * shift == 0, f"n = {ctx.n}"

    def degree():
        deg = sum(theta_prime_row(ctx))
        return deg == theta_prime_degree(p, k), f"deg = {deg}"

    def integral():
        d = d_value(p)
        denom = math.lcm(*(12 // math.gcd(12, 12 * x + shift) for x in theta_prime_row(ctx)))
        return d % denom == 0, f"d = {d}, observed a_i denominator lcm = {denom}"

    def lattice_rows():
        # d theta, which raises unless of degree 0, and the n - 1 shifts
        # (w^j - 1) theta' of the integer theta' row
        d_theta_row(ctx, ctx.n)
        rows = len(theta_prime_row(ctx))
        return rows == ctx.n, f"{rows} integral generator rows"

    out.append(_check("sum of a_i vanishes", vanishing))
    out.append(_check("degree of theta'", degree))
    out.append(_check("d * a_i integral", integral))
    out.append(_check("unit-divisor lattice rows integral", lattice_rows))

    def somme_all():
        bad = somme_identities_check(ctx)
        return not bad, f"{ctx.n} values of h checked" + (
            f"; failing: {list(bad)}" if bad else ""
        )

    out.append(_check("quadratic bucket sums (all h)", somme_all))

    def buckets():
        # the bucket of w^i: the units of norm +-w^i, two (s and -s) per class
        count, m = norm_counts(ctx)[0], ctx.modulus
        sizes = {count[r] + count[m - r] for r in (pow(ctx.w, i, m) for i in range(ctx.n))}
        return sizes == {2 * ctx.bucket_size()}, f"{ctx.n} buckets of {ctx.bucket_size()}"

    out.append(_check("norm buckets uniform", buckets))
    tol = f"{FLOAT_TOL:g}".replace("e-0", "e-")  # 1e-09 reads 1e-9
    out.append(
        _check(
            "eigenvalue/determinant float crosscheck",
            lambda: (float_crosscheck(ctx), f"relative {tol}"),
        )
    )
    return out


def eps_independence_checks(p: int, k: int = 1) -> list[Check]:
    eps1, eps2 = islice(valid_epsilons(p), 2)

    def same_theta():
        # theta - theta' does not involve eps
        t1 = theta_prime_row(CartanContext.create(p, k, eps1))
        t2 = theta_prime_row(CartanContext.create(p, k, eps2))
        return t1 == t2, f"eps in {{{eps1}, {eps2}}}"

    return [_check("theta independent of eps", same_theta)]


def structure_checks(p: int, k: int = 1) -> list[Check]:
    ctx = CartanContext.create(p, k)
    out = []

    def snf_route():
        o = order(ctx)
        s = structure(ctx)
        return math.prod(s) == o, f"invariant factors {list(s)}"

    out.append(_check("order equals product of invariant factors", snf_route))

    if k == 1:
        def bernoulli_route():
            value = bernoulli_formula_k1(p)
            return value == order(ctx), f"Bernoulli-number route = {value}"

        out.append(_check("order equals Bernoulli-number formula", bernoulli_route))
    return out


ANALYTIC_TAUS = (1j, 0.3 + 1j, 2j)
ANALYTIC_TOL = 1e-8
ANALYTIC_MATRICES = (((1, 1), (0, 1)), ((0, -1), (1, 0)))


def _grid(den: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(den) for j in range(den) if i or j]


def analytic_checks(p: int) -> list[Check]:
    """Klein-form laws on the level-p index grid, the order-at-infinity
    slope, and (for p = 5, 7) the dihedral sign of the bucket products."""
    out = []
    grid = _grid(p)

    def negation():
        worst = max(
            siegel.klein_negation_residual(a, p, tau) for a in grid for tau in ANALYTIC_TAUS
        )
        return worst < ANALYTIC_TOL, f"worst residual {worst:.2e}"

    def translation():
        worst = max(
            siegel.klein_translation_residual(a, p, b, tau)
            for a in grid
            for b in ((1, 0), (0, 1), (1, 1))
            for tau in ANALYTIC_TAUS
        )
        return worst < ANALYTIC_TOL, f"worst residual {worst:.2e}"

    def modular():
        worst = max(
            siegel.klein_modular_residual(a, p, g, tau)
            for a in grid
            for g in ANALYTIC_MATRICES
            for tau in ANALYTIC_TAUS
        )
        return worst < ANALYTIC_TOL, f"worst residual {worst:.2e}"

    def slope():
        # subleading terms decay like e^(-2 pi y / p): scale samples with p
        ys = tuple(c * p / 5 for c in (8.0, 10.0, 12.0))
        worst = 0.0
        for a in grid:
            target = siegel.b2(a[0], p) / 2
            got = siegel.infinity_order_slope(a, p, ys=ys)
            worst = max(worst, abs(got - target) / abs(target))
        return worst <= 0.01, f"worst relative error {worst:.2%}"

    out.append(_check("Klein negation law", negation))
    out.append(_check("Klein translation law (moduli)", translation))
    out.append(_check("Klein modular law (moduli)", modular))
    out.append(_check("order at infinity slope within 1%", slope))

    if p in (5, 7):
        def dihedral():
            ctx = CartanContext.create(p)
            tau = 0.3 + 1j
            gr = siegel.cartan_group_lift(ctx)
            gc = siegel.normalizer_coset_lift(ctx)
            ok = all(
                siegel.check_Th_weight(ctx, h, g, tau)
                for h in range(1, ctx.n + 1)
                for g in (gr, gc)
            )
            expected = "+1" if p % 4 == 3 else "-1"
            return ok, f"coset sign {expected} confirmed on every bucket"

        out.append(_check("dihedral sign of bucket products", dihedral))
    return out
