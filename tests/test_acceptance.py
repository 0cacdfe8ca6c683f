"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings alongside the pytest verdicts.
"""

import math
import time
from fractions import Fraction

import pytest

from cuspidal.cartan import CartanContext, cusp_count_plus, genus_plus
from cuspidal.classgroup import (
    bernoulli_formula_k1,
    float_crosscheck,
    generator_matrix,
    orbit_norms,
    order,
    structure,
)
from cuspidal.cli import main
from cuspidal.crosscheck import (
    bundled_fixture_path,
    fixture_identities_ok,
    gcd_harness,
    load_records,
)
from cuspidal.siegel import (
    cartan_group_lift,
    check_Th_weight,
    dihedral_transformation_ratio,
    infinity_order_slope,
    klein_modular_residual,
    klein_negation_residual,
    klein_translation_residual,
    normalizer_coset_lift,
)
from cuspidal.stickelberger import (
    compute_a,
    somme_identities_check,
    stickelberger_data,
    theta,
    theta_prime,
    theta_prime_row,
)
from oracles import bernoulli2, reference_table

SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def report(num: int, name: str, elapsed: float) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_table_reproduction(capsys):
    t_all = time.perf_counter()
    for p, expected in sorted(reference_table().items()):
        t0 = time.perf_counter()
        code = main(["order", "-p", str(p), "--factor"])
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - t0
        assert code == 0, p
        assert out.strip() == expected, (p, out.strip(), expected)
        limit = 5.0 if p <= 31 else 60.0
        assert elapsed < limit, (p, elapsed)
    with capsys.disabled():
        report(1, "factored table rows reproduced", time.perf_counter() - t_all)


def test_criterion_2_triple_oracle():
    t0 = time.perf_counter()
    for p in SMALL_PRIMES:
        ctx = CartanContext.create(p)
        by_det = order(ctx)
        by_snf = math.prod(structure(ctx))
        by_bernoulli = bernoulli_formula_k1(p)
        assert by_det == by_snf == by_bernoulli, (p, by_det, by_snf, by_bernoulli)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, "triple-oracle agreement p <= 31", elapsed)


def test_criterion_3_p5_micro_fixture():
    t0 = time.perf_counter()
    ctx = CartanContext.create(5)
    # a = -1/2 on the identity bucket (+-1), +1/2 on the bucket of +-2
    assert compute_a(ctx) == (Fraction(-1, 2), Fraction(1, 2))
    # the first row is theta' itself: (-3, -2), determinant 5
    assert theta_prime_row(ctx) == (-3, -2)
    assert math.prod(orbit_norms(theta_prime_row(ctx)).values()) == 5
    assert order(ctx) == 1
    assert structure(ctx) == ()
    report(3, "p = 5 worked micro-fixture", time.perf_counter() - t0)


def test_criterion_4_algebraic_invariants():
    t0 = time.perf_counter()
    cases = [(5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (5, 2)]
    for p, k in cases:
        ctx = CartanContext.create(p, k)
        data = stickelberger_data(ctx)
        assert sum(data.a) == 0, (p, k)
        assert data.theta_prime.degree() == -Fraction(
            (p * p - 1) * p ** (3 * k - 2), 24
        ), (p, k)
        assert all((data.d * ai).denominator == 1 for ai in data.a), (p, k)
        rows = generator_matrix(ctx)  # raises unless every row is integral
        assert len(rows) == ctx.n
        assert somme_identities_check(ctx) == (), (p, k)
    # eps-independence where a second valid eps was fixed
    for p, k, eps2 in ((5, 1, 7), (13, 1, 11), (17, 1, 7), (5, 2, 7)):
        assert theta(CartanContext.create(p, k)) == theta(
            CartanContext.create(p, k, epsilon=eps2)
        ), (p, k, eps2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(4, "algebraic invariants incl. (5,2)", elapsed)


def test_criterion_5_float_crosscheck():
    t0 = time.perf_counter()
    for p in SMALL_PRIMES:
        assert float_crosscheck(CartanContext.create(p)), p
    report(5, "eigenvalue log-sums vs orbit norms at 1e-9", time.perf_counter() - t0)


def test_criterion_6_analytic_suite():
    t0 = time.perf_counter()
    taus = (1j, 0.3 + 1j, 2j)
    matrices = (((1, 1), (0, 1)), ((0, -1), (1, 0)))
    grid = [
        (i, j)
        for i in range(5)
        for j in range(5)
        if i or j
    ]
    for a in grid:
        for tau in taus:
            assert klein_negation_residual(a, 5, tau) < 1e-8, (a, tau)
            for b in ((1, 0), (0, 1), (1, 1)):
                assert klein_translation_residual(a, 5, b, tau) < 1e-8, (a, b, tau)
            for g in matrices:
                assert klein_modular_residual(a, 5, g, tau) < 1e-8, (a, g, tau)
    for den in (5, 7):
        for num in range(den):
            for num2 in range(den):
                if num == 0 and num2 == 0:
                    continue
                a = (num, num2)
                target = float(bernoulli2(Fraction(num, den))) / 2
                got = infinity_order_slope(a, den)
                assert abs(got - target) <= 0.01 * abs(target), (a, got, target)
    tau = 0.3 + 1j
    ctx7 = CartanContext.create(7)
    r7 = dihedral_transformation_ratio(ctx7, 1, normalizer_coset_lift(ctx7), tau)
    assert abs(r7 - 1) < 1e-6
    ctx5 = CartanContext.create(5)
    r5 = dihedral_transformation_ratio(ctx5, 1, normalizer_coset_lift(ctx5), tau)
    assert abs(r5 - (-1)) < 1e-6
    r5c = dihedral_transformation_ratio(ctx5, 1, cartan_group_lift(ctx5), tau)
    assert abs(r5c - 1) < 1e-6
    for p in (5, 7):
        ctx = CartanContext.create(p)
        for h in range(1, ctx.n + 1):
            for g in (cartan_group_lift(ctx), normalizer_coset_lift(ctx)):
                assert check_Th_weight(ctx, h, g, tau), (p, h)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, "analytic q-series suite", elapsed)


def test_criterion_7_crosscheck_harness():
    load = load_records(bundled_fixture_path())
    assert load.ok
    orders = {p: order(CartanContext.create(p)) for p in load.levels()}
    t0 = time.perf_counter()
    for p in load.levels():
        harness = gcd_harness(p, load.for_p(p), orders[p])
        ok, problems = fixture_identities_ok(harness)
        assert ok, problems
        expected_ratio = 1 if p <= 23 else 4
        assert harness.j_ratio == expected_ratio, p
        if p in (29, 31):
            assert harness.newform_ratio == 1, p
        assert harness.all_j_divisible(), p
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(7, "section-8 gcd harness", elapsed)


def test_criterion_8_genus_and_cusps():
    t0 = time.perf_counter()
    assert genus_plus(5) == 0
    assert genus_plus(7) == 0
    assert genus_plus(11) == 1
    for p, k in ((5, 1), (7, 1), (5, 2)):
        m = p**k
        h_size = len({min(r, m - r) for r in range(1, m) if math.gcd(r, p) == 1})
        assert cusp_count_plus(p, k) == h_size
    report(8, "genus and cusp counts", time.perf_counter() - t0)
