import itertools
import math
import random

import pytest

from cuspidal.cartan import CartanContext
from cuspidal.classgroup import (
    ClassGroupResult,
    bareiss_det,
    bernoulli_formula_k1,
    circulant_theta_prime,
    compute_class_group,
    float_crosscheck,
    generator_matrix,
    orbit_norms,
    order,
    snf,
    structure,
)
from cuspidal.stickelberger import d_value, stickelberger_data, theta

TABLE_SMALL = {5: 1, 7: 1, 11: 11, 13: 7 * 13**2, 17: 2**4 * 3 * 17**3}


def naive_det(rows):
    """Permutation-expansion determinant: the independent oracle."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def circulant_rows(first_row):
    """Dense circulant: entry (i, j) = first_row[(j - i) mod n]."""
    n = len(first_row)
    return [[first_row[(j - i) % n] for j in range(n)] for i in range(n)]


def orbit_det(first_row):
    """Circulant determinant as the product of the orbit norms."""
    return math.prod(orbit_norms(first_row).values())


def adjugate3(rows):
    [a, b, c], [d, e, f], [g, h, i] = rows
    return [
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ]


def quotient_group_invariants(rows):
    """Brute-force invariant factors of Z^3 / (row lattice), |det| small.

    Cosets are keyed by x * adj(A) mod |det| (x is in the lattice iff that
    key vanishes); m-torsion counts then pin down the abelian group type.
    """
    d = abs(naive_det(rows))
    assert 0 < d <= 40, "oracle only built for small quotients"
    adj = adjugate3(rows)
    keys = set()
    for x in itertools.product(range(d), repeat=3):
        key = tuple(
            sum(x[r] * adj[r][c] for r in range(3)) % d for c in range(3)
        )
        keys.add(key)
    assert len(keys) == d
    torsion = {}
    for m in range(1, d + 1):
        if d % m == 0:
            torsion[m] = sum(
                1 for key in keys if all(m * v % d == 0 for v in key)
            )
    divisors = [m for m in range(1, d + 1) if d % m == 0]
    for f1 in divisors:
        for f2 in divisors:
            if f2 % f1:
                continue
            if (f1 * f2) and d % (f1 * f2) == 0:
                f3 = d // (f1 * f2)
                if f3 % f2:
                    continue
                if all(
                    torsion[m] == math.gcd(m, f1) * math.gcd(m, f2) * math.gcd(m, f3)
                    for m in torsion
                ):
                    return tuple(f for f in (f1, f2, f3) if f > 1)
    raise AssertionError("no invariant-factor profile matched the torsion counts")


def test_bareiss_vs_naive_small_random():
    rng = random.Random(3)
    for n in (4, 5):
        for _ in range(25):
            rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(rows) == naive_det(rows)


def test_det_exact_on_random_circulants():
    rng = random.Random(5)
    for n in (4, 5):
        for _ in range(20):
            first = tuple(rng.randrange(-9, 10) for _ in range(n))
            assert orbit_det(first) == naive_det(circulant_rows(first))


@pytest.mark.parametrize("n", [6, 8, 12, 30])
def test_orbit_det_vs_dense_on_random_circulants(n):
    rng = random.Random(n)
    rows = [[6 * rng.randrange(-9, 10) for _ in range(n)] for _ in range(10)]
    rows.append([6] * (n - 1) + [6 - 6 * n])  # row sum 0: F(1) = 0, singular
    # a row of sixths, times 6
    rows.append([rng.randrange(-30, 31) for _ in range(n)])
    for first in rows:
        assert orbit_det(first) == bareiss_det(circulant_rows(first))
        if n == 6:
            assert orbit_det(first) == naive_det(circulant_rows(first))
    assert orbit_det((1,) * n) == 0


@pytest.mark.parametrize("p,k", [(83, 1), (101, 1), (11, 2), (13, 2)])
def test_orbit_norms_vs_dense_bareiss(p, k):
    ctx = CartanContext.create(p, k)
    first = circulant_theta_prime(ctx)
    scale = 12 * ctx.modulus
    norms = orbit_norms(first)
    assert sorted(norms) == [d for d in range(1, ctx.n + 1) if ctx.n % d == 0]
    assert math.prod(norms.values()) == bareiss_det(circulant_rows(first))
    # the trivial orbit is F(1) = scale * deg(theta')
    assert norms[1] == scale * stickelberger_data(ctx).theta_prime.degree()


def test_orbit_norms_pair_d_and_2d_at_13_squared():
    # n = 78: the orbits d and 2d carry the same norm for d = 3, 13, 39,
    # while the two rational orbits F(1) and F(-1) differ
    ctx = CartanContext.create(13, 2)
    norms = orbit_norms(circulant_theta_prime(ctx))
    assert all(norms[d] == norms[2 * d] for d in (3, 13, 39))
    assert norms[1] != norms[2]


def test_det_exact_examples():
    assert orbit_det((-180, -120)) == 60**2 * 5  # 60 x the p = 5 row (-3, -2)
    assert orbit_det((1, 0, 0)) == 1
    assert orbit_det((7,)) == 7


def test_snf_examples():
    assert snf([[2, 0], [0, 3]]) == (1, 6)
    assert snf([[1, 0], [0, 0]]) == (1,)
    assert snf([[0, 0], [0, 0]]) == ()
    assert snf([[6, 0], [0, 10]]) == (2, 30)


def test_snf_vs_bruteforce_quotients():
    rng = random.Random(17)
    done = 0
    while done < 40:
        rows = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)]
        d = abs(naive_det(rows))
        if d == 0 or d > 40:
            continue
        got = tuple(f for f in snf(rows) if f > 1)
        assert got == quotient_group_invariants(rows)
        assert math.prod(snf(rows)) == d
        done += 1


def test_snf_product_equals_det_nonsingular():
    rng = random.Random(23)
    for _ in range(40):
        rows = [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)]
        d = abs(naive_det(rows))
        if d:
            assert math.prod(snf(rows)) == d


def test_circulant_first_row_p5():
    ctx = CartanContext.create(5)
    assert circulant_theta_prime(ctx) == (-180, -120)  # 12 * 5 * (-3, -2)


@pytest.mark.parametrize("p,want", sorted(TABLE_SMALL.items()))
def test_order_small_table(p, want):
    assert order(CartanContext.create(p)) == want


def test_structure_examples():
    assert structure(CartanContext.create(5)) == ()
    assert structure(CartanContext.create(11)) == (11,)
    s17 = structure(CartanContext.create(17))
    assert math.prod(s17) == 2**4 * 3 * 17**3


def test_generator_matrix_shape_and_integrality():
    ctx = CartanContext.create(13)
    rows = generator_matrix(ctx)
    assert len(rows) == ctx.n and all(len(r) == ctx.n - 1 for r in rows)


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2), (7, 2)])
def test_generator_matrix_matches_group_ring_definition(p, k):
    # the integer rows against (w^j - 1) theta and d theta in Q[H], read off
    # at the coordinates 1..n-1 of the basis {w^i - 1}
    ctx = CartanContext.create(p, k)
    th = theta(ctx)
    elems = [th.shift(j) - th for j in range(1, ctx.n)] + [d_value(p) * th]
    want = []
    for elem in elems:
        assert elem.degree() == 0 and elem.is_integral()
        want.append([int(c) for c in elem.coeffs[1:]])
    assert generator_matrix(ctx) == want


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23, 29, 31])
def test_triple_oracle_small(p):
    ctx = CartanContext.create(p)
    o = order(ctx)
    assert math.prod(structure(ctx)) == o
    assert bernoulli_formula_k1(p) == o


def test_bernoulli_formula_examples():
    assert bernoulli_formula_k1(5) == 1
    assert bernoulli_formula_k1(19) == 3 * 19**3 * 487
    assert bernoulli_formula_k1(23) == 23**4 * 37181


def test_order_and_structure_invariant_under_choices():
    for p, eps2 in ((5, 7), (13, 11), (17, 7)):
        assert order(CartanContext.create(p)) == order(
            CartanContext.create(p, epsilon=eps2)
        )
    for p, w2 in ((7, 3), (11, 3)):
        base, alt = CartanContext.create(p), CartanContext.create(p, w=w2)
        assert order(base) == order(alt)
        assert structure(base) == structure(alt)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_float_crosscheck(p):
    assert float_crosscheck(CartanContext.create(p))


def test_float_crosscheck_is_per_orbit(monkeypatch):
    # exchanging two orbit norms keeps their product, which a check of the
    # whole determinant would accept; the per-orbit comparison does not
    import cuspidal.classgroup as cg

    ctx = CartanContext.create(13, 2)
    assert float_crosscheck(ctx)
    swapped = dict(cg.theta_prime_norms(ctx))
    swapped[1], swapped[2] = swapped[2], swapped[1]
    monkeypatch.setattr(cg, "theta_prime_norms", lambda c: swapped)
    assert not float_crosscheck(ctx)


def test_eigenvalues_p5():
    from cuspidal.classgroup import circulant_eigenvalues

    eigs = circulant_eigenvalues(CartanContext.create(5))
    assert abs(eigs[0] - (-1)) < 1e-12  # a'_0 - a'_1
    assert abs(eigs[1] - (-5)) < 1e-12  # trivial character = deg(theta')


def test_order_equals_snf_product_all_table_primes():
    # the two independent exact routes agree across the whole desk range
    from cuspidal.arith import Primality, is_prime

    for p in range(5, 102):
        if is_prime(p) is Primality.COMPOSITE:
            continue
        ctx = CartanContext.create(p)
        assert math.prod(structure(ctx)) == order(ctx), p


def test_k2_internal_assertions_hold():
    # no external ground truth at (5, 2): the internal identities are the test
    ctx = CartanContext.create(5, 2)
    o = order(ctx)
    assert o > 0
    assert math.prod(structure(ctx)) == o


def test_compute_class_group_bundle():
    res = compute_class_group(13, with_structure=True)
    assert res.order == 1183
    assert res.factored_str() == "7 * 13^2"
    assert math.prod(res.invariant_factors) == 1183
    assert res.genus == 3 and res.cusps == 6
    assert res.epsilon == 7 and res.generator == 2


def test_json_round_trip():
    import json

    res = compute_class_group(17, with_structure=True)
    encoded = json.dumps(res.to_json_dict())
    back = ClassGroupResult.from_json_dict(json.loads(encoded))
    assert back == res


def test_json_round_trip_keeps_factoring_budget_fields():
    import json

    # 47's order leaves an 8- and an 11-digit prime that 100 steps cannot split
    res = compute_class_group(47, rho_budget=100)
    data = json.loads(json.dumps(res.to_json_dict()))
    assert data["factor_budget_exhausted"] is True
    assert 0 < data["factor_steps_used"] <= 100
    assert ClassGroupResult.from_json_dict(data) == res


def test_result_without_factorization_round_trips():
    import json

    res = compute_class_group(7, factor=False)
    back = ClassGroupResult.from_json_dict(json.loads(json.dumps(res.to_json_dict())))
    assert back == res
