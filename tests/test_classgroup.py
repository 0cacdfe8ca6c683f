import itertools
import math
import random
import sys

import pytest

from cuspidal.arith import Primality, is_prime
from cuspidal.cartan import CartanContext
from cuspidal.classgroup import (
    ClassGroupResult,
    _crt_primes,
    _norm_bound,
    _values_mod,
    bernoulli_formula_k1,
    compute_class_group,
    float_crosscheck,
    generator_matrix,
    lattice_index,
    orbit_norms,
    order,
    structure,
)
from cuspidal.components import snf_mod
from cuspidal.errors import InvariantViolation
from cuspidal.stickelberger import (
    d_theta_row, d_value, theta, theta_image, theta_prime_degree, theta_prime_row,
)
from oracles import (
    bareiss_det,
    block_matrix,
    block_norms,
    context_with_generator,
    eigenvalues_by_sums,
    reference_order,
    snf,
)

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
    first = theta_prime_row(ctx)
    norms = orbit_norms(first)
    assert sorted(norms) == [d for d in range(1, ctx.n + 1) if ctx.n % d == 0]
    assert math.prod(norms.values()) == bareiss_det(circulant_rows(first))
    # the trivial orbit is F(1) = deg(theta')
    assert norms[1] == theta_prime_degree(p, k)


def test_orbit_norms_pair_d_and_2d_at_13_squared():
    # n = 78: the orbits d and 2d carry the same norm for d = 3, 13, 39,
    # while the two rational orbits F(1) and F(-1) differ
    ctx = CartanContext.create(13, 2)
    norms = orbit_norms(theta_prime_row(ctx))
    assert all(norms[d] == norms[2 * d] for d in (3, 13, 39))
    assert norms[1] != norms[2]


NORM_LEVELS = [
    (p, 1) for p in range(5, 102) if is_prime(p) is not Primality.COMPOSITE
] + [(5, 2), (7, 2), (5, 3), (11, 2), (13, 2), (7, 3), (19, 2)]


@pytest.fixture(scope="module")
def level_norms():
    """(p, k) -> (theta' row, Bareiss-block norms), computed once: 19^2
    alone takes about 2 s in the oracle."""
    out = {}
    for p, k in NORM_LEVELS:
        first = theta_prime_row(CartanContext.create(p, k))
        out[p, k] = first, block_norms(first)
    return out


@pytest.mark.parametrize("p,k", NORM_LEVELS)
def test_orbit_norms_equal_bareiss_blocks(level_norms, p, k):
    first, want = level_norms[p, k]
    assert orbit_norms(first) == want


@pytest.mark.parametrize("p,k", NORM_LEVELS)
def test_norm_bound_covers_each_orbit_norm(level_norms, p, k):
    first, want = level_norms[p, k]
    n = len(first)
    for d, norm in want.items():
        phi = sum(1 for i in range(n) if n // math.gcd(i, n) == d)
        bound = _norm_bound(first, d, phi)
        assert bound >= abs(norm)


def test_orbit_norms_on_random_rows():
    rng = random.Random(40)
    scaled = random.Random(41)  # its own stream, so the rows above stay as they were
    big = 1 << 200
    for n in range(1, 41):
        rows = [
            [rng.randrange(-99, 100) for _ in range(n)],
            [(-1) ** j * rng.randrange(1, 10**6) for j in range(n)],  # alternating
            [(-1) ** j * 7 for j in range(n)],  # n even: N_d = 0 for every d != 2
            [rng.choice((-1, 1)) * (big - rng.randrange(1000)) for _ in range(n)],
        ]
        singular = [rng.randrange(-50, 51) for _ in range(n)]
        singular[-1] -= sum(singular)  # F(1) = 0
        rows.append(singular)
        # content c > 1, and content 0 below: no row the program passes has
        # either (see test_theta_prime_and_bernoulli_rows_are_primitive), so
        # these check only that orbit_norms stays exact on them
        content = scaled.choice((2, 12, scaled.randrange(2, 10**6), 10**6))
        rows.append([content * scaled.randrange(-60, 61) for _ in range(n)])
        rows.append([0] * n)  # every N_d = 0
        for first in rows:
            assert orbit_norms(first) == block_norms(first), (n, first)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 21])
def test_values_mod_evaluates_at_every_nth_root(n):
    rng = random.Random(n)
    f = [rng.randrange(-(10**40), 10**40) for _ in range(n)]
    ell, h = next(_crt_primes(n))
    g = h * h % ell
    want = [
        sum(c * pow(g, i * j, ell) for j, c in enumerate(f)) % ell for i in range(n)
    ]
    assert _values_mod(f, ell, h) == want


def test_orbit_norms_reject_a_norm_past_its_bound(monkeypatch):
    # with every bound cut to 1, one prime is taken and the residue of N_d
    # is far larger than the (false) bound: that must raise, not return it
    import cuspidal.classgroup as cg

    first = theta_prime_row(CartanContext.create(7, 3))
    monkeypatch.setattr(cg, "_norm_bound", lambda f, d, phi: 1)
    with pytest.raises(InvariantViolation):
        orbit_norms(first)


def test_orbit_norms_take_the_crt_primes_of_the_primitive_row(monkeypatch):
    # one transform per CRT prime, on rows that are primitive; the rows
    # times 12 p^k (12 p on the Bernoulli route) would take 40, 11 and 8
    import cuspidal.classgroup as cg

    calls = []
    norms_mod = cg._norms_mod

    def spy(f, ell, h):
        calls.append(ell)
        return norms_mod(f, ell, h)

    monkeypatch.setattr(cg, "_norms_mod", spy)
    counts = []
    for p, k in ((7, 3), (13, 2)):
        calls.clear()
        orbit_norms(theta_prime_row(CartanContext.create(p, k)))
        counts.append(len(calls))
    calls.clear()
    bernoulli_formula_k1(101)
    counts.append(len(calls))
    assert counts == [24, 6, 5]


def test_theta_prime_and_bernoulli_rows_are_primitive(monkeypatch):
    # orbit_norms divides out no content: every row it is given has gcd 1
    import cuspidal.classgroup as cg

    for p, k in NORM_LEVELS:
        assert math.gcd(*theta_prime_row(CartanContext.create(p, k))) == 1, (p, k)
    primes = [p for p, k in NORM_LEVELS if k == 1]
    orders = {p: order(CartanContext.create(p)) for p in primes}
    rows = []
    exact = cg.orbit_norms
    monkeypatch.setattr(cg, "orbit_norms", lambda f: rows.append(f) or exact(f))
    for p in primes:
        assert bernoulli_formula_k1(p) == orders[p], p
        # enumerated pair by pair, the row is theta''s at m = p, index for index
        assert list(rows[-1]) == list(theta_prime_row(CartanContext.create(p))), p
    assert len(rows) == len(primes) == 24
    assert all(math.gcd(*row) == 1 for row in rows)


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
    assert theta_prime_row(ctx) == (-3, -2)


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
        base, alt = CartanContext.create(p), context_with_generator(p, 1, w2)
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


@pytest.mark.parametrize("n", [1, 2, 3, 41, 50, 53, 64, 78, 147])
def test_circulant_eigenvalues_match_the_term_by_term_sums(n):
    # Bluestein's FFT against the O(n^2) sums, on random rows and on the
    # theta' rows of that size; n = 1, 2 and 64 are powers of two
    from cuspidal.classgroup import _dft, circulant_eigenvalues

    def close(got, want):
        return all(abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(got, want))

    rng = random.Random(n)
    for _ in range(3):
        row = [rng.uniform(-(10**6), 10**6) for _ in range(n)]
        values = _dft(row)
        assert len(values) == n
        assert close(values[1:] + values[:1], eigenvalues_by_sums(row))
    levels = {2: (5, 1), 3: (7, 1), 41: (83, 1), 50: (101, 1), 53: (107, 1),
              78: (13, 2), 147: (7, 3)}
    if n in levels:
        ctx = CartanContext.create(*levels[n])
        row = [float(x) for x in theta_prime_row(ctx)]
        assert close(circulant_eigenvalues(ctx), eigenvalues_by_sums(row))


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
    res = compute_class_group(13)
    assert res.order == 1183
    assert res.factored_str() == "7 * 13^2"
    assert res.invariant_factors is None
    assert math.prod(structure(CartanContext.create(13))) == 1183
    assert res.genus == 3 and res.cusps == 6
    assert res.epsilon == 7 and res.generator == 2


def test_json_round_trip():
    import json

    res = compute_class_group(17)
    res = res._replace(invariant_factors=structure(CartanContext.create(17)))
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


# ---------------------------------------------------------------------------
# Smith form modulo the lattice index

PRIMES_5_101 = [p for p in range(5, 102) if is_prime(p) is not Primality.COMPOSITE]
PRIME_POWER_LEVELS = [(5, 2), (7, 2), (5, 3), (11, 2), (13, 2)]


def unimodular(n, rng, steps=12):
    """A random integer matrix of determinant +-1, from elementary row moves."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(-3, 4)
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize("p,k", [(p, 1) for p in PRIMES_5_101] + PRIME_POWER_LEVELS)
def test_structure_equals_dense_snf(p, k):
    # the dense minimal-pivot snf of the whole lattice is the oracle
    ctx = CartanContext.create(p, k)
    want = tuple(d for d in snf(generator_matrix(ctx)) if d != 1)
    assert structure(ctx) == want
    assert lattice_index(ctx, ctx.n) % order(ctx) == 0


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2), (7, 2)])
def test_lattice_index_is_the_determinant_of_the_shift_rows(p, k):
    # T from the theta' orbit norms against the dense (w^j - 1) theta rows
    ctx = CartanContext.create(p, k)
    shift_rows = generator_matrix(ctx)[:-1]
    assert lattice_index(ctx, ctx.n) == abs(bareiss_det(shift_rows))


def test_snf_mod_matches_snf_on_random_lattices(monkeypatch):
    import cuspidal.components as co

    # count the two ways the kernel goes on when no unit is left: a
    # recursive call is a coprime split of the modulus, and a pivot search
    # below the call's own modulus follows a division by a common factor
    real_snf_mod, real_pivot = co.snf_mod, co._pivot_out_units
    moduli, paths = [], {"split": 0, "scale": 0}

    def snf_mod_spy(rows, m):
        paths["split"] += bool(moduli)
        moduli.append(m)
        try:
            return real_snf_mod(rows, m)
        finally:
            moduli.pop()

    def pivot_spy(rows, m):
        paths["scale"] += m != moduli[-1]
        return real_pivot(rows, m)

    monkeypatch.setattr(co, "snf_mod", snf_mod_spy)
    monkeypatch.setattr(co, "_pivot_out_units", pivot_spy)
    rng = random.Random(5)
    cases = 0
    while cases < 60:
        n = rng.randrange(2, 7)
        p = rng.choice([2, 3, 5, 7])
        q = rng.choice([999983, 1000003])  # primes above 10^6
        # p-parts with exponents up to 6, so the modulus p^s is raised past
        # 2, and squares of q, so one modulus holds q^2 next to other primes
        diag = [
            rng.choice([1, 1, 2, 3, p, p**2, p**3, p**6, 6 * p**2, q, q * q, 6 * q * q])
            for _ in range(n)
        ]
        core = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rows = matmul(matmul(unimodular(n, rng), core), unimodular(n, rng))
        rows.append([rng.randrange(-50, 51) for _ in range(n)])  # one more row
        det = abs(bareiss_det(rows[:-1]))
        want = snf(rows)
        assert co.snf_mod(rows, det) == want
        # any multiple of the index also lies in the row span, among them
        # products of coprime parts and squares of a prime above 10^6
        for extra in (p**3 * 35, q * q, 999983**2 * 1000003**2 * 6):
            assert co.snf_mod(rows, det * extra) == want
        cases += 1
    assert paths["split"] > 0 and paths["scale"] > 0, paths


def test_snf_mod_column_reached_by_no_row_takes_the_full_exponent():
    # the second column is 0 in every row: its factor is the modulus p^e M
    assert snf_mod([[1, 0], [0, 0]], 11**3 * 6) == (1, 11**3 * 6)
    assert snf_mod([[11, 0], [0, 11**3]], 11**3) == (11, 11**3)


def test_euclid_mod_matches_snf_mod_on_random_rows(monkeypatch):
    import cuspidal.components as co

    # count the ways Euclid goes on at a non-unit leading coefficient: a
    # part below the modulus is a coprime split, and snf_mod is the no-split
    # path; snf_mod's own calls, which share the module, are not counted
    real_part, real_snf_mod = co.part_with_primes_of, co.snf_mod
    paths = {"split": 0, "no split": 0}

    def from_euclid():
        return sys._getframe(2).f_code is co.euclid_mod.__code__

    def part_spy(m, x):
        part = real_part(m, x)
        paths["split"] += part < m and from_euclid()
        return part

    def snf_mod_spy(block, m):
        paths["no split"] += from_euclid()
        return real_snf_mod(block, m)

    monkeypatch.setattr(co, "part_with_primes_of", part_spy)
    monkeypatch.setattr(co, "snf_mod", snf_mod_spy)
    rng = random.Random(15)
    for case in range(40):
        n = rng.choice([6, 8, 9, 10, 12, 15])
        f = [rng.randrange(-30, 31) for _ in range(n)]
        d = rng.choice([d for d in range(3, n + 1) if n % d == 0])
        deg = sum(math.gcd(i, d) == 1 for i in range(d))  # of Phi_d
        q = rng.choice([999983, 1000003])  # primes above 10^6
        if case % 2:
            # F of degree below phi(d) is its own remainder; its leading
            # coefficient is divisible by q once, and q^2 divides the modulus
            f = [rng.randrange(-30, 31) for _ in range(deg - 1)]
            f += [q * rng.randrange(1, 30)] + [0] * (n - len(f) - 1)
        phi, r = co.orbit_blocks(f)[d]
        block = block_matrix(phi, r)
        det = abs(bareiss_det(block))
        for m in (det, det * 35, det * q * q, q * q * 6, q * q, 2**5 * 3**4):
            want = real_snf_mod(block, m)
            assert co.euclid_mod(phi, r, m) == want, (f, d, m)
    assert paths["split"] > 0 and paths["no split"] > 0, paths


def degree_zero_lattice(v):
    """Rows (w^j - 1) v, j = 1..n-1, and v, in the basis {w^i - 1} of I."""
    n = len(v)
    rows = [[v[i - j] - v[i] for i in range(1, n)] for j in range(1, n)]
    return rows + [v[1:]]


def cyclic_mul(a, b):
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[(i + j) % n] += x * y
    return out


# n = 605 at 11^3 and 1014 at 13^3 take the whole-lattice oracle minutes
P_PART_LEVELS = [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2), (11, 2), (13, 2), (5, 3), (7, 3)]


@pytest.mark.parametrize("p,k", P_PART_LEVELS)
def test_p_part_mod_matches_the_whole_lattice_p_part(p, k):
    # the character split against snf_mod on the n x (n-1) lattice of a
    # random degree-zero v: products of w^g - 1, of (w^m - 1)^b (y - 1 in
    # every component, so p-torsion past p), of w^q - 1 (0 in component 0)
    # and of powers of p, plus a random degree-zero tail
    from cuspidal.components import p_part_mod

    ctx = CartanContext.create(p, k)
    n, m = ctx.n, (p - 1) // 2
    rng = random.Random(p * 10 + k)

    def shift_minus_one(g):
        e = [0] * n
        e[0] -= 1
        e[g % n] += 1
        return e

    for case in range(3):
        v = [rng.randrange(-5, 6) for _ in range(n)]
        factors = [shift_minus_one(rng.randrange(1, n))]
        if k > 1:  # w^m = 1 at k = 1
            factors += [shift_minus_one(m)] * rng.randrange(1, 3)
        if case == 2:
            factors.append(shift_minus_one(n // m))
        for e in factors:
            v = cyclic_mul(v, e)
        c = p ** rng.randrange(2)
        v = [c * x for x in v]
        if case == 1:
            tail = [rng.randrange(-2, 3) * p**2 for _ in range(n)]
            tail[0] -= sum(tail)
            v = [x + y for x, y in zip(v, tail)]
        assert sum(v) == 0
        rows = degree_zero_lattice(v)
        for s in (1, 2, 5):
            assert p_part_mod(v, p, ctx.w, p**s) == snf_mod(rows, p**s), (case, s)


def test_structure_rejects_a_doubled_lattice_row(monkeypatch):
    # structure() reads the lattice rows only in the C_m quotient (the whole
    # lattice at k = 1); a doubled shift row leaves L + T Z^(m-1) unchanged
    # wherever T is odd, so only the determinant check can see it, and
    # structure must not return the order
    import cuspidal.components as co

    real = co.lattice_rows

    def doubled(t, d_row):
        rows = real(t, d_row)
        rows[0] = [2 * x for x in rows[0]]
        return rows

    monkeypatch.setattr(co, "lattice_rows", doubled)
    for p, k in [(11, 1), (13, 1), (19, 1), (5, 2), (7, 2)]:
        ctx = CartanContext.create(p, k)
        try:
            got = math.prod(structure(ctx))
        except InvariantViolation:
            continue
        assert got != order(ctx), (p, k)


@pytest.mark.parametrize("p,k", [(5, 3), (13, 2), (7, 3)])
def test_quotient_index_is_the_determinant_of_the_quotient_shift_rows(p, k):
    # T_0 from the orbit norms with d | m against the dense (w^j - 1) pi(theta)
    # rows of the C_m quotient; it divides T
    from cuspidal.components import lattice_rows

    ctx = CartanContext.create(p, k)
    m = (p - 1) // 2
    t0 = lattice_index(ctx, m)
    assert t0 == abs(bareiss_det(lattice_rows(theta_image(ctx, m), d_theta_row(ctx, m))[:-1]))
    assert lattice_index(ctx, ctx.n) % t0 == 0


def test_structure_rejects_a_cofactor_sharing_a_prime_with_the_rest_of_t_s(monkeypatch):
    # at 17^2 the rest of T_S is 192 = 2^6 3; a norm N_d with p | d doubled
    # doubles T/T_0 and leaves T_0, so the gcd check must stop structure()
    # before the orbit blocks see the wrong norm
    import cuspidal.classgroup as cg

    ctx = CartanContext.create(17, 2)
    real = dict(cg.theta_prime_norms(ctx))
    d = next(d for d in real if d % 17 == 0)
    monkeypatch.setattr(cg, "theta_prime_norms", lambda c: {**real, d: 2 * real[d]})
    with pytest.raises(InvariantViolation, match=r"gcd\(T/T_0, rest of T_S\) > 1"):
        structure(ctx)


def test_structure_at_7_cubed():
    # pinned from the dense minimal-pivot snf (about 50 s there); the product
    # is the order, whose largest invariant factor has 300 digits
    ctx = CartanContext.create(7, 3)
    big = int(
    "957622899072865789699129177684196737597722620573874991003304731162379203"
    "503558018609663001914365345227482970999382159644518876096789337666606222"
    "543942094572863936858679677471102369544449033659640832896750018357784041"
    "379550676176376617438009142706693723562357441054164536749692999297665843"
    "400943969597"
    )
    want = (7,) * 77 + (49,) * 49 + (343,) * 14 + (2401, big)
    got = structure(ctx)
    assert got == want
    assert math.prod(got) == order(ctx)


def test_structure_at_17_squared():
    # pinned from the full-lattice Smith form modulo T (about 5 s there)
    ctx = CartanContext.create(17, 2)
    big = (
        int(
    "978584414077043167375528197438316646666034483515697910098646812521831263"
    "3333801636970639328909245129524360798556127312462385949701101202"
        ),
        int(
    "117430129689245180085063383692597997599924138021883749211837617502619751"
    "600005619643647671946910941554292329582673527749548631396413214424"
        ),
    )
    want = (17,) * 122 + (289, 289, 29767, 506039) + big
    got = structure(ctx)
    assert got == want
    assert math.prod(got) == order(ctx)


def test_structure_at_19_squared():
    # pinned from the full-lattice Smith form modulo T (about 14 s there)
    ctx = CartanContext.create(19, 2)
    big = int(
    "372954128607535728525831287876617195461052863695614913889039613328831297"
    "664339807181403247554830931479099552701093595367622597352295577059067643"
    "082393631574608564753472860002586434733775562243801736839495030570995303"
    "949450064716660202555444386497339226474105928584222025554046578240354274"
    "085440099155382483021377596377360581592862161371218132813910010549203643"
    "9761212191"
    )
    want = (19,) * 152 + (361,) * 5 + (6859, 253783, big)
    got = structure(ctx)
    assert got == want
    assert math.prod(got) == order(ctx)


def test_structure_at_5_to_the_4th():
    # pinned from the p-local and dense-fallback Smith forms before the one
    # kernel over Z/m (about 7 s); n = 250
    ctx = CartanContext.create(5, 4)
    big = int(
    "105952963073810165596344441674648456372066877662061295468330407524880661"
    "561804651962296637699868416820420616622345357896714089018798587516594207"
    "415716270745022548983509597460383911850616855350771878120475010293999611"
    "767877618017720592017155423163437758847208854253893967207255022518186005"
    "633815625"
    )
    want = (5,) * 48 + (25,) * 152 + (125,) * 28 + (625,) * 12 + (3125,) * 6 + (big, big)
    got = structure(ctx)
    assert got == want
    assert math.prod(got) == order(ctx)


def test_structure_at_23_squared():
    # pinned from the whole-lattice p-part and the Smith forms of the orbit
    # blocks modulo M_d, before the Euclid and character routes (about 60 s
    # there); n = 253
    ctx = CartanContext.create(23, 2)
    big = int(
    "203987632826430894532395000758625311780742374989519461390061349941638534"
    "359389270284731047737949552304154423370687504314358004329982413072676269"
    "053421811553110209771863016435136678735849479192389082753762867187221726"
    "798259744153380365384153118833832432567757581596214496081577374321100155"
    "931911117249776469794266704197817882595373634337246420697008447864036688"
    "157764602495842641600502550783115626917272798325947570298932114811139043"
    "343624865214899644763294886011468597148922631017077825245103713829243091"
    "892323966099979256368105605520665761099599097166333607823157325223607838"
    "7088665363463184639160128015275988073"
    )
    want = (23,) * 230 + (529,) * 6 + (12167,) * 3 + (big,)
    got = structure(ctx)
    assert got == want
    assert math.prod(got) == ORDER_23_SQUARED


def test_structure_at_29_squared():
    # pinned from the whole-lattice Smith form modulo the rest of T_S, before
    # the C_m quotient (about 10 s there); n = 406
    ctx = CartanContext.create(29, 2)
    big = (
        int(
    "231128146570290782479639263898062287930790919604843830282283710636956026"
    "503677328341446369114951614495499137601912672151352226534420653521809626"
    "155957842741167651179099411850070444116024370585992866152167088630139662"
    "460033698415798672173134691655782974545709562023668939095677040246924982"
    "107447614201091203184175866256128676278414557310904519735850132080431750"
    "999471429941363429475978938157869570697573858059361329867884451480491618"
    "227190174186362775629878780262329543149011883188116859486382157839486788"
    "72073027776212347625457449794166831640348399242538"
        ),
        int(
    "566263959097212417075116196550252605430437753031867384191595091060542264"
    "934009454436543604331631455513972887124686046770812955009330601128433584"
    "082096714715860745388793559032672588084259707935682522072809367143842173"
    "027082561118706746824179994556668287636988426957988900784408748604966206"
    "163246654792673447801230872327515256882115665411716073352832823597057789"
    "948705003356340402216148398486780448209055952245435258176316906127204464"
    "656615926756588800293203011642707380715079113810886305741636286706742632"
    "3657891805172025168237075199570873751885357814421810"
        ),
    )
    want = (29,) * 380 + (841,) * 6 + (48778,) * 4 + big
    got = structure(ctx)
    assert got == want
    assert math.prod(got) == order(ctx)


def test_structure_at_37_squared():
    # pinned from structure() while each orbit block was still checked by
    # eliminating its phi(d) x phi(d) matrix (about 5 s there); n = 666, with
    # blocks up to phi(d) = 216, out of the dense oracle's reach
    ctx = CartanContext.create(37, 2)
    big = (
        int(
    "135128650614795283695556514689212020302425950423471943540839601525523161"
    "700255875852193172321966117098466535062276729611127682783475847229226581"
    "212004045352018722559701769414394806785813429392839061215846772386642432"
    "704427777524387225899270303098591080051300904860247297805446844452092553"
    "697292920405343656226031478310178562916701654437191750158014327457279922"
    "412440785050469965980851700521211472193741653849122875288352280475709805"
    "698894390394519314008203607709854561933394191924597459940760179890483223"
    "966315374135432734809753047744623537799448384420232598859178350301212725"
    "219533112195423667224895783767850508509824992033390591921834055681904552"
    "938149096782904210077626856195440154132257938404057479066507675142231146"
    "372275329177021266415631809773605828529071748046717455750522154340555546"
    "936990412862305295980656436094200616971668892137748947334192408974757033"
    "400472619051931416536785568362888473053682912334206794853934911631875977"
    "121981561351096223325913374751656646069561558589791156241365490256658315"
    "7358088367"
        ),
        int(
    "121615785553315755326000863220290818272183355381124749186755641372970845"
    "530230288266973855089769505388619881556049056650014914505128262506303923"
    "090803640816816850303731592472955326107232086453555155094262095147978189"
    "433984999771948503309343272788731972046170814374222568024902160006883298"
    "327563628364809290603428330479160706625031488993472575142212894711551930"
    "171196706545422969382766530469090324974367488464210587759517052428138825"
    "129004951355067382607383246938869105740054772732137713946684161901434901"
    "569683836721889461328777742970161184019503545978209338973260515271091452"
    "697579800975881300502406205391065457658842492830051532729650650113714097"
    "644334187104613789069864170575896138719032144563651731159856907628008031"
    "735047796259319139774068628796245245676164573242045710175469938906499992"
    "243291371576074766382590792484780555274502002923974052600773168077281330"
    "060425357146738274883107011526599625748314621100786115368541420468688379"
    "409783405215986600993322037276490981462605402730812040617228941230992484"
    "16222795303"
        ),
    )
    want = (37,) * 632 + (1369,) * 8 + (50653,) * 5 + (962407,) + big
    got = structure(ctx)
    assert got == want
    assert math.prod(got) == order(ctx)


BLOCK_LEVELS = [(13, 1), (101, 1), (7, 2), (13, 2)]


def _primes_of_6pn(ctx):
    n, primes = ctx.n, {2, 3, ctx.p}
    primes |= {q for q in range(2, n + 1) if n % q == 0 and is_prime(q) is Primality.PROVEN}
    return primes


@pytest.mark.parametrize("p,k", BLOCK_LEVELS)
def test_structure_rejects_a_scaled_orbit_block_row(monkeypatch, p, k):
    # F mod Phi_d, row 0 of the block matrix, times a prime l outside 6pn
    # and T leaves the block's factors modulo M_d unchanged; only its
    # resultant shows it
    import cuspidal.components as co

    ctx = CartanContext.create(p, k)
    index = lattice_index(ctx, ctx.n)
    bad = _primes_of_6pn(ctx)
    ell = next(q for q in range(5, 1000) if is_prime(q) is Primality.PROVEN
               and q not in bad and index % q)
    real = co.orbit_blocks
    d = max(real(theta_prime_row(ctx)))

    def scaled(f):
        blocks = real(f)
        phi, r = blocks[d]
        blocks[d] = phi, [ell * x for x in r]
        return blocks

    monkeypatch.setattr(co, "orbit_blocks", scaled)
    with pytest.raises(InvariantViolation):
        structure(ctx)


@pytest.mark.parametrize("p,k", BLOCK_LEVELS)
def test_structure_rejects_a_wrong_orbit_norm(monkeypatch, p, k):
    import cuspidal.classgroup as cg

    ctx = CartanContext.create(p, k)
    real = dict(cg.theta_prime_norms(ctx))
    for d in real:
        if d == 1:
            continue
        for wrong in (7 * real[d], real[d] + 1, -real[d]):
            norms = {**real, d: wrong}
            monkeypatch.setattr(cg, "theta_prime_norms", lambda c: norms)
            try:  # structure must raise or fail the order check
                got = math.prod(structure(ctx))
                want = order(ctx)
            except InvariantViolation:
                continue
            assert got != want, (p, k, d, wrong)


@pytest.mark.parametrize("p,k", [(5, 3), (11, 2), (13, 2), (7, 3)])
def test_structure_builds_no_n_row_matrix(monkeypatch, p, k):
    # at k >= 2 every Smith form and determinant in structure() is taken on
    # a component: a q-row character block, a Euclid hand-off of at most
    # phi(d) rows or the m-row C_m quotient, never the n - 1 shift rows of
    # the whole lattice; and the only determinant is that of the m - 1
    # quotient shift rows, the orbit blocks being checked by resultants
    import cuspidal.classgroup as cg
    import cuspidal.components as co

    ctx = CartanContext.create(p, k)
    sizes = {"snf_mod": [], "_det_mod": []}

    def never(ctx):
        raise AssertionError("structure() called generator_matrix")

    def spy(real, seen):
        return lambda rows, m: seen.append(len(rows)) or real(rows, m)

    monkeypatch.setattr(cg, "generator_matrix", never)
    for name, seen in sizes.items():
        monkeypatch.setattr(co, name, spy(getattr(co, name), seen))
    assert math.prod(structure(ctx)) == order(ctx)
    every = sizes["snf_mod"] + sizes["_det_mod"]
    assert max(every) < ctx.n - 1, (max(every), ctx.n)
    assert sizes["_det_mod"] == [(ctx.p - 1) // 2 - 1], sizes["_det_mod"]


# pinned from the Bareiss-block orbit norms (about 60 s there); n = 253
ORDER_23_SQUARED = int(
    "126850060483915077087990263992859861684383541038616309410930077827097584"
    "596206181897175163024296654174570264744725817639789411810642747327818664"
    "626444427648276351600781272973118152552158567305635712121734017131770405"
    "313688132884660030881912944558524883098638583552634710010089307282014288"
    "248745320720854745011530335291689796117056908234387056445958462235164511"
    "753515266170095576205735914911495046888819613855915675974035361994102820"
    "332291937574045900315250253221070487668449574570220387661700275116101770"
    "267529719028647137699961331749735155428538129195361424054969081867937694"
    "473294725728204485579317533459516000517728146118992279165836012363924286"
    "670424111130064929504870164805113995848466520121044693887999884581556229"
    "971068510001978695909772339207916714730473198537491867500048192257352621"
    "919062459222082712011232378674384830813802852014922374011899121189846924"
    "434760795269491352662907940100079561626856555662756908380742354088438014"
    "0398181570066983071"
)


def test_order_at_23_squared():
    assert order(CartanContext.create(23, 2)) == ORDER_23_SQUARED


def test_order_at_11_cubed():
    # pinned from the order computed with the bucket sums of the dense norm
    # partition (about 7 s there); n = 605, the largest level tested
    want = int(
        "257505223564551908187444898642886178994320027687038074675975073738519350"
        "847480478061320467351268334276151555131780885411004463717279943648618793"
        "797352497085721687237160739122779792522765301049474203493548445338997226"
        "843709976006529270035321065378367569806567983157118176434814292906446720"
        "271678942222800078960850028876008539918756965917332003438866674123689499"
        "988187101965939493430639197078200848310665155951432353422436898212875321"
        "982984945584751446077061294235914738343061202840642448514319954600449264"
        "808130664400893686616082972508662274167852027770743342802486729425555268"
        "014255409454830607418447382100264235403494752052642161893112096960635056"
        "512998904813925228406452357528272840576438298296047570641622057403713894"
        "670686308105126865236323463781782251456342706702370441229385834822243645"
        "137602191776771352413736744611617232167311419027937654345730847729825317"
        "625731759552540311357554597162383394551050090550685275071408803530847251"
        "412097824008160973834714627853077906430616173419803947042206217098531246"
        "658359924256425253778482934027509904153746830993146024172265247157010939"
        "288575316874459763873541299758525780573129992608358478682526803589363218"
        "086201476060450104367135458068395291954238386296799185368847404025251917"
        "103693478299626707262460319221818472369918282359446731480916190881317812"
        "343325913918956012499731003475065484469569440155320361880194385096547404"
        "898684724199279291525715890863925730362722829339091113272212519753119074"
        "694987414431759021522006884114278816148462225611843233845040358142581865"
        "717578610105737472566647785747934157901360025949522476010088258710187982"
        "291644952487133396526049049003568876984386803685610905876832495064394762"
        "404240454894116156186262808875584310601027861845680807266065301132975631"
        "695225093331765089169358263646338445558626155077136289885776238936790907"
        "365256075517964959728250658299231787164660961622489912651019025136524709"
        "404681611908785946097868952842407130830182117416595491818659907781201394"
        "259015061524570601624871742601242621203921482142242478479583863591063503"
        "681889881606815302816738914154684879097118577434503814332572192685045000"
        "661739824987092132097079214756830915281064221355411045209802856033017539"
        "894486017869987038996964995090487993722961540062294226397997217585997213"
        "149620901126519110318512871909985207567779082272327126319164624832011589"
        "006276135071548589247790819254717052072985720701757273714470499102199805"
        "552152505277162590507950380272752933793798259346143994930480747093787885"
        "384354918262211911001571332582479765305625625038246952102233076761088324"
        "311585284739141138167035394962424319417851473427093544745711805480762010"
        "969760118201272571490556864151849627670751175735103324443198038846369934"
        "810695639624872135843538915587173199271025470418954086912604248340469629"
        "98368310971"
    )
    assert order(CartanContext.create(11, 3)) == want


ORDER_13_SQUARED = (
    7 * 13**78 * 53**2 * 79**4 * 1249**2 * 7151**2 * 19199607103951**2
    * 35772957575456089**2 * 292252642963019318269**2
)


@pytest.mark.parametrize("p,k", [(13, 2), (101, 1)])
def test_order_enumerates_no_class(no_class_enumeration, p, k):
    want = ORDER_13_SQUARED if k == 2 else reference_order(p)
    assert order(CartanContext.create(p, k)) == want


@pytest.mark.parametrize("p,k", [(5, 1), (13, 2), (7, 3)])
def test_order_path_builds_no_group_ring_fraction(no_group_ring_fractions, p, k):
    # order, structure and the float check read theta_prime_row alone
    ctx = CartanContext.create(p, k)
    assert math.prod(structure(ctx)) == order(ctx)
    assert float_crosscheck(ctx)


def test_table_builds_no_group_ring_fraction(capsys, no_group_ring_fractions):
    from cuspidal.cli import main

    assert main(["table", "--pmax", "23"]) == 0
    assert "7 * 13^2" in capsys.readouterr().out
