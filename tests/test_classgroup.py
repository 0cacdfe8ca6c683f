import itertools
import math
import random

import pytest

from cuspidal.arith import Primality, is_prime
from cuspidal.cartan import CartanContext
from cuspidal.classgroup import (
    ClassGroupResult,
    _crt_primes,
    _norm_bound,
    _values_mod,
    bernoulli_formula_k1,
    circulant_theta_prime,
    compute_class_group,
    float_crosscheck,
    generator_matrix,
    lattice_index,
    orbit_norms,
    order,
    snf,
    snf_mod,
    structure,
)
from cuspidal.errors import InvariantViolation
from cuspidal.reference import reference_order
from cuspidal.stickelberger import d_value, stickelberger_data, theta
from oracles import bareiss_det, block_norms

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


NORM_LEVELS = [
    (p, 1) for p in range(5, 102) if is_prime(p) is not Primality.COMPOSITE
] + [(5, 2), (7, 2), (5, 3), (11, 2), (13, 2), (7, 3), (19, 2)]


@pytest.fixture(scope="module")
def level_norms():
    """(p, k) -> (theta' row, Bareiss-block norms), computed once: 19^2
    alone takes about 2 s in the oracle."""
    out = {}
    for p, k in NORM_LEVELS:
        first = circulant_theta_prime(CartanContext.create(p, k))
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

    first = circulant_theta_prime(CartanContext.create(7, 3))
    monkeypatch.setattr(cg, "_norm_bound", lambda f, d, phi: 1)
    with pytest.raises(InvariantViolation):
        orbit_norms(first)


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
    assert lattice_index(ctx) % order(ctx) == 0


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2), (7, 2)])
def test_lattice_index_is_the_determinant_of_the_shift_rows(p, k):
    # T from the theta' orbit norms against the dense (w^j - 1) theta rows
    ctx = CartanContext.create(p, k)
    shift_rows = generator_matrix(ctx)[:-1]
    assert lattice_index(ctx) == abs(bareiss_det(shift_rows))


def test_snf_mod_matches_snf_on_random_lattices():
    rng = random.Random(5)
    cases = 0
    while cases < 30:
        n = rng.randrange(2, 7)
        p = rng.choice([2, 3, 5, 7])
        # p-parts with exponents up to 6, so the modulus p^s is raised past 2
        diag = [rng.choice([1, 1, 2, 3, p, p**2, p**3, p**6, 6 * p**2]) for _ in range(n)]
        core = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        rows = matmul(matmul(unimodular(n, rng), core), unimodular(n, rng))
        rows.append([rng.randrange(-50, 51) for _ in range(n)])  # one more row
        det = abs(bareiss_det(rows[:-1]))
        want = snf(rows)
        assert snf_mod(rows, det, p) == want
        # any multiple of the index also lies in the row span
        assert snf_mod(rows, det * p**3 * 35, p) == want
        cases += 1


def test_snf_mod_column_reached_by_no_row_takes_the_full_exponent():
    # the second column is 0 in every row: its factor is the modulus p^e M
    assert snf_mod([[1, 0], [0, 0]], 11**3 * 6, 11) == (1, 11**3 * 6)
    assert snf_mod([[11, 0], [0, 11**3]], 11**3, 11) == (11, 11**3)


def test_structure_rejects_a_doubled_lattice_row(monkeypatch):
    # a doubled row leaves L + T Z^(n-1) unchanged wherever T is odd, so only
    # the determinant check can see it; structure must not return the order
    import cuspidal.classgroup as cg

    real = cg.generator_matrix

    def doubled(ctx):
        rows = real(ctx)
        rows[0] = [2 * x for x in rows[0]]
        return rows

    monkeypatch.setattr(cg, "generator_matrix", doubled)
    for p, k in [(11, 1), (13, 1), (19, 1), (5, 2), (7, 2)]:
        ctx = CartanContext.create(p, k)
        try:
            got = math.prod(structure(ctx))
        except InvariantViolation:
            continue
        assert got != order(ctx), (p, k)


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


BLOCK_LEVELS = [(13, 1), (101, 1), (7, 2), (13, 2)]


def _primes_of_6pn(ctx):
    n, primes = ctx.n, {2, 3, ctx.p}
    primes |= {q for q in range(2, n + 1) if n % q == 0 and is_prime(q) is Primality.PROVEN}
    return primes


@pytest.mark.parametrize("p,k", BLOCK_LEVELS)
def test_structure_rejects_a_scaled_orbit_block_row(monkeypatch, p, k):
    # a block row times a prime l outside 6pn and T leaves the block's
    # factors modulo M_d unchanged; only its determinant shows it
    import cuspidal.classgroup as cg

    ctx = CartanContext.create(p, k)
    index = lattice_index(ctx)
    bad = _primes_of_6pn(ctx)
    ell = next(q for q in range(5, 1000) if is_prime(q) is Primality.PROVEN
               and q not in bad and index % q)
    real = cg.orbit_blocks
    d = max(real(circulant_theta_prime(ctx)))

    def scaled(f):
        blocks = real(f)
        blocks[d][0] = [ell * x for x in blocks[d][0]]
        return blocks

    monkeypatch.setattr(cg, "orbit_blocks", scaled)
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


@pytest.mark.parametrize("p,k", BLOCK_LEVELS)
def test_structure_takes_the_full_lattice_only_modulo_primes_of_6pn(monkeypatch, p, k):
    # the parts prime to 6pn come from the phi(d) x phi(d) blocks alone
    import cuspidal.classgroup as cg

    ctx = CartanContext.create(p, k)
    bad = _primes_of_6pn(ctx)
    real = cg._coprime_factors
    seen = []

    def spy(rows, m, ncols):
        if len(rows) == ctx.n:  # a block has phi(d) < n rows
            seen.append(m)
        return real(rows, m, ncols)

    monkeypatch.setattr(cg, "_coprime_factors", spy)
    structure(ctx)
    for m in seen:
        for q in bad:
            while m % q == 0:
                m //= q
        assert m == 1


def test_order_at_23_squared():
    # pinned from the Bareiss-block orbit norms (about 60 s there); n = 253
    want = int(
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
    assert order(CartanContext.create(23, 2)) == want


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
