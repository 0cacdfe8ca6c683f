import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspidal.arith import (
    _MR_PROVEN_BASES,
    _chunk_products,
    _ecm_plan,
    _sieve,
    _small_primes,
    _strong_probable_prime,
    DEFAULT_RHO_BUDGET,
    ECM_B2_BOUND,
    ECM_SCHEDULE,
    RHO_STAGE_STEPS,
    TRIAL_BOUND,
    TRIAL_CHUNK,
    Factorization,
    Primality,
    cyclic_product,
    factorize,
    iroot,
    is_prime,
    jacobi,
    legendre,
    packed_product,
)
from oracles import (
    assert_no_child_left,
    bernoulli2,
    ecm_plan_by_primes,
    factorize_prime_by_prime,
    frac_part,
    with_cpus,
)

rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
)


def trial_division(n):
    """Independent oracle: factor by dividing out 2, 3, 4, ... in order."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_frac_part_examples():
    assert frac_part(Fraction(7, 5)) == Fraction(2, 5)
    assert frac_part(Fraction(-1, 5)) == Fraction(4, 5)
    assert frac_part(3) == 0


@given(rationals)
def test_frac_part_range_and_integrality(x):
    f = frac_part(x)
    assert 0 <= f < 1
    assert (x - f).denominator == 1


def test_bernoulli2_examples():
    assert bernoulli2(0) == Fraction(1, 6)
    assert bernoulli2(Fraction(1, 5)) == Fraction(1, 150)


@given(rationals)
def test_bernoulli2_symmetry(t):
    assert bernoulli2(t) == bernoulli2(1 - t)


@pytest.mark.parametrize("m", [5, 7, 11, 25])
def test_bernoulli2_distribution_identity(m):
    total = sum(bernoulli2(Fraction(a, m)) for a in range(m))
    assert total == Fraction(1, 6 * m)


def test_legendre_examples():
    assert legendre(-1, 11) == -1
    assert legendre(-1, 5) == 1
    assert legendre(0, 7) == 0


def test_legendre_euler_vs_square_table():
    for p in (5, 7, 11, 13, 17, 101):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 9)
    with pytest.raises(ValueError):
        legendre(3, 2)


def test_jacobi_matches_legendre_on_primes():
    for p in (5, 13, 23):
        for a in range(p):
            assert jacobi(a, p) == legendre(a, p)


def test_is_prime_examples():
    assert is_prime(37181) is Primality.PROVEN
    assert is_prime(3025) is Primality.COMPOSITE
    assert is_prime(1) is Primality.COMPOSITE
    assert is_prime(0) is Primality.COMPOSITE
    assert is_prime(2) is Primality.PROVEN


def test_is_prime_small_exhaustive():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(2 * i, 2000, i):
                sieve[j] = False
    for n in range(2000):
        got = is_prime(n)
        assert (got is not Primality.COMPOSITE) == sieve[n], n


def test_is_prime_large():
    # 28 digits: beyond the deterministic bound, answered as probable
    assert is_prime(9988553613691393812358794271) is Primality.PROBABLE
    assert is_prime(13070849919225655729061) is Primality.PROVEN
    assert is_prime(9988553613691393812358794271 * 3) is Primality.COMPOSITE
    # strong pseudoprimes to base 2 must still be caught
    for n in (2047, 3277, 4033, 1373653, 3215031751):
        assert is_prime(n) is Primality.COMPOSITE


def test_is_prime_seven_bases_below_2_64():
    # a strong pseudoprime to every prime base up to 23
    assert is_prime(3825123056546413051) is Primality.COMPOSITE
    # the base divisors past trial division: a base = 0 (mod n) passes, so
    # the primes are proven and their product is left to the other bases
    for q in (73, 193, 407521, 299210837):
        assert is_prime(q) is Primality.PROVEN
    assert is_prime(14089) is Primality.COMPOSITE  # 73 * 193


def _thirteen_bases(n):
    return all(_strong_probable_prime(n, b) for b in _MR_PROVEN_BASES)


def _chernick_carmichaels(rng, count):
    """(6k+1)(12k+1)(18k+1) with all three factors prime, below 2^64."""
    def prime(m):
        return all(m % q for q in range(2, math.isqrt(m) + 1))

    out = []
    while len(out) < count:
        k = rng.randrange(1, 230_000)
        f = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(map(prime, f)):
            out.append(math.prod(f))
    return out


def test_is_prime_seven_bases_agree_with_thirteen():
    # on the first candidates l = 1 (mod 2n) below 2^62 that the orbit-norm
    # CRT walks, and on seeded odd n < 2^64 with Carmichael numbers among them
    cands = []
    for n in range(1, 201):
        step = 2 * n
        top = ((1 << 62) - 2) // step * step + 1
        cands += range(top, top - 40 * step, -step)
    rng = random.Random(64)
    cands += [rng.randrange(49, 1 << 64) | 1 for _ in range(2000)]
    cands += _chernick_carmichaels(rng, 20)
    for n in cands:
        if math.gcd(n, math.prod(_MR_PROVEN_BASES)) > 1:
            continue  # trial division answers these
        assert (is_prime(n) is Primality.PROVEN) == _thirteen_bases(n), n


def test_iroot():
    assert iroot(1, 5) == 1
    assert iroot(10**12, 2) == 10**6
    for n in (2, 26, 27, 28, 3124, 3125, 3126):
        r = iroot(n, 5)
        assert r**5 <= n < (r + 1) ** 5


def test_factorize_examples():
    assert str(factorize(1183)) == "7 * 13^2"
    assert factorize(1).entries == ()
    big = 58884077243434864347851
    f = factorize(big * big)
    assert [(e.prime, e.exponent) for e in f.entries] == [(big, 2)]


def test_factorize_reassembles_against_trial_division():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        f = factorize(n)
        assert f.value() == n
        assert [(e.prime, e.exponent) for e in f.entries] == trial_division(n)
        assert f.is_complete


@given(st.integers(min_value=1, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_factorize_reassembles(n):
    f = factorize(n)
    assert f.value() == n
    assert all(
        is_prime(e.prime) is not Primality.COMPOSITE for e in f.entries
    )
    primes = [e.prime for e in f.entries]
    assert primes == sorted(primes)


def test_factorize_budget_exhaustion_is_flagged():
    # two 12-digit primes: far beyond a tiny rho budget
    a, b = 1000000000039, 1000000000061
    f = factorize(a * b, rho_budget=50)
    assert not f.is_complete
    assert f.value() == a * b
    comp = [e for e in f.entries if e.certainty is Primality.COMPOSITE]
    assert comp and comp[0].prime == a * b
    # the unsplit cofactor is visibly bracketed, never shown as a prime
    assert str(f) == f"[{a * b}]"


P83_COFACTOR = (18934761332741, 48833370476331324749419)


def test_factorize_ecm_splits_the_p83_cofactor():
    # rho alone needed about 4 * 10^6 steps here; the rho stage gives up
    # and ECM splits it
    a, b = P83_COFACTOR
    f = factorize(a * b)
    assert [(e.prime, e.exponent, e.certainty) for e in f.entries] == [
        (a, 1, Primality.PROVEN),
        (b, 1, Primality.PROVEN),
    ]
    assert f.steps_used > RHO_STAGE_STEPS and not f.budget_exhausted
    # the same rho stage and the same curves as with the 10^6 trial bound
    assert f.steps_used == 472400


def _order(p, k):
    from cuspidal.cartan import CartanContext
    from cuspidal.classgroup import order

    return order(CartanContext.create(p, k))


# (the number, its budget, steps_used and budget_exhausted as one process
# gave them before ECM ran on several)
ECM_CASES = {
    # rho, then 6 curves at B1 = 2000 split the cofactor of the table's row
    "p = 83 order": (lambda: _order(83, 1), DEFAULT_RHO_BUDGET, 232570, False),
    "p = 83 cofactor": (lambda: math.prod(P83_COFACTOR), DEFAULT_RHO_BUDGET, 472400, False),
    # the 62-digit cofactor, with a budget spent after 13 of the 25 curves
    "11^2 order, budget out in ECM": (lambda: _order(11, 2), 400000, 396113, True),
    # (a b)(c e): three ECM phases, each drawing its sigmas where the one
    # before left the generator
    "two semiprimes": (
        lambda: math.prod(P83_COFACTOR) * 1000000000039 * 1000000000061,
        DEFAULT_RHO_BUDGET, 501756, False,
    ),
}


@pytest.mark.parametrize("case", list(ECM_CASES))
def test_factorize_is_the_same_on_any_cpu_count(monkeypatch, case):
    number, budget, steps, exhausted = ECM_CASES[case]
    n = number()
    results = []
    for cpus in (1, 2, 3):
        with_cpus(monkeypatch, cpus)
        results.append(factorize(n, rho_budget=budget))
        assert_no_child_left()
    assert results[0] == results[1] == results[2]
    f = results[0]
    assert (f.steps_used, f.budget_exhausted) == (steps, exhausted)
    assert f.value() == n and f.is_complete != exhausted


def test_a_dead_ecm_helper_fails_loudly_naming_its_curve(monkeypatch):
    from cuspidal import arith

    real = arith._ecm_curve
    sigmas = []

    def record(n, plan, sigma):
        sigmas.append(sigma)
        return real(n, plan, sigma)

    n = math.prod(P83_COFACTOR)
    with_cpus(monkeypatch, 1)
    monkeypatch.setattr(arith, "_ecm_curve", record)
    factorize(n)
    parent = os.getpid()

    def die_at_curve_2(n, plan, sigma):
        if sigma == sigmas[2] and os.getpid() != parent:
            os._exit(9)
        return real(n, plan, sigma)

    with_cpus(monkeypatch, 2)
    monkeypatch.setattr(arith, "_ecm_curve", die_at_curve_2)
    # curve 15 splits n, but curve 2 never reported
    with pytest.raises(RuntimeError, match="ECM curve 2 of 25 at B1 = 2000 .* without reporting"):
        factorize(n)
    assert_no_child_left()


def test_ecm_forks_nothing_while_another_thread_runs(monkeypatch):
    import threading

    def refuse():
        raise AssertionError("forked while another thread ran")

    with_cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", refuse)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        f = factorize(math.prod(P83_COFACTOR))
    finally:
        stop.set()
        thread.join(60)
    assert not thread.is_alive()
    assert [e.prime for e in f.entries] == list(P83_COFACTOR) and f.steps_used == 472400
    assert_no_child_left()


def test_ecm_plan_costs_are_pinned():
    # each curve's charge; the stage-2 primes up to min(100 B1, ECM_B2_BOUND)
    # come off the odd-only sieve, in the same giant steps as from a list
    assert [_ecm_plan(b1).cost for b1 in (2000, 11000, 50000)] == [25429, 122893, 430680]


@pytest.mark.parametrize("b1", [b1 for b1, _ in ECM_SCHEDULE])
def test_ecm_plan_from_flag_slices_matches_prime_by_prime(b1):
    # the cost is a function of these four fields, pinned above
    assert tuple(_ecm_plan(b1))[:4] == ecm_plan_by_primes(b1)


def test_factorize_splits_primes_above_the_trial_bound_by_rho():
    n = 65537 * 999983 * 524287**2
    f = factorize(n)
    assert [(e.prime, e.exponent, e.certainty) for e in f.entries] == [
        (65537, 1, Primality.PROVEN),
        (524287, 2, Primality.PROVEN),
        (999983, 1, Primality.PROVEN),
    ]
    assert f.steps_used > 0 and not f.budget_exhausted
    # with no budget, the part above 2^16 stays one flagged composite
    f = factorize(7 * n, rho_budget=0)
    assert f.budget_exhausted and f.steps_used == 0
    assert [(e.prime, e.exponent, e.certainty) for e in f.entries] == [
        (7, 1, Primality.PROVEN),
        (n, 1, Primality.COMPOSITE),
    ]


def test_factorize_budget_is_per_call():
    # three 12-digit primes need two ECM splits; a budget one step short of
    # what both cost leaves the second composite flagged, where a budget per
    # composite would have split it too
    a, b, c = 1000000000039, 1000000000061, 1000000000063
    full = factorize(a * b * c)
    assert full.is_complete and not full.budget_exhausted
    partial = factorize(a * b * c, rho_budget=full.steps_used - 1)
    assert partial.budget_exhausted and partial.steps_used < full.steps_used
    assert partial.value() == a * b * c
    flagged = [e.prime for e in partial.entries if e.certainty is Primality.COMPOSITE]
    proven = [e.prime for e in partial.entries if e.certainty is Primality.PROVEN]
    assert len(proven) == 1 and proven[0] in (a, b, c)
    assert flagged == [a * b * c // proven[0]]


def test_factorize_short_sieve_boundaries():
    # squares and products of primes just below and above powers of two, so
    # that trial division with the short sieve ends exactly at its bound
    near = [2, 3, 5, 7, 13, 17, 31, 37, 61, 67, 127, 131, 251, 257, 509, 521]
    near += [65521, 65537, 524287, 524309]
    for a in near:
        for b in near:
            n = a * b
            f = factorize(n)
            assert [(e.prime, e.exponent) for e in f.entries] == trial_division(n)
            assert all(e.certainty is Primality.PROVEN for e in f.entries)


def test_factorize_small_inputs_keep_the_trial_bound_sieve():
    # the caches also hold the short sieves and their products, so their
    # misses are counted too: after the small inputs, neither the
    # TRIAL_BOUND lookups nor an input that needs the full sieve may miss
    caches = (_small_primes, _chunk_products)
    assert _chunk_products.cache_info().maxsize == _small_primes.cache_info().maxsize
    for cache in caches:
        cache(TRIAL_BOUND)
    for n in range(2, 3000):
        factorize(n)
    misses = [cache.cache_info().misses for cache in caches]
    for cache in caches:
        cache(TRIAL_BOUND)
    factorize(2**61 - 1)
    assert [cache.cache_info().misses for cache in caches] == misses


def _naive_primes(bound):
    """Eratosthenes over every integer up to bound."""
    flags = bytearray([1]) * (bound + 1)
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes((bound - i * i) // i + 1)
    return tuple(i for i in range(2, bound + 1) if flags[i])


def test_sieve_matches_the_naive_sieve():
    bounds = [*range(401), *(1 << j for j in range(21)), TRIAL_BOUND, ECM_B2_BOUND]
    for bound in bounds:
        assert _sieve(bound) == _naive_primes(bound), bound


def _same_factorization(n, rho_budget):
    got = factorize(n, rho_budget=rho_budget)
    want = factorize_prime_by_prime(n, rho_budget=rho_budget)
    assert got == want, n
    assert got.value() == n
    return got


def test_factorize_matches_the_prime_by_prime_oracle():
    # entries, certainty, steps_used and budget_exhausted all equal: the
    # cofactor that reaches rho and ECM is the same, and so is the RNG stream
    rng = random.Random(300)
    primes = _small_primes(TRIAL_BOUND)
    exhausted = 0
    for _ in range(300):
        bits = rng.randrange(1, 301)
        n = 1
        for _ in range(rng.randrange(4)):
            n *= rng.choice(primes) ** rng.randrange(1, 3)
        if n.bit_length() < bits:
            n *= rng.getrandbits(bits - n.bit_length()) or 1
        exhausted += _same_factorization(n, rho_budget=500).budget_exhausted
    assert 0 < exhausted < 300  # both outcomes are exercised


def test_factorize_trial_division_edge_cases():
    primes = _small_primes(TRIAL_BOUND)
    top, above = primes[-1], 65537
    assert top == 65521 and _sieve(above)[-1] == above
    # the first and last prime of some chunks, their squares and neighbours:
    # those of the trial bound's chunks, and those of the 10^6 sieve's, whose
    # primes above 2^16 now reach rho
    large = _sieve(10**6)
    assert large[-1] == 999983 and _sieve(1000003)[-1] == 1000003
    edges = []
    for sieve in (primes, large):
        last = len(sieve) // TRIAL_CHUNK
        for c in (0, 1, 2, last // 2, last):
            lo = c * TRIAL_CHUNK
            hi = min(lo + TRIAL_CHUNK, len(sieve)) - 1
            edges += [sieve[lo], sieve[hi]]
    cases = [*edges, *(q * q for q in edges)]
    cases += [a * b for a, b in zip(edges, edges[1:])]
    cases += [top * top, top * above, 7 * above, above * above]
    cases += [999983 * 999983, 999983 * 1000003, 7 * 999983, 1000003 * 1000003]
    cases += [2**j * 1000003 for j in range(1, 12)]
    cases += [3**j * 1000003 for j in range(1, 8)]
    cases += [2**j * 3**j * 1000003**2 for j in range(1, 5)]
    for n in cases:
        f = _same_factorization(n, rho_budget=10**5)
        assert [(e.prime, e.exponent) for e in f.entries] == trial_division(n)
        assert all(e.certainty is Primality.PROVEN for e in f.entries)


@pytest.mark.parametrize(
    "argv",
    [["order", "-p", "7", "-k", "3"], ["verify", "-p", "13", "-k", "2", "--structure"]],
)
def test_order_and_verify_never_request_the_trial_bound_sieve(argv, monkeypatch, capsys):
    from cuspidal import arith
    from cuspidal.cli import main

    requested = set()

    def spy(cache):
        def lookup(bound):
            requested.add(bound)
            return cache(bound)

        return lookup

    monkeypatch.setattr(arith, "_small_primes", spy(arith._small_primes))
    monkeypatch.setattr(arith, "_chunk_products", spy(arith._chunk_products))
    assert main(argv) == 0
    capsys.readouterr()
    assert requested and TRIAL_BOUND not in requested


def test_table_sieves_nothing_above_the_first_stage_2_bound(monkeypatch, capsys):
    # trial division stays within TRIAL_BOUND, and only the p = 83 row
    # reaches ECM, at its first level: the one sieve beyond 2^16 is B2 = 100 B1
    from cuspidal import arith
    from cuspidal.cli import main

    requested = []
    sieved = []

    def spy(cache, seen):
        def lookup(bound):
            seen.append(bound)
            return cache(bound)

        return lookup

    monkeypatch.setattr(arith, "_small_primes", spy(arith._small_primes, requested))
    monkeypatch.setattr(arith, "_chunk_products", spy(arith._chunk_products, requested))
    monkeypatch.setattr(arith, "_odd_flags", spy(arith._odd_flags, sieved))
    _ecm_plan.cache_clear()
    # the spies see only this process: it runs every row and every curve
    with_cpus(monkeypatch, 1)
    assert main(["table", "--pmax", "101"]) == 0
    capsys.readouterr()
    b2 = 100 * arith.ECM_SCHEDULE[0][0]
    assert requested and max(requested) <= TRIAL_BOUND
    assert max(sieved) == b2 == 200000


def test_factorize_formatting():
    assert str(factorize(2**6 * 5 * 7**2)) == "2^6 * 5 * 7^2"
    assert str(factorize(1)) == "1"


def test_factorization_value_roundtrip():
    f = factorize(2**4 * 3 * 17**3)
    assert isinstance(f, Factorization)
    assert f.value() == 2**4 * 3 * 17**3


def test_certainty_flags():
    big_probable = 9988553613691393812358794271  # 28 digits
    f = factorize(59**14 * big_probable)
    flags = {e.prime: e.certainty for e in f.entries}
    assert flags[59] is Primality.PROVEN
    assert flags[big_probable] is Primality.PROBABLE
    assert f.is_complete


@pytest.mark.parametrize("la,lb", [(1, 1), (3, 5), (40, 40)])
def test_packed_product_is_the_polynomial_product(la, lb):
    rng = random.Random(la * 100 + lb)
    a = [rng.randrange(2**64) for _ in range(la)]
    b = [rng.randrange(2**64) for _ in range(lb)]
    b[-1] = 2**64 - 1  # a full top slot
    want = [0] * (la + lb)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    width = (max(want).bit_length() + 7) // 8
    assert packed_product(a, b, width) == want
    assert packed_product(a, b, width + 3) == want


@pytest.mark.parametrize("sign", [1, -1])
def test_cyclic_product_is_the_schoolbook_product_modulo_x_n_minus_sign(sign):
    # random nonnegative vectors of 1 to 130 bits and an all-zero vector, on
    # either side: with a zero vector the product is 0, and the slot width
    # must still hold every entry of the other one
    def schoolbook(a, b):
        n = len(a)
        out = [0] * n
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[(i + j) % n] += x * y if i + j < n else sign * x * y
        return out

    rng = random.Random(sign)
    for n in (1, 2, 7, 30):
        vectors = [[rng.randrange(2**bits) for _ in range(n)] for bits in (1, 8, 64, 130)]
        vectors.append([0] * n)
        for a in vectors:
            for b in vectors:
                assert cyclic_product(a, b, sign) == schoolbook(a, b), (n, a, b)
