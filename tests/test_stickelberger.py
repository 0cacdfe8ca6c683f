import math
from fractions import Fraction

import pytest

from cuspidal.arith import bernoulli2
from cuspidal.cartan import CartanContext, norm_class_partition
from cuspidal.errors import InvariantViolation
from cuspidal.stickelberger import (
    GroupRingElement,
    compute_a,
    d_value,
    divisor_of_unit,
    e_value,
    kl_unit_check,
    somme_identities_check,
    stickelberger_data,
    theta,
    theta_prime,
)

CASES = [(5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (5, 2)]


def test_group_ring_ops():
    ctx = CartanContext.create(11)
    x = GroupRingElement.basis(ctx, 1)
    y = GroupRingElement.basis(ctx, 3)
    assert (x * y).coeffs == GroupRingElement.basis(ctx, 4).coeffs
    assert x.shift(3) == GroupRingElement.basis(ctx, 4)
    z = GroupRingElement(ctx, (1, 2, 0, 0, -3))
    assert z.degree() == 0
    assert (2 * z).coeffs == (2, 4, 0, 0, -6)
    assert (z - z).coeffs == (0,) * 5
    # convolution against a hand expansion: (1 + w) * (1 + w^4) over n = 5
    u = GroupRingElement(ctx, (1, 1, 0, 0, 0))
    v = GroupRingElement(ctx, (1, 0, 0, 0, 1))
    assert (u * v).coeffs == (2, 1, 0, 0, 1)


def test_d_and_e_values():
    assert d_value(5) == 2 and d_value(11) == 1 and d_value(13) == 6
    assert e_value(5, 1) == 5
    assert e_value(11, 1) == 55
    assert e_value(13, 1) == 13
    assert e_value(5, 2) == 625


def test_compute_a_p5_worked_example():
    ctx = CartanContext.create(5, epsilon=3)
    a = compute_a(ctx)
    # index 0 is the identity bucket (norm +-1), index 1 the bucket of +-2
    assert a == (Fraction(-1, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "p,k", [(5, 1), (13, 1), (5, 2), (7, 2), (13, 2), (5, 3), (11, 2)]
)
def test_compute_a_matches_per_class_bernoulli(p, k):
    # the defining per-class Fraction sum is the oracle for the integer sums
    ctx = CartanContext.create(p, k)
    m = ctx.modulus
    part = norm_class_partition(ctx)
    want = tuple(
        Fraction(m, 2) * sum(bernoulli2(Fraction(c.a1, m)) for c in part[j or ctx.n])
        for j in range(ctx.n)
    )
    assert compute_a(ctx) == want


@pytest.mark.parametrize("k", [1, 2])
def test_compute_a_rejects_a_residue_epsilon(k):
    # eps = 3 = 4^2 is a square mod 13: the ring splits, and a unit norm
    # fiber has (p - 1) p^(k-1) elements, not (p + 1) p^(k-1)
    ctx = CartanContext(p=13, k=k, epsilon=3, w=2, modulus=13**k, n=6 * 13 ** (k - 1))
    with pytest.raises(InvariantViolation, match="norm fiber"):
        compute_a(ctx)


def test_theta_prime_p5_worked_example():
    ctx = CartanContext.create(5)
    tp = theta_prime(ctx)
    assert tp.coeffs == (Fraction(-3), Fraction(-2))
    assert tp.degree() == -5
    assert theta(ctx).degree() == 0


@pytest.mark.parametrize("p,k", CASES)
def test_a_sums_to_zero_and_degree(p, k):
    ctx = CartanContext.create(p, k)
    data = stickelberger_data(ctx)
    assert sum(data.a) == 0
    assert data.theta.degree() == 0
    expected = -Fraction((p * p - 1) * p ** (3 * k - 2), 24)
    assert data.theta_prime.degree() == expected


@pytest.mark.parametrize("p,k", CASES)
def test_d_a_integral_and_translates_integral(p, k):
    ctx = CartanContext.create(p, k)
    data = stickelberger_data(ctx)
    assert all((data.d * ai).denominator == 1 for ai in data.a)
    th = data.theta
    for j in range(1, ctx.n):
        assert (th.shift(j) - th).is_integral()
    assert (data.d * th).is_integral()
    # a_i - a_j always lands in (1/d) Z
    for ai in data.a:
        for aj in data.a:
            assert ((ai - aj) * data.d).denominator == 1


def test_p11_a_integral():
    # d = 1 for p = 11, so every a_i is already an integer
    ctx = CartanContext.create(11)
    assert all(ai.denominator == 1 for ai in compute_a(ctx))


def test_eps_independence():
    for p, eps2 in ((5, 7), (13, 11), (17, 7)):
        base = CartanContext.create(p)
        other = CartanContext.create(p, epsilon=eps2)
        assert theta(base) == theta(other)


@pytest.mark.parametrize("p,w2", [(7, 3), (11, 3)])
def test_generator_covariance_permutes_a(p, w2):
    # replacing w by w^t permutes the buckets by i -> t*i
    ctx1 = CartanContext.create(p)
    ctx2 = CartanContext.create(p, w=w2)
    a1, a2 = compute_a(ctx1), compute_a(ctx2)
    assert sorted(a1) == sorted(a2)
    # w2 = w^t in H for some t; a2[j] must then equal a1[t*j mod n]
    t = next(
        t
        for t in range(1, ctx1.n + 1)
        if pow(ctx1.w, t, p) in (w2 % p, -w2 % p)
    )
    assert all(a2[j] == a1[t * j % ctx1.n] for j in range(ctx1.n))


def test_divisor_of_unit_examples():
    ctx = CartanContext.create(5)
    # the product over all buckets is constant: zero divisor
    assert divisor_of_unit(ctx, [1, 1]).coeffs == (0, 0)
    # (G+ at identity)^2 has divisor 2*theta = -1 + w
    assert divisor_of_unit(ctx, [2, 0]).coeffs == (-1, 1)
    with pytest.raises(ValueError):
        divisor_of_unit(ctx, [1, 0])  # d = 2 does not divide 1

    ctx11 = CartanContext.create(11)
    one_hot = [1] + [0] * (ctx11.n - 1)
    assert divisor_of_unit(ctx11, one_hot) == theta(ctx11)


def test_divisor_of_unit_shifted_bucket():
    # exponent d on the bucket of w^j gives d * w^j * theta
    ctx = CartanContext.create(13)
    exps = [0] * ctx.n
    exps[2] = d_value(13)
    div = divisor_of_unit(ctx, exps)
    assert div == (d_value(13) * theta(ctx)).shift(2)


def test_kl_unit_check():
    for p in (5, 7):
        ctx = CartanContext.create(p)
        part = norm_class_partition(ctx)
        d = d_value(p)
        family = {cls: d for cls in part[ctx.n]}
        assert kl_unit_check(p, 1, family)
        assert not kl_unit_check(p, 1, {(1, 0): 1})
        assert kl_unit_check(p, 1, {})


def test_kl_unit_check_all_classes_times_twelve():
    # every class once, scaled to clear the mod-12 condition
    p = 5
    ctx = CartanContext.create(p)
    family = {cls: 12 for cls in ctx.classes()}
    assert kl_unit_check(p, 1, family)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (5, 2)])
def test_somme_identities(p, k):
    ctx = CartanContext.create(p, k)
    m = ctx.modulus
    for h in range(1, (m - 1) // 2 + 1):
        if math.gcd(h, p) == 1:
            assert somme_identities_check(ctx, h)


def test_somme_p5_fiber_values():
    # norm-one fiber of p = 5: trace halves {1, 2, 2}, sum of squares 9 = 4,
    # and the right-hand side 6/4 = 6 * 4 = 24 = 4 mod 5
    ctx = CartanContext.create(5)
    from cuspidal.cartan import norm_fiber

    fiber = norm_fiber(ctx, 1)
    assert sorted(c.a1 for c in fiber) == [1, 2, 2]
    assert sum(c.a1**2 for c in fiber) % 5 == (1 * 6 * pow(4, -1, 5)) % 5
