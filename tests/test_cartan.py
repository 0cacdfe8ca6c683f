import math
import random

import pytest

from cuspidal.cartan import (
    CartanClass,
    CartanContext,
    CartanElement,
    choose_epsilon,
    cusp_count_plus,
    find_generator_H,
    find_norm_minus_one_element,
    find_norm_one_generator,
    genus_plus,
    h_index_table,
    norm_class_partition,
    norm_fiber,
    valid_epsilons,
)


def test_choose_epsilon():
    assert choose_epsilon(11) == -1
    assert choose_epsilon(5) == 3
    assert choose_epsilon(13) == 7


def test_valid_epsilons_skips_residues_and_squares():
    first_two = []
    gen = valid_epsilons(13)
    for eps in gen:
        first_two.append(eps)
        if len(first_two) == 2:
            break
    assert first_two == [7, 11]
    # 15 = 3*5 is squarefree but 3 mod 13 is a residue; 27 is not squarefree
    assert 27 not in first_two


def test_context_validation():
    with pytest.raises(ValueError):
        CartanContext.create(4)
    with pytest.raises(ValueError):
        CartanContext.create(5, 0)
    with pytest.raises(ValueError):
        CartanContext.create(5, epsilon=4)  # 0 mod 4
    with pytest.raises(ValueError):
        CartanContext.create(5, epsilon=11)  # 11 = 1 mod 5 is a residue
    with pytest.raises(ValueError):
        CartanContext.create(13, w=5)  # 5^3 = +-8: order 3 < 6


def test_norm_examples():
    ctx = CartanContext.create(5, epsilon=3)
    assert ctx.norm(CartanElement(1, 0)) == 1
    assert ctx.norm(CartanElement(1, 1)) == 3  # 1 - 3 = -2 = 3 mod 5
    assert ctx.norm(CartanElement(0, 2)) == (-3 * 4) % 5


def test_trace_half():
    ctx = CartanContext.create(5)
    assert ctx.trace_half(CartanElement(3, 4)) == 3
    assert ctx.trace_half(CartanElement(0, 1)) == 0


def test_canonical_class_examples():
    ctx = CartanContext.create(5)
    assert ctx.canonical_class(CartanElement(4, 0)) == CartanClass(1, 0)
    assert ctx.canonical_class(CartanElement(0, 3)) == CartanClass(0, 2)
    assert ctx.canonical_class(CartanElement(2, 4)) == CartanClass(2, 4)
    with pytest.raises(ValueError):
        ctx.canonical_class(CartanElement(0, 0))


def test_canonical_class_idempotent_and_sign_invariant():
    ctx = CartanContext.create(7, epsilon=-1)
    for cls in ctx.classes():
        assert ctx.canonical_class(cls) == cls
        assert ctx.canonical_class(ctx.neg(cls)) == cls


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2)])
def test_unit_group_size(p, k):
    ctx = CartanContext.create(p, k)
    classes = list(ctx.classes())
    assert len(classes) == ctx.class_count()
    assert len(set(classes)) == len(classes)
    # |C_ns(p^k)| = p^(2k-2) (p^2-1): each class covers the pair {s, -s}
    assert 2 * len(classes) == p ** (2 * k - 2) * (p * p - 1)


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (5, 2)])
def test_norm_one_subgroup_cyclic(p, k):
    ctx = CartanContext.create(p, k)
    g = find_norm_one_generator(ctx)
    target = (p + 1) * p ** (k - 1)
    assert ctx.norm(g) == 1
    assert ctx.element_order(g) == target


@pytest.mark.parametrize(
    "p,k,gen,minus_one",
    [
        (5, 1, (3, 1), (1, 2)),
        (7, 1, (2, 2), (2, 3)),
        (5, 2, (3, 6), (1, 3)),
        (7, 2, (2, 12), (2, 17)),
    ],
)
def test_norm_scans_return_the_first_element_in_scan_order(p, k, gen, minus_one):
    # the elements the separate brute-force scans over (a1, a2) returned
    ctx = CartanContext.create(p, k)
    assert find_norm_one_generator(ctx) == CartanElement(*gen)
    assert find_norm_minus_one_element(ctx) == CartanElement(*minus_one)
    m = ctx.modulus
    first = next(
        CartanElement(a1, a2)
        for a1 in range(m)
        for a2 in range(m)
        if ctx.is_invertible((a1, a2)) and ctx.norm((a1, a2)) == m - 1
    )
    assert first == CartanElement(*minus_one)


def test_norm_multiplicative():
    rng = random.Random(11)
    for p, k in ((7, 1), (5, 2)):
        ctx = CartanContext.create(p, k)
        m = ctx.modulus
        for _ in range(60):
            s = CartanElement(rng.randrange(m), rng.randrange(m))
            t = CartanElement(rng.randrange(m), rng.randrange(m))
            assert ctx.norm(ctx.mul(s, t)) == ctx.norm(s) * ctx.norm(t) % m


def test_partition_p5_identity_bucket():
    ctx = CartanContext.create(5, epsilon=3)
    part = norm_class_partition(ctx)
    # identity bucket (i = n) holds the classes of norm +-1
    assert set(part[ctx.n]) == {
        CartanClass(1, 0),
        CartanClass(1, 2),
        CartanClass(1, 3),
        CartanClass(2, 0),
        CartanClass(2, 1),
        CartanClass(2, 4),
    }


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (11, 1), (5, 2)])
def test_partition_sizes_disjoint_exhaustive(p, k):
    ctx = CartanContext.create(p, k)
    part = norm_class_partition(ctx)
    assert set(part) == set(range(1, ctx.n + 1))
    seen = set()
    for i, bucket in part.items():
        assert len(bucket) == ctx.bucket_size()
        table = h_index_table(ctx)
        assert all(table[ctx.norm(cls)] == i for cls in bucket)
        seen.update(bucket)
    assert len(seen) == ctx.class_count()


def test_norm_fiber_splits_bucket():
    ctx = CartanContext.create(5)
    plus = norm_fiber(ctx, 1)
    minus = norm_fiber(ctx, 4)
    assert set(plus) | set(minus) == set(norm_class_partition(ctx)[ctx.n])
    assert len(plus) == len(minus) == 3


def test_find_generator_H():
    assert find_generator_H(5) == 2
    assert find_generator_H(7) == 2
    assert find_generator_H(11) == 2
    assert find_generator_H(5, 2) == 2


def test_cusp_count():
    assert cusp_count_plus(11) == 5
    assert cusp_count_plus(5, 2) == 10
    assert cusp_count_plus(101) == 50


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2)])
def test_cusp_count_matches_H_enumeration(p, k):
    m = p**k
    h_size = len({min(r, m - r) for r in range(1, m) if math.gcd(r, p) == 1})
    assert cusp_count_plus(p, k) == h_size


def test_genus():
    assert genus_plus(5) == 0
    assert genus_plus(7) == 0
    assert genus_plus(11) == 1
    with pytest.raises(ValueError):
        genus_plus(9)
