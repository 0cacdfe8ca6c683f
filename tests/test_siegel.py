import cmath
import math
from fractions import Fraction

import pytest

from cuspidal.cartan import CartanContext
from cuspidal.siegel import (
    cartan_group_lift,
    check_Th_weight,
    classify_in_normalizer,
    dihedral_sign,
    dihedral_transformation_ratio,
    eta_sq,
    infinity_order_slope,
    klein_eval,
    klein_modular_residual,
    klein_negation_residual,
    klein_translation_residual,
    lift_to_sl2,
    normalizer_coset_lift,
    required_terms,
    siegel_eval,
    t_plus_eval,
)
from cuspidal.verify import ANALYTIC_MATRICES, ANALYTIC_TAUS
from oracles import bernoulli2, infinity_order_slope_fraction, klein_eval_fraction

TAUS = (1j, 0.3 + 1j, 2j)
MATRICES = (((1, 1), (0, 1)), ((0, -1), (1, 0)))


def grid(den):
    for i in range(den):
        for j in range(den):
            if i or j:
                yield (i, j)


def test_convergence_guard():
    # the length is derived from tau alone: only the half plane is guarded
    for tau in (0j, 0.3 - 1j):
        with pytest.raises(ValueError):
            siegel_eval((1, 0), 5, tau)
        with pytest.raises(ValueError):
            eta_sq(tau)
        with pytest.raises(ValueError):
            required_terms(tau)
    lengths = [required_terms(complex(0.3, y)) for y in (2.0, 1.0, 0.5, 0.05, 0.001)]
    assert lengths == sorted(lengths) and len(set(lengths)) == len(lengths)
    assert required_terms(1j) == 6


def test_index_validation():
    with pytest.raises(ValueError):
        siegel_eval((2, -1), 1, 1j)
    with pytest.raises(ValueError):
        klein_eval((0, 3), 1, 1j)
    # a denominator must be positive
    for den in (0, -5):
        with pytest.raises(ValueError):
            siegel_eval((1, 0), den, 1j)
        with pytest.raises(ValueError):
            klein_eval((1, 0), den, 1j)
        with pytest.raises(ValueError):
            infinity_order_slope((1, 0), den)


def test_siegel_moduli_negation():
    v1 = siegel_eval((1, 0), 5, 1j)
    v2 = siegel_eval((4, 0), 5, 1j)
    assert abs(abs(v1) - abs(v2)) < 1e-12


def _product_400(a, den, tau):
    """Siegel and eta2 q-products at a fixed 400 factors, written out
    independently of the module (a1 in [0, 1))."""
    a1, a2 = a[0] / den, a[1] / den
    q = cmath.exp(2j * math.pi * tau)
    qz = cmath.exp(2j * math.pi * (a1 * tau + a2))
    g = -cmath.exp(1j * math.pi * tau * (a1 * a1 - a1 + 1 / 6))
    g *= cmath.exp(1j * math.pi * a2 * (a1 - 1)) * (1 - qz)
    eta = cmath.exp(2j * math.pi * tau / 12)
    for n in range(1, 401):
        g *= (1 - q**n * qz) * (1 - q**n / qz)
        eta *= (1 - q**n) ** 2
    return g, eta


def test_truncation_is_converged():
    assert required_terms(0.3 + 0.05j) == 89
    for a, den in (((1, 0), 5), ((2, 3), 7)):
        for tau in TAUS + (0.3 + 0.05j,):
            g, eta = _product_400(a, den, tau)
            assert abs(siegel_eval(a, den, tau) - g) <= 1e-11 * abs(g)
            assert abs(eta_sq(tau) - eta) <= 1e-11 * abs(eta)
            assert abs(klein_eval(a, den, tau) - g / eta) <= 1e-11 * abs(g / eta)


def test_klein_negation_grid():
    for a in grid(5):
        for tau in TAUS:
            assert klein_negation_residual(a, 5, tau) < 1e-10


def test_klein_translation_grid():
    for a in grid(5):
        for b in ((1, 0), (0, 1), (1, 1), (-1, 2)):
            for tau in TAUS:
                assert klein_translation_residual(a, 5, b, tau) < 1e-8


def test_klein_modular_grid():
    for a in grid(5):
        for gamma in MATRICES:
            for tau in TAUS:
                assert klein_modular_residual(a, 5, gamma, tau) < 1e-8


def test_klein_modular_complex_form():
    # stronger than the modulus contract: the reduced evaluator satisfies
    # the transformation law k_a(gamma tau) (r tau + s) = k_(a gamma)(tau)
    # exactly as a complex identity
    tau = 0.3 + 1j
    for a in ((1, 0), (2, 3)):
        for gamma in MATRICES:
            (p, q), (r, s) = gamma
            lhs = klein_eval(a, 5, (p * tau + q) / (r * tau + s)) * (r * tau + s)
            rhs = klein_eval((a[0] * p + a[1] * r, a[0] * q + a[1] * s), 5, tau)
            assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_klein_modular_rejects_non_unimodular():
    with pytest.raises(ValueError):
        klein_modular_residual((1, 0), 5, ((2, 0), (0, 2)), 1j)


def test_eta_sq_value():
    # q-expansion check at tau = 2i: eta's product over (1-q^n)^2 against a
    # directly summed partial product
    tau = 2j
    q = cmath.exp(2j * math.pi * tau)
    direct = cmath.exp(2j * math.pi * tau / 12)
    for n in range(1, 80):
        direct *= (1 - q**n) ** 2
    assert abs(eta_sq(tau) - direct) < 1e-14


@pytest.mark.parametrize("p", [53, 101])
def test_infinity_order_slope_near_one(p):
    # at a1 = (p-1)/p and verify's samples y <= 12p/5, q_z underflows to 0
    ys = tuple(c * p / 5 for c in (8.0, 10.0, 12.0))
    a = (p - 1, 0)
    target = float(bernoulli2(Fraction(p - 1, p))) / 2
    assert abs(infinity_order_slope(a, p, ys=ys) - target) <= 0.01 * abs(target)


@pytest.mark.parametrize("p", [593, 601, 1129, 1151])
def test_infinity_order_slope_at_large_levels(p):
    # verify's samples reach y = 12p/5, where the leading factor alone
    # underflows at a1 = 0 and overflows at a1 near 1/2 (B2 < 0)
    ys = tuple(c * p / 5 for c in (8.0, 10.0, 12.0))
    h = (p - 1) // 2
    indices = [(0, 1), (1, 0), (h, 0), (h + 1, 3), (p - 1, p - 1)]
    for a in indices:
        target = float(bernoulli2(Fraction(a[0], p))) / 2
        got = infinity_order_slope(a, p, ys=ys)
        assert abs(got - target) <= 0.01 * abs(target), (a, got, target)


@pytest.mark.parametrize("den", [5, 7])
def test_infinity_order_slope_grid(den):
    for a in grid(den):
        target = float(bernoulli2(Fraction(a[0], den))) / 2
        got = infinity_order_slope(a, den)
        assert abs(got - target) <= 0.01 * abs(target), (a, got, target)


def _as_fractions(a, den):
    return (Fraction(a[0], den), Fraction(a[1], den))


@pytest.mark.parametrize("den", [5, 7, 12])
def test_integer_indices_match_the_fraction_reference(den):
    # every Klein value the residuals take, and every slope, is bit-identical
    # to the evaluator that carried the index as two Fractions
    for a in grid(den):
        images = [
            (a[0] + b1 * den, a[1] + b2 * den)
            for b1, b2 in ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 2))
        ]
        images.append((-a[0], -a[1]))
        for (p, q), (r, s) in ANALYTIC_MATRICES:
            images.append((a[0] * p + a[1] * r, a[0] * q + a[1] * s))
        for tau in ANALYTIC_TAUS:
            points = [(x, tau) for x in images]
            for (p, q), (r, s) in ANALYTIC_MATRICES:
                points.append((a, (p * tau + q) / (r * tau + s)))
            for x, t in points:
                assert klein_eval(x, den, t) == klein_eval_fraction(
                    _as_fractions(x, den), t
                ), (x, den, t)
        for ys in ((8.0, 10.0, 12.0), tuple(c * den / 5 for c in (8.0, 10.0, 12.0))):
            got = infinity_order_slope(a, den, ys=ys)
            assert got == infinity_order_slope_fraction(_as_fractions(a, den), ys=ys)


def test_lift_to_sl2_properties():
    for modulus, m in [
        (5, ((2, 0), (0, 3))),
        (5, ((3, 4), (2, 3))),
        (7, ((0, 3), (2, 0))),
        (7, ((4, 5), (3, 4))),
    ]:
        lift = lift_to_sl2(m, modulus)
        (a, b), (c, d) = lift
        assert a * d - b * c == 1
        assert all(
            (lift[i][j] - m[i][j]) % modulus == 0 for i in range(2) for j in range(2)
        )


def test_classify_in_normalizer():
    ctx = CartanContext.create(5)
    assert classify_in_normalizer(ctx, cartan_group_lift(ctx)) is True
    assert classify_in_normalizer(ctx, normalizer_coset_lift(ctx)) is False
    with pytest.raises(ValueError):
        classify_in_normalizer(ctx, ((1, 1), (0, 1)))


def test_dihedral_sign_prediction():
    assert dihedral_sign(7, True) == 1
    assert dihedral_sign(7, False) == 1
    assert dihedral_sign(5, True) == 1
    assert dihedral_sign(5, False) == -1


@pytest.mark.parametrize("p", [5, 7])
def test_th_weight_law(p):
    ctx = CartanContext.create(p)
    tau = 0.3 + 1j
    gr = cartan_group_lift(ctx)
    gc = normalizer_coset_lift(ctx)
    for h in range(1, ctx.n + 1):
        assert check_Th_weight(ctx, h, gr, tau)
        assert check_Th_weight(ctx, h, gc, tau)


def test_th_ratio_signs_explicit():
    tau = 1j
    ctx5 = CartanContext.create(5)
    r = dihedral_transformation_ratio(ctx5, 1, normalizer_coset_lift(ctx5), tau)
    assert abs(r - (-1)) < 1e-6
    r = dihedral_transformation_ratio(ctx5, 1, cartan_group_lift(ctx5), tau)
    assert abs(r - 1) < 1e-6
    ctx7 = CartanContext.create(7)
    r = dihedral_transformation_ratio(ctx7, 2, normalizer_coset_lift(ctx7), tau)
    assert abs(r - 1) < 1e-6


def test_t_plus_is_nonzero():
    ctx = CartanContext.create(5)
    assert abs(t_plus_eval(ctx, 1, 1j)) > 0


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (13, 1), (5, 2), (7, 2)])
def test_t_plus_buckets_equal_the_partition(monkeypatch, p, k):
    # the units of norm +-w^h, one per pair {s, -s}, are the classes of the
    # dense partition's bucket h, in the same order
    import cuspidal.siegel as sg
    from cuspidal.cartan import norm_class_partition

    ctx = CartanContext.create(p, k)
    seen = []
    monkeypatch.setattr(sg, "klein_eval", lambda a, den, tau: seen.append(tuple(a)) or 1.0)
    for h, bucket in norm_class_partition(ctx).items():
        seen.clear()
        t_plus_eval(ctx, h, 1j)
        assert seen == [tuple(c) for c in bucket], h
