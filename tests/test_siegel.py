import cmath
import math
from fractions import Fraction

import pytest

from cuspidal.arith import bernoulli2
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

TAUS = (1j, 0.3 + 1j, 2j)
MATRICES = (((1, 1), (0, 1)), ((0, -1), (1, 0)))


def grid(den):
    for i in range(den):
        for j in range(den):
            if i or j:
                yield (Fraction(i, den), Fraction(j, den))


def test_convergence_guard():
    with pytest.raises(ValueError):
        siegel_eval((Fraction(1, 5), Fraction(0)), 0.001j, terms=10)
    assert required_terms(1j) < 10


def test_index_validation():
    with pytest.raises(ValueError):
        siegel_eval((Fraction(2), Fraction(-1)), 1j)
    with pytest.raises(ValueError):
        klein_eval((Fraction(0), Fraction(3)), 1j)


def test_siegel_moduli_negation():
    v1 = siegel_eval((Fraction(1, 5), Fraction(0)), 1j)
    v2 = siegel_eval((Fraction(4, 5), Fraction(0)), 1j)
    assert abs(abs(v1) - abs(v2)) < 1e-12


def test_truncation_is_converged():
    for a in ((Fraction(1, 5), Fraction(0)), (Fraction(2, 7), Fraction(3, 7))):
        for tau in TAUS:
            v200 = siegel_eval(a, tau, 200)
            v400 = siegel_eval(a, tau, 400)
            assert abs(v200 - v400) <= 1e-10
            k200 = klein_eval(a, tau, 200)
            k400 = klein_eval(a, tau, 400)
            assert abs(k200 - k400) <= 1e-10


def test_klein_negation_grid():
    for a in grid(5):
        for tau in TAUS:
            assert klein_negation_residual(a, tau) < 1e-10


def test_klein_translation_grid():
    for a in grid(5):
        for b in ((1, 0), (0, 1), (1, 1), (-1, 2)):
            for tau in TAUS:
                assert klein_translation_residual(a, b, tau) < 1e-8


def test_klein_modular_grid():
    for a in grid(5):
        for gamma in MATRICES:
            for tau in TAUS:
                assert klein_modular_residual(a, gamma, tau) < 1e-8


def test_klein_modular_complex_form():
    # stronger than the modulus contract: the reduced evaluator satisfies
    # the transformation law exactly as a complex identity
    for a in ((Fraction(1, 5), Fraction(0)), (Fraction(2, 5), Fraction(3, 5))):
        for gamma in MATRICES:
            assert klein_modular_residual(a, gamma, 0.3 + 1j, complex_form=True) < 1e-10


def test_klein_modular_rejects_non_unimodular():
    with pytest.raises(ValueError):
        klein_modular_residual((Fraction(1, 5), Fraction(0)), ((2, 0), (0, 2)), 1j)


def test_eta_sq_value():
    # q-expansion check at tau = i: eta's product over (1-q^n)^2 against a
    # directly summed partial product
    tau = 2j
    q = cmath.exp(2j * math.pi * tau)
    direct = cmath.exp(2j * math.pi * tau / 12)
    for n in range(1, 80):
        direct *= (1 - q**n) ** 2
    assert abs(eta_sq(tau, 200) - direct) < 1e-14


@pytest.mark.parametrize("den", [5, 7])
def test_infinity_order_slope_grid(den):
    for a in grid(den):
        target = float(bernoulli2(Fraction(a[0]))) / 2
        got = infinity_order_slope(a)
        assert abs(got - target) <= 0.01 * abs(target), (a, got, target)


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
        assert check_Th_weight(ctx, h, gr, tau, tol=1e-6)
        assert check_Th_weight(ctx, h, gc, tau, tol=1e-6)


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
