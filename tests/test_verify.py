import pytest

from cuspidal.verify import (
    algebraic_checks,
    analytic_checks,
    eps_independence_checks,
    structure_checks,
)


@pytest.mark.parametrize("p,k", [(5, 1), (11, 1), (5, 2)])
def test_algebraic_suite_passes(p, k):
    checks = algebraic_checks(p, k)
    assert checks and all(c.passed for c in checks), [
        (c.name, c.detail) for c in checks if not c.passed
    ]


def test_structure_suite_passes():
    checks = structure_checks(13)
    assert {c.name for c in checks} == {
        "order equals product of invariant factors",
        "order equals Bernoulli-number formula",
    }
    assert all(c.passed for c in checks)


def test_structure_suite_k2_skips_bernoulli():
    names = {c.name for c in structure_checks(5, 2)}
    assert names == {"order equals product of invariant factors"}


def test_eps_independence_suite():
    checks = eps_independence_checks(13)
    assert all(c.passed for c in checks)
    assert "{7, 11}" in checks[0].detail


def test_analytic_suite_dihedral_only_at_5_and_7():
    names5 = {c.name for c in analytic_checks(5)}
    assert "dihedral sign of bucket products" in names5
    names11 = {c.name for c in analytic_checks(11)}
    assert "dihedral sign of bucket products" not in names11


def test_observed_denominator_reported():
    checks = {c.name: c for c in algebraic_checks(5)}
    assert "denominator lcm = 2" in checks["d * a_i integral"].detail


def _snf_check(p, k=1):
    (check,) = [c for c in structure_checks(p, k) if "invariant factors" in c.name]
    return check


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2)])
def test_structure_check_fails_on_twice_the_order(monkeypatch, p, k):
    # structure() does not read order(), so a wrong order shows as a mismatch
    import cuspidal.verify as v

    real = v.order
    assert _snf_check(p, k).passed
    monkeypatch.setattr(v, "order", lambda ctx: 2 * real(ctx))
    assert not _snf_check(p, k).passed


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2)])
def test_structure_check_fails_on_a_prime_outside_the_index(monkeypatch, p, k):
    # q does not divide T = [I : theta I], so no lattice modulo T can have q
    # in its invariant factors
    import cuspidal.verify as v
    from cuspidal.cartan import CartanContext
    from cuspidal.classgroup import lattice_index

    index = lattice_index(CartanContext.create(p, k))
    q = next(q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23) if index % q)
    real = v.order
    monkeypatch.setattr(v, "order", lambda ctx: q * real(ctx))
    assert not _snf_check(p, k).passed
