from itertools import islice

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


def test_analytic_suite_computes_eta_once_per_tau():
    from cuspidal import siegel

    siegel.eta_sq.cache_clear()
    checks = analytic_checks(7)
    assert all(c.passed for c in checks)
    info = siegel.eta_sq.cache_info()
    # the 1824 Klein values at p = 7 share 10 points: the three
    # ANALYTIC_TAUS, their images under T (3 more) and S (2 more: S fixes i),
    # and the dihedral check's images of 0.3 + i under the two lifts
    assert info.hits + info.misses == 1824
    assert info.misses == 10


def test_quadratic_bucket_sums_check_names_a_failing_h(monkeypatch):
    # 1 added to the a1^2 sum of the units of norm 9 mod 13 breaks the
    # identity of h = 4, the class of -9
    import cuspidal.stickelberger as st

    real = st._fiber_square_sums

    def perturbed(ctx):
        s11, s22 = real(ctx)
        s11[9] += 1
        return s11, s22

    monkeypatch.setattr(st, "_fiber_square_sums", perturbed)
    check = next(c for c in algebraic_checks(13) if c.name == "quadratic bucket sums (all h)")
    assert not check.passed and check.detail == "6 values of h checked; failing: [4]"


def test_norm_buckets_check_fails_on_one_extra_unit(monkeypatch):
    # one extra unit of norm 2 mod 13 leaves the bucket of +-2 half a class too big
    import cuspidal.verify as v

    real = v.norm_counts

    def perturbed(ctx):
        count, weights, minus_eps = real(ctx)
        count[2] += 1
        return count, weights, minus_eps

    monkeypatch.setattr(v, "norm_counts", perturbed)
    checks = {c.name: c for c in algebraic_checks(13)}
    assert not checks["norm buckets uniform"].passed
    assert checks["norm buckets uniform"].detail == "6 buckets of 14"
    assert all(c.passed for name, c in checks.items() if name != "norm buckets uniform")


@pytest.mark.parametrize("p,k", [(13, 1), (5, 2)])
def test_eps_independence_fails_on_a_perturbed_second_row(monkeypatch, p, k):
    import cuspidal.verify as v
    from cuspidal.cartan import valid_epsilons

    real = v.theta_prime_row
    _, eps2 = islice(valid_epsilons(p), 2)

    def perturbed(ctx):
        row = real(ctx)
        return row if ctx.epsilon != eps2 else (row[0] + 1,) + row[1:]

    assert all(c.passed for c in eps_independence_checks(p, k))
    monkeypatch.setattr(v, "theta_prime_row", perturbed)
    (check,) = eps_independence_checks(p, k)
    assert not check.passed and f", {eps2}}}" in check.detail


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

    ctx = CartanContext.create(p, k)
    index = lattice_index(ctx, ctx.n)
    q = next(q for q in (2, 3, 5, 7, 11, 13, 17, 19, 23) if index % q)
    real = v.order
    monkeypatch.setattr(v, "order", lambda ctx: q * real(ctx))
    assert not _snf_check(p, k).passed
