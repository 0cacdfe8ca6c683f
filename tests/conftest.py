"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def no_class_enumeration(monkeypatch):
    """Make any enumeration of the unit classes fail: norm_class_partition,
    in every cuspidal module that binds it, and CartanContext.classes.  The
    per-level caches above the bucket sums are cleared, so a cached value
    from an earlier test cannot hide an enumeration."""
    from cuspidal import cartan

    refuse = _refuse_in_cuspidal(
        monkeypatch, (cartan.norm_class_partition,), "the unit classes were enumerated"
    )
    monkeypatch.setattr(cartan.CartanContext, "classes", refuse)
    _clear_level_caches()


def _clear_level_caches():
    from cuspidal import classgroup, stickelberger

    for cached in (
        stickelberger.theta_prime_row,
        stickelberger.compute_a,
        stickelberger.theta,
        stickelberger.theta_prime,
        stickelberger.stickelberger_data,
        classgroup.theta_prime_norms,
    ):
        cached.cache_clear()


def _refuse_in_cuspidal(monkeypatch, originals, message):
    """Rebind each of ``originals``, in every cuspidal module that binds it,
    to a function that fails with ``message``, and return that function."""

    def refuse(*args, **kwargs):
        raise AssertionError(message)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cuspidal":
            for binding, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, binding, refuse)
    return refuse


@pytest.fixture
def no_group_ring_fractions(monkeypatch):
    """Make the Fraction-valued layer fail: compute_a, theta, theta_prime
    and stickelberger_data, in every cuspidal module that binds them.  The
    per-level caches are cleared, so a cached value from an earlier test
    cannot hide a call."""
    from cuspidal import stickelberger

    originals = (
        stickelberger.compute_a,
        stickelberger.theta,
        stickelberger.theta_prime,
        stickelberger.stickelberger_data,
    )
    _clear_level_caches()  # before the rebinding hides their cache_clear
    _refuse_in_cuspidal(monkeypatch, originals, "a group-ring Fraction was built")


@pytest.fixture
def no_dense_lattice(monkeypatch):
    """Make classgroup.generator_matrix fail, in every cuspidal module that
    binds it.  That is the n-row unit-divisor lattice at every k, but not
    its only builder: at k = 1, m = (p-1)/2 = n, so structure() builds the
    same n - 1 shift rows and d theta as its C_m quotient, which this
    fixture does not block."""
    from cuspidal import classgroup

    _refuse_in_cuspidal(
        monkeypatch, (classgroup.generator_matrix,), "the dense lattice was built"
    )
