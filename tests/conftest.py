"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def no_class_enumeration(monkeypatch):
    """Make any enumeration of the unit classes fail: norm_class_partition,
    in every cuspidal module that binds it, and CartanContext.classes.  The
    per-level caches above the bucket sums are cleared, so a cached value
    from an earlier test cannot hide an enumeration."""
    from cuspidal import cartan, classgroup, stickelberger

    def refuse(*args, **kwargs):
        raise AssertionError("the unit classes were enumerated")

    original = cartan.norm_class_partition
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cuspidal":
            for binding, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, binding, refuse)
    monkeypatch.setattr(cartan.CartanContext, "classes", refuse)
    for cached in (
        stickelberger.compute_a,
        stickelberger.theta,
        stickelberger.theta_prime,
        stickelberger.stickelberger_data,
        classgroup.circulant_theta_prime,
        classgroup.theta_prime_norms,
    ):
        cached.cache_clear()
