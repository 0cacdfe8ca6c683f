"""The result records are immutable NamedTuples: fields cannot be assigned,
contexts hash by value, and the JSON form of a result is fixed."""

import json

import pytest

from cuspidal.arith import (
    FactorEntry,
    Factorization,
    Primality,
    _ecm_plan,
    factorize,
)
from cuspidal.cartan import CartanContext
from cuspidal.classgroup import ClassGroupResult, compute_class_group
from cuspidal.crosscheck import bundled_fixture_path, gcd_harness, load_records
from cuspidal.stickelberger import stickelberger_data
from cuspidal.verify import Check


def _records():
    ctx = CartanContext.create(13)
    fz = factorize(1183)
    report = load_records(bundled_fixture_path())
    harness = gcd_harness(11, report.for_p(11), 11)
    return {
        "FactorEntry": fz.entries[0],
        "Factorization": fz,
        "_EcmPlan": _ecm_plan(2000),
        "CartanContext": ctx,
        "StickelbergerData": stickelberger_data(ctx),
        "ClassGroupResult": compute_class_group(13, factor=True),
        "CrosscheckRecord": report.records[0],
        "LoadReport": report,
        "RecordCheck": harness.record_checks[0],
        "HarnessReport": harness,
        "Check": Check("name", True),
    }


def test_every_record_field_is_read_only():
    records = _records()
    assert len(records) == 11
    for name, record in records.items():
        assert type(record).__name__ == name
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def test_records_are_plain_tuples_underneath():
    entry = FactorEntry(7, 1, Primality.PROVEN)
    assert entry == (7, 1, Primality.PROVEN)
    prime, exponent, certainty = entry
    assert (prime, exponent, certainty) == (7, 1, Primality.PROVEN)
    assert entry._replace(exponent=2) == FactorEntry(7, 2, Primality.PROVEN)
    assert Check("x", False)._asdict() == {"name": "x", "passed": False, "detail": ""}
    fz = Factorization((entry,))
    assert (fz.steps_used, fz.budget_exhausted, fz.value()) == (0, False, 7)


def test_equal_contexts_hash_alike_and_share_cache_entries():
    a, b = CartanContext.create(13), CartanContext.create(13)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, CartanContext.create(17)}) == 2
    stickelberger_data.cache_clear()
    first = stickelberger_data(a)
    hits = stickelberger_data.cache_info().hits
    assert stickelberger_data(b) is first
    assert stickelberger_data.cache_info().hits == hits + 1


def test_class_group_result_json_round_trip():
    fz = Factorization(
        (FactorEntry(7, 1, Primality.PROVEN), FactorEntry(13, 2, Primality.PROVEN)),
        steps_used=0,
    )
    res = ClassGroupResult(
        p=13, k=1, order=1183, cusps=6, epsilon=7, generator=2, genus=2,
        factorization=fz, timings_ms={"order_ms": 1.5}, tool_version="0.0.0",
    )
    data = res.to_json_dict()
    assert json.dumps(data) == (
        '{"p": 13, "k": 1, "order": "1183", "cusps": 6, "epsilon": 7, '
        '"generator": 2, "genus": 2, "factorization": [["7", 1, "proven"], '
        '["13", 2, "proven"]], "factor_steps_used": 0, '
        '"factor_budget_exhausted": false, "invariant_factors": null, '
        '"timings_ms": {"order_ms": 1.5}, "tool_version": "0.0.0"}'
    )
    back = ClassGroupResult.from_json_dict(json.loads(json.dumps(data)))
    assert back == res
    assert back.to_json_dict() == data


def test_default_results_share_no_mutable_timings():
    a = ClassGroupResult(p=5, k=1, order=1, cusps=2, epsilon=3, generator=2)
    b = ClassGroupResult(p=7, k=1, order=1, cusps=3, epsilon=3, generator=3)
    assert a.timings_ms == {} and b.timings_ms == {}
    with pytest.raises(TypeError):
        a.timings_ms["order_ms"] = 1.0
    assert b.timings_ms == {} and a.to_json_dict()["timings_ms"] == {}
    # computed results each get their own dict
    r1, r2 = compute_class_group(5), compute_class_group(5)
    assert r1.timings_ms is not r2.timings_ms


def test_load_reports_own_their_lists():
    one, two = load_records(bundled_fixture_path()), load_records(bundled_fixture_path())
    assert one.records is not two.records and one.errors is not two.errors
    assert one == two and one.ok
