import math
import time

import pytest

from cuspidal.cartan import CartanContext
from cuspidal.classgroup import order
from cuspidal.crosscheck import (
    MAX_VALUE_BITS,
    CrosscheckRecord,
    bundled_fixture_path,
    fixture_identities_ok,
    gcd_harness,
    load_records,
    parse_value,
)


@pytest.fixture(scope="module")
def fixture_report():
    return load_records(bundled_fixture_path())


def test_parse_value():
    assert parse_value("33") == 33
    assert parse_value("2^2*3*11") == 132
    assert parse_value("7*13^2*127") == 7 * 169 * 127
    assert parse_value("2^2 * 3 * 11") == 132  # embedded spaces tolerated
    for bad in ("", "x", "2^^3", "2*", "^3", "2**3", "-5"):
        with pytest.raises(ValueError):
            parse_value(bad)


def test_load_records_simple(tmp_path):
    f = tmp_path / "counts.csv"
    f.write_text("p,q,label,value\n11,23,J,33\n13,53,J,7*13^2*127\n")
    report = load_records(f)
    assert report.ok
    assert report.records[0] == CrosscheckRecord(11, 23, "J", 33)
    assert report.records[1].value == 150241


def test_load_rejects_bad_rows(tmp_path):
    f = tmp_path / "counts.csv"
    f.write_text(
        "p,q,label,value\n"
        "11,45,J,5\n"          # q not prime (but = 1 mod p)
        "11,29,J,7\n"          # q not +-1 mod p
        "9,19,J,3\n"           # p not prime
        "11,23,J,0\n"          # value < 1
        "11,23,J\n"            # missing field
        "11,23,J,zz\n"         # bad value grammar
        "11,23,,5\n"           # empty label
        "11,23,J,33\n"         # fine
    )
    report = load_records(f)
    assert len(report.records) == 1
    assert len(report.errors) == 7
    assert any("45" in e and "not prime" in e for e in report.errors)
    assert any("+-1" in e for e in report.errors)
    # line numbers present
    assert all(e.startswith("line ") for e in report.errors)


def test_parse_value_bounds_the_size_before_forming_it():
    assert parse_value(f"2^{MAX_VALUE_BITS - 1}") == 2 ** (MAX_VALUE_BITS - 1)
    assert parse_value("1^100000000000") == 1  # 1 adds no bits
    for huge in (f"2^{MAX_VALUE_BITS}", "3^100000000000", "5*7^100000000000*2",
                 "1" + "0" * MAX_VALUE_BITS):
        with pytest.raises(ValueError, match=f"above the bound of {MAX_VALUE_BITS}"):
            parse_value(huge)


def test_huge_power_row_is_rejected_at_once(tmp_path, capsys):
    from cuspidal.cli import main

    f = tmp_path / "counts.csv"
    f.write_text("p,q,label,value\n11,23,J,33\n11,23,J,3^100000000000\n11,43,J,11\n")
    start = time.perf_counter()
    report = load_records(f)
    assert time.perf_counter() - start < 1
    assert [(r.q, r.value) for r in report.records] == [(23, 33), (43, 11)]
    assert report.errors == [
        f"line 3: value has up to 200000000001 bits, above the bound of {MAX_VALUE_BITS}"
    ]
    assert main(["crosscheck", str(f)]) == 0
    out, err = capsys.readouterr()
    assert err == f"rejected row: {report.errors[0]}\n"
    assert "J-level gcd 11" in out


def test_load_missing_file():
    with pytest.raises(OSError):
        load_records("/does/not/exist.csv")


def test_bundled_fixture_clean(fixture_report):
    assert fixture_report.ok
    assert fixture_report.levels() == [11, 13, 17, 19, 23, 29, 31]
    counts = {p: len(fixture_report.for_p(p)) for p in fixture_report.levels()}
    assert counts == {11: 19, 13: 13, 17: 10, 19: 9, 23: 7, 29: 12, 31: 8}


def test_gcd_harness_p11(fixture_report):
    o = order(CartanContext.create(11))
    h = gcd_harness(11, fixture_report.for_p(11), o)
    assert h.j_gcd == 11 == o
    assert h.j_ratio == 1
    assert h.newform_product is None
    assert h.all_j_divisible()


@pytest.mark.parametrize("p", [29, 31])
def test_gcd_harness_newform_refinement(p, fixture_report):
    o = order(CartanContext.create(p))
    h = gcd_harness(p, fixture_report.for_p(p), o)
    assert h.j_ratio == 4
    assert h.newform_ratio == 1
    assert h.all_j_divisible()
    ok, problems = fixture_identities_ok(h)
    assert ok, problems


def test_gcd_harness_p29_newform_values(fixture_report):
    o = order(CartanContext.create(29))
    h = gcd_harness(29, fixture_report.for_p(29), o)
    assert h.newform_gcds == {
        "f1": 7**2,
        "f2": 29,
        "f3": 2**3 * 43,
        "f4": 2**3 * 43,
        "f5": 5 * 29**2,
        "f6": 29**3,
    }
    assert math.prod(h.newform_gcds.values()) == o


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23, 29, 31])
def test_every_j_value_divisible_by_order(p, fixture_report):
    o = order(CartanContext.create(p))
    for rec in fixture_report.for_p(p):
        if rec.label == "J":
            assert rec.value % o == 0, rec


def test_gcd_harness_validation(fixture_report):
    with pytest.raises(ValueError):
        gcd_harness(11, [], 11)
    with pytest.raises(ValueError):
        gcd_harness(13, fixture_report.for_p(11), 11)
