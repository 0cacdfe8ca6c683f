"""Ingestion of Jacobian / abelian-variety point counts and the gcd harness.

The bundled fixture (data/jacobian_counts.csv) carries, for each small prime
level p, the point counts |J(F_q)| over the primes q = +-1 mod p (label "J"),
and for p = 29 and 31 additionally one per-newform-class gcd row per class
(labels f1..f6, g1..g4).  The harness computes, per label, the gcd across the
listed q and compares against the cuspidal class group order: the J-level gcd
equals the order for 11 <= p <= 23 and four times the order for p = 29, 31,
where the per-newform product of gcds recovers the order exactly.

Values may be given either in decimal or factored as ``2^2*3*11``; the file
format is data-driven so the harness extends to user exports from any
modular-forms database.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

from .arith import Primality, is_prime
from .errors import SIZE_GUARD, brief_int

J_LABEL = "J"

_HEADER = ("p", "q", "label", "value")
_FACTORED_RE = re.compile(r"^\d+(\^\d+)?(\*\d+(\^\d+)?)*$")

# larger values are refused before they are formed (one gcd of two values
# at the bound takes about 0.15 s); the bundled fixture's largest has 246 bits
MAX_VALUE_BITS = 1 << 18


def parse_value(text: str) -> int:
    """Decimal integer or factored expression like ``2^2*3*11``, refused by
    a ValueError above MAX_VALUE_BITS bits before any number is formed: a
    d-digit number exceeds 2^(3(d-1)), and a product of factors b^e has at
    most 1 + sum(e * ceil(log2 b)) bits."""
    s = text.strip().replace(" ", "")
    if not _FACTORED_RE.match(s):
        raise ValueError(f"bad value syntax: {text!r}")
    digits = max(len(x.lstrip("0")) for x in re.split(r"[*^]", s))
    if 3 * (digits - 1) > MAX_VALUE_BITS:
        raise ValueError(
            f"value has a {digits}-digit number, above the bound of {MAX_VALUE_BITS} bits"
        )
    factors = [
        (_from_digits(b), _from_digits(e or "1"))
        for b, _, e in (f.partition("^") for f in s.split("*"))
    ]
    bits = 1 + sum(e * (b - 1).bit_length() for b, e in factors)
    if bits > MAX_VALUE_BITS:
        raise ValueError(
            f"value has up to {brief_int(bits)} bits, above the bound of {MAX_VALUE_BITS}"
        )
    return math.prod(b**e for b, e in factors)


def _from_digits(digits: str) -> int:
    """int(digits) at any length, whatever int <-> str limit is in force,
    without changing it: the digits are converted in runs of at most 640,
    the lowest limit Python accepts."""
    if len(digits) <= 640:
        return int(digits)
    half = len(digits) // 2
    return _from_digits(digits[:-half]) * 10**half + _from_digits(digits[-half:])


def _int_field(text: str) -> int:
    """int(text), whatever int <-> str limit is in force: a field of more
    than 640 decimal digits, with an optional sign, goes through
    _from_digits, and anything else through int."""
    sign, digits = (text[0], text[1:]) if text[:1] in ("+", "-") else ("", text)
    if len(digits) > 640 and digits.isdecimal():
        n = _from_digits(digits)
        return -n if sign == "-" else n
    return int(text)


class CrosscheckRecord(NamedTuple):
    p: int
    q: int
    label: str
    value: int


class LoadReport(NamedTuple):
    records: list[CrosscheckRecord]
    errors: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors

    def for_p(self, p: int) -> list[CrosscheckRecord]:
        return [r for r in self.records if r.p == p]

    def levels(self) -> list[int]:
        return sorted({r.p for r in self.records})


def bundled_fixture_path() -> Path:
    return Path(resources.files("cuspidal").joinpath("data/jacobian_counts.csv"))


def load_records(path) -> LoadReport:
    """Parse a CSV counts file; malformed rows are reported with their line
    number and skipped, the rest of the load continues.  A row whose p
    exceeds SIZE_GUARD is rejected before its primality test, and one whose
    q is not +-1 mod p before the primality test of q."""
    report = LoadReport([], [])
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [f.strip() for f in line.split(",")]
        if tuple(parts) == _HEADER:
            continue
        if len(parts) != 4:
            report.errors.append(f"line {lineno}: expected 4 fields, got {len(parts)}")
            continue
        try:
            p, q = _int_field(parts[0]), _int_field(parts[1])
            value = parse_value(parts[3])
        except ValueError as exc:
            report.errors.append(f"line {lineno}: {exc}")
            continue
        label = parts[2]
        if not label:
            report.errors.append(f"line {lineno}: empty label")
            continue
        if p > SIZE_GUARD:
            report.errors.append(
                f"line {lineno}: p = {brief_int(p)} exceeds the size guard {SIZE_GUARD}"
            )
            continue
        if is_prime(p) is Primality.COMPOSITE:
            report.errors.append(f"line {lineno}: p = {brief_int(p)} is not prime")
            continue
        if q % p not in (1, p - 1):
            report.errors.append(
                f"line {lineno}: q = {brief_int(q)} is not +-1 mod {brief_int(p)}"
            )
            continue
        if is_prime(q) is Primality.COMPOSITE:
            report.errors.append(f"line {lineno}: q = {brief_int(q)} is not prime")
            continue
        if value < 1:
            report.errors.append(f"line {lineno}: value must be >= 1")
            continue
        report.records.append(CrosscheckRecord(p=p, q=q, label=label, value=value))
    return report


class RecordCheck(NamedTuple):
    record: CrosscheckRecord
    divisible: bool


class HarnessReport(NamedTuple):
    p: int
    order: int
    j_gcd: int | None
    j_ratio: Fraction | None
    newform_gcds: dict[str, int]
    newform_product: int | None
    newform_ratio: Fraction | None
    record_checks: list[RecordCheck]

    def all_j_divisible(self) -> bool:
        return all(
            c.divisible for c in self.record_checks if c.record.label == J_LABEL
        )


def gcd_harness(
    p: int, records: Sequence[CrosscheckRecord], order: int
) -> HarnessReport:
    """Group records by label, gcd across q within each label, and compare
    against the given class group order.

    Divisibility of the order into each value is the injection consequence;
    it applies to the J-label point counts (per-newform rows carry gcds whose
    product, not each factor, recovers the order)."""
    if not records:
        raise ValueError("empty record set")
    if any(r.p != p for r in records):
        raise ValueError("records for a different level were passed in")
    if order < 1:
        raise ValueError("order must be positive")

    by_label: dict[str, list[CrosscheckRecord]] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)

    j_gcd = j_ratio = None
    if J_LABEL in by_label:
        j_gcd = math.gcd(*(r.value for r in by_label[J_LABEL]))
        j_ratio = Fraction(j_gcd, order)

    newform_gcds: dict[str, int] = {}
    for label, rows in sorted(by_label.items()):
        if label == J_LABEL:
            continue
        newform_gcds[label] = math.gcd(*(r.value for r in rows))

    newform_product = newform_ratio = None
    if newform_gcds:
        newform_product = math.prod(newform_gcds.values())
        newform_ratio = Fraction(newform_product, order)

    checks = [RecordCheck(r, r.value % order == 0) for r in records]
    return HarnessReport(
        p=p,
        order=order,
        j_gcd=j_gcd,
        j_ratio=j_ratio,
        newform_gcds=newform_gcds,
        newform_product=newform_product,
        newform_ratio=newform_ratio,
        record_checks=checks,
    )


# Identities the bundled fixture must reproduce: J-level gcd / order ratio,
# and (where per-newform rows exist) product of newform gcds / order = 1.
FIXTURE_J_RATIOS = {11: 1, 13: 1, 17: 1, 19: 1, 23: 1, 29: 4, 31: 4}


def fixture_identities_ok(report: HarnessReport) -> tuple[bool, list[str]]:
    problems: list[str] = []
    want = FIXTURE_J_RATIOS.get(report.p)
    if want is not None and report.j_ratio != want:
        problems.append(
            f"p={report.p}: J-level gcd/order = {report.j_ratio}, expected {want}"
        )
    if report.newform_gcds and report.newform_ratio != 1:
        problems.append(
            f"p={report.p}: newform product/order = {report.newform_ratio}, expected 1"
        )
    if not report.all_j_divisible():
        problems.append(f"p={report.p}: some J-level value is not divisible by the order")
    return not problems, problems
