"""Command-line surface.

Subcommands: ``order`` (one class group order, optionally factored),
``table`` (factored orders over a prime range), ``verify`` (invariant
suites), ``crosscheck`` (the gcd harness over point-count data), and
``genus`` (genus / cusp count).  Exit codes are a stable contract:
0 success, 1 verification failure, 2 usage or input error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._version import __version__
from .arith import DEFAULT_RHO_BUDGET, Primality, is_prime
from .cartan import _validate_pk, cusp_count_plus, genus_plus
from .classgroup import compute_class_group
from .crosscheck import (
    bundled_fixture_path,
    fixture_identities_ok,
    gcd_harness,
    load_records,
)
from .errors import SIZE_GUARD, InvariantViolation, brief_int
from .verify import (
    algebraic_checks,
    analytic_checks,
    eps_independence_checks,
    structure_checks,
)

TABLE_GUARD = 101


class UsageError(Exception):
    pass


def _require_level(p: int, k: int = 1) -> None:
    try:
        _validate_pk(p, k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _require_guarded_level(p: int, k: int, force: bool) -> None:
    """A valid level p^k within the size guard, unless forced.  A p above
    the guard is refused before its primality test; p >= 5 > 2, so p^k >
    SIZE_GUARD once 2^k is: a huge k is refused without forming p^k."""
    if not force and p > SIZE_GUARD:
        raise UsageError(
            f"p = {brief_int(p)} exceeds the size guard {SIZE_GUARD}; "
            "pass --force to override"
        )
    _require_level(p, k)
    if not force and (k >= SIZE_GUARD.bit_length() or p**k > SIZE_GUARD):
        raise UsageError(
            f"p = {p}, k = {k}: p^k exceeds the size guard {SIZE_GUARD}; "
            "pass --force to override"
        )


def _primes_in(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi + 1) if is_prime(p) is not Primality.COMPOSITE]


def cmd_order(args) -> int:
    _require_guarded_level(args.p, args.k, args.force)
    res = compute_class_group(
        args.p, args.k, factor=args.factor or args.json, rho_budget=args.rho_budget
    )
    if args.json:
        print(json.dumps(res.to_json_dict()))
    elif args.factor:
        print(res.factored_str())
    else:
        print(res.order)
    return 0


def table_row(res) -> str:
    return f"{res.p}\t{res.order}\t{res.factored_str()}"


def cmd_table(args) -> int:
    if args.pmax > TABLE_GUARD and not args.force:
        raise UsageError(
            f"--pmax {args.pmax} exceeds the guard {TABLE_GUARD}; pass --force to override"
        )
    for p in _primes_in(5, args.pmax):
        res = compute_class_group(p, 1, factor=True, rho_budget=args.rho_budget)
        print(json.dumps(res.to_json_dict()) if args.json else table_row(res))
    return 0


def cmd_verify(args) -> int:
    _require_guarded_level(args.p, args.k, args.force)
    if args.analytic and args.k != 1:
        raise UsageError("--analytic runs at k = 1 only")
    # the Klein-law grid has p^2 points: the table guard bounds it too
    if args.analytic and args.p > TABLE_GUARD and not args.force:
        raise UsageError(
            f"--analytic at p = {args.p} exceeds the guard {TABLE_GUARD}; "
            "pass --force to override"
        )

    checks = algebraic_checks(args.p, args.k)
    if args.structure:
        checks += structure_checks(args.p, args.k)
    if args.eps_independence:
        checks += eps_independence_checks(args.p, args.k)
    if args.analytic:
        checks += analytic_checks(args.p)

    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"{status}  {check.name}{detail}")
        failed += not check.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_crosscheck(args) -> int:
    bundled = args.path is None
    path = bundled_fixture_path() if bundled else args.path
    try:
        # crosscheck has no --force: a row above the size guard is rejected
        # outright, before its primality test and before any order is computed
        report = load_records(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    for err in report.errors:
        print(f"rejected row: {err}", file=sys.stderr)
    levels = report.levels()
    if args.p is not None:
        if args.p not in levels:
            raise UsageError(f"no records for p = {brief_int(args.p)} in {path}")
        levels = [args.p]
    if not levels:
        raise UsageError(f"no usable records in {path}")
    for p in levels:
        _require_level(p)

    all_ok = True
    for p in levels:
        order_p = compute_class_group(p, 1, factor=False).order
        harness = gcd_harness(p, report.for_p(p), order_p)
        print(f"p={p}: order {order_p}")
        if harness.j_gcd is not None:
            print(f"  J-level gcd {harness.j_gcd}  ratio {harness.j_ratio}")
            print(f"  all J values divisible by order: {harness.all_j_divisible()}")
        for label, g in harness.newform_gcds.items():
            print(f"  newform {label}: gcd {g}")
        if harness.newform_product is not None:
            print(
                f"  newform gcd product {harness.newform_product}"
                f"  ratio {harness.newform_ratio}"
            )
        if bundled:
            ok, problems = fixture_identities_ok(harness)
            for problem in problems:
                print(f"  IDENTITY FAILED: {problem}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def cmd_genus(args) -> int:
    _require_guarded_level(args.p, 1, args.force)
    print(f"genus {genus_plus(args.p)}")
    print(f"cusps {cusp_count_plus(args.p)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Cuspidal divisor class groups of non-split Cartan modular curves",
    )
    parser.add_argument("--version", action="version", version=f"cuspidal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, k_flag=True):
        sp.add_argument("-p", type=int, required=True, help="prime level >= 5")
        if k_flag:
            sp.add_argument("-k", type=int, default=1, help="prime-power exponent (default 1)")
        sp.add_argument("--force", action="store_true", help="override the size guard")

    p_order = sub.add_parser("order", help="order of the cuspidal class group")
    add_common(p_order)
    p_order.add_argument("--factor", action="store_true", help="print the factored order")
    p_order.add_argument("--json", action="store_true", help="emit a JSON record")
    p_order.add_argument("--rho-budget", type=int, default=DEFAULT_RHO_BUDGET,
                         help="factoring step budget for the call (rho and ECM)")
    p_order.set_defaults(func=cmd_order)

    p_table = sub.add_parser("table", help="factored orders for primes 5..pmax")
    p_table.add_argument("--pmax", type=int, default=TABLE_GUARD)
    p_table.add_argument("--json", action="store_true", help="one JSON record per line")
    p_table.add_argument("--rho-budget", type=int, default=DEFAULT_RHO_BUDGET,
                         help="factoring step budget per level (rho and ECM)")
    p_table.add_argument("--force", action="store_true", help="override the pmax guard")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    add_common(p_verify)
    p_verify.add_argument("--structure", action="store_true",
                          help="also check the invariant-factor and Bernoulli routes")
    p_verify.add_argument("--eps-independence", action="store_true",
                          help="also check theta over a second ring constant")
    p_verify.add_argument("--analytic", action="store_true",
                          help="also run the q-series verification layer")
    p_verify.set_defaults(func=cmd_verify)

    p_cross = sub.add_parser("crosscheck", help="gcd harness over point-count data")
    p_cross.add_argument("path", nargs="?", default=None,
                         help="counts CSV (default: bundled fixture)")
    p_cross.add_argument("-p", type=int, default=None, help="restrict to one level")
    p_cross.set_defaults(func=cmd_crosscheck)

    p_genus = sub.add_parser("genus", help="genus and cusp count")
    add_common(p_genus, k_flag=False)
    p_genus.set_defaults(func=cmd_genus)

    return parser


def main(argv=None) -> int:
    # orders from 43^2 on have more digits than the int <-> str conversion
    # limit (4300 by default since Python 3.10.7) lets through
    set_digit_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_digit_limit is not None:
        set_digit_limit(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
