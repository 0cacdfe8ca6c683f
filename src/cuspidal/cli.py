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
import os
import sys

from ._version import __version__
from .arith import DEFAULT_RHO_BUDGET, Primality, is_prime
from .cartan import _validate_pk, cusp_count_plus, genus_plus
from .classgroup import ClassGroupResult, compute_class_group
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
    primes = _primes_in(5, args.pmax)
    for row in _table_rows(primes, args.rho_budget):
        if isinstance(row, BaseException):
            raise row  # the rows below it are printed, as a sequential run would
        print(json.dumps(row.to_json_dict()) if args.json else table_row(row))
    return 0


_TOKEN_BYTES = 4  # one row index in the claim pipe


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def _worker_count(rows: int) -> int:
    """One process per usable CPU, at most one per row; one alone where
    there is no fork, or where other threads run: a forked child has only
    the calling thread, and a lock another thread holds stays held in it."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    return max(1, min(rows, _usable_cpus()))


class _RowClaims:
    """The table's row indices, largest p first (the costliest rows start
    early), as fixed-width tokens in one pipe that every worker reads: a
    worker claims a row by reading its token, so each row is claimed once.
    The tokens are written before any worker starts; those that do not fit
    in the pipe stay with the parent, which writes them as it claims."""

    def __init__(self, rows: int):
        self.read_fd, self.write_fd = os.pipe()
        os.set_blocking(self.write_fd, False)
        self.backlog = list(range(rows))  # popped from the end
        self.refill()

    def refill(self) -> None:
        while self.backlog:
            try:  # a write of at most PIPE_BUF bytes is whole or refused
                os.write(self.write_fd, self.backlog[-1].to_bytes(_TOKEN_BYTES, "big"))
            except BlockingIOError:
                return
            self.backlog.pop()
        self.close_writer()

    def close_writer(self) -> None:
        if self.write_fd is not None:
            os.close(self.write_fd)
            self.write_fd = None

    def close(self) -> None:
        self.close_writer()
        os.close(self.read_fd)

    def claim(self) -> int | None:
        """The next unclaimed row, or None once every row is claimed."""
        if self.backlog:
            self.refill()
        token = os.read(self.read_fd, _TOKEN_BYTES)
        return int.from_bytes(token, "big") if token else None


def _read_pipe(fd: int, wait: bool) -> bytes:
    """What the pipe holds: up to its end if wait, else what is there now."""
    os.set_blocking(fd, wait)
    chunks = []
    try:
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except BlockingIOError:
        pass
    return b"".join(chunks)


def _row_report(row: int, p: int, rho_budget: int) -> dict:
    """One row as a worker process sends it to the parent."""
    try:
        res = compute_class_group(p, 1, factor=True, rho_budget=rho_budget)
    except InvariantViolation as exc:
        return {"row": row, "invariant": str(exc)}
    except Exception:
        import traceback

        return {"row": row, "traceback": traceback.format_exc()}
    return {"row": row, "result": res.to_json_dict()}


def _from_report(report: dict, p: int):
    if "result" in report:
        return ClassGroupResult.from_json_dict(report["result"])
    if "invariant" in report:
        return InvariantViolation(report["invariant"])
    return RuntimeError(f"table row p = {p} failed in a worker process:\n{report['traceback']}")


def _table_rows(primes: list[int], rho_budget: int) -> list:
    """Each prime's ClassGroupResult, or the exception its row raised.

    The rows run on _worker_count processes: the parent and W - 1 children
    forked once, before the first row, each claiming rows from one
    _RowClaims.  A child sends each row back as one
    JSON line and ends in os._exit, never writing to stdout or stderr.  Each
    row is deterministic on its own (factoring seeds its own generator, the
    caches are per level), so the rows do not depend on which process ran
    them.  Restricting the CPUs (``taskset -c 0``) gives one process."""
    workers = _worker_count(len(primes))
    rows: list = [None] * len(primes)
    claims = _RowClaims(len(primes))
    children: dict[int, tuple[int, list[bytes]]] = {}  # pid -> result pipe, what it sent
    try:
        if workers > 1:
            sys.stdout.flush()
            sys.stderr.flush()
        for _ in range(workers - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the workers so far take the rows
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                status = 1
                try:
                    claims.close_writer()
                    claims.backlog.clear()
                    with open(write_fd, "w", encoding="utf-8") as out:
                        while (row := claims.claim()) is not None:
                            report = _row_report(row, primes[row], rho_budget)
                            print(json.dumps(report), file=out, flush=True)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[pid] = (read_fd, [])
        while (row := claims.claim()) is not None:
            try:
                rows[row] = compute_class_group(primes[row], 1, factor=True, rho_budget=rho_budget)
            except Exception as exc:
                rows[row] = exc
            for fd, sent in children.values():  # so that no child waits on a full pipe
                sent.append(_read_pipe(fd, wait=False))
        for fd, sent in children.values():
            sent.append(_read_pipe(fd, wait=True))
    except BaseException:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        claims.close()
        for pid, (fd, _) in children.items():
            os.close(fd)
            os.waitpid(pid, 0)
    for _, sent in children.values():
        for line in b"".join(sent).split(b"\n")[:-1]:  # a cut last line is unreported
            report = json.loads(line)
            rows[report["row"]] = _from_report(report, primes[report["row"]])
    return [
        RuntimeError(f"table row p = {p} was claimed by a worker process "
                     "that exited without reporting it")
        if row is None else row
        for p, row in zip(primes, rows)
    ]


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
