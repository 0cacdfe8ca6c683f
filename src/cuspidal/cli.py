"""Command-line surface.

Subcommands: ``order`` (one class group order, optionally factored),
``table`` (factored orders over a prime range), ``verify`` (invariant
suites), ``crosscheck`` (the gcd harness over point-count data), and
``genus`` (genus / cusp count).  Exit codes are a stable contract:
0 success, 1 verification failure, 2 usage or input error, 3 internal
invariant violation.

The layer modules are the package's lazy modules (``cuspidal/__init__``):
importing them here runs none, and a command runs only those it reads.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import arith, cartan, classgroup, crosscheck, verify
from ._version import __version__
from .errors import SIZE_GUARD, InvariantViolation, brief_int


def _load(module) -> None:
    """Compile and run a lazy module now rather than at its first use."""
    module.__name__


TABLE_GUARD = 101


class UsageError(Exception):
    pass


def _require_level(p: int, k: int = 1) -> None:
    try:
        cartan.validate_pk(p, k)
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
    return [p for p in range(lo, hi + 1) if arith.is_prime(p) is not arith.Primality.COMPOSITE]


def cmd_order(args) -> int:
    _require_guarded_level(args.p, args.k, args.force)
    res = classgroup.compute_class_group(
        args.p, args.k, factor=args.factor or args.json, rho_budget=_rho_budget(args)
    )
    if args.json:
        print(_json_record(res))
    elif args.factor:
        print(res.factored_str())
    else:
        print(res.order)
    return 0


def _rho_budget(args) -> int:
    # the parser leaves the default unset, so that building it loads no layer
    return arith.DEFAULT_RHO_BUDGET if args.rho_budget is None else args.rho_budget


def _json_record(res) -> str:
    import json

    return json.dumps(res.to_json_dict())


def table_row(res) -> str:
    return f"{res.p}\t{res.order}\t{res.factored_str()}"


def cmd_table(args) -> int:
    if args.pmax > TABLE_GUARD and not args.force:
        raise UsageError(
            f"--pmax {args.pmax} exceeds the guard {TABLE_GUARD}; pass --force to override"
        )
    primes = _primes_in(5, args.pmax)
    for p, report in zip(primes, _table_rows(primes, _rho_budget(args), args.json)):
        # the rows below a failed one are printed, as a sequential run would
        if report is None:
            raise RuntimeError(f"table row p = {p} was claimed by a worker process "
                               "that exited without reporting it")
        if "invariant" in report:
            raise InvariantViolation(report["invariant"])
        if "traceback" in report:
            raise RuntimeError(f"table row p = {p} failed:\n{report['traceback']}")
        print(report["line"])
    return 0


_TOKEN_BYTES = 4  # one row index in the claim pipe


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        return os.cpu_count() or 1


def _worker_count(rows: int) -> int:
    """One process per usable CPU, at most one per row; one alone where
    there is no fork, where other threads run (a forked child has only the
    calling thread, and a lock another thread holds stays held in it), or
    where the rows' tokens do not fit in one atomic write to the claim pipe
    (PIPE_BUF bytes, 1024 rows on Linux)."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    import select

    if rows > select.PIPE_BUF // _TOKEN_BYTES:
        return 1
    return max(1, min(rows, _usable_cpus()))


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


def _row_report(row: int, p: int, rho_budget: int, as_json: bool) -> dict:
    """Table row ``row``, level p: its output line, or the message of its
    invariant violation, or the traceback of any other error."""
    try:
        res = classgroup.compute_class_group(p, 1, factor=True, rho_budget=rho_budget)
    except InvariantViolation as exc:
        return {"row": row, "invariant": str(exc)}
    except Exception:
        import traceback

        return {"row": row, "traceback": traceback.format_exc()}
    return {"row": row, "line": _json_record(res) if as_json else table_row(res)}


def _table_rows(primes: list[int], rho_budget: int, as_json: bool) -> list:
    """Each prime's _row_report, or None for a row that a worker process
    claimed and did not report.

    The rows run on _worker_count processes: the parent and W - 1 children
    forked once, before the first row.  Every row's token, largest p first
    (the costliest rows start early), is written to one claim pipe before
    the first fork, and a process claims a row by reading its token, so each
    row is claimed once.  A child sends each report back as one JSON line
    and ends in os._exit, never writing to stdout or stderr.  Each row is
    deterministic on its own (factoring seeds its own generator, the caches
    are per level), so the rows do not depend on which process ran them.
    Restricting the CPUs (``taskset -c 0``) gives one process."""
    workers = _worker_count(len(primes))
    if workers == 1:
        return [_row_report(row, p, rho_budget, as_json) for row, p in enumerate(primes)]
    # the report lines' codec and the rows' module, loaded once here rather
    # than in every worker after the fork
    import json

    _load(classgroup)
    sys.stdout.flush()
    sys.stderr.flush()
    reports: list = [None] * len(primes)
    claims, write_fd = os.pipe()
    tokens = (row.to_bytes(_TOKEN_BYTES, "big") for row in reversed(range(len(primes))))
    os.write(write_fd, b"".join(tokens))  # at most PIPE_BUF bytes: written whole
    os.close(write_fd)
    children: dict[int, tuple[int, list[bytes]]] = {}  # pid -> result pipe, what it sent
    try:
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
                    with open(write_fd, "w", encoding="utf-8") as out:
                        while token := os.read(claims, _TOKEN_BYTES):
                            row = int.from_bytes(token, "big")
                            report = _row_report(row, primes[row], rho_budget, as_json)
                            print(json.dumps(report), file=out, flush=True)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[pid] = (read_fd, [])
        while token := os.read(claims, _TOKEN_BYTES):
            row = int.from_bytes(token, "big")
            reports[row] = _row_report(row, primes[row], rho_budget, as_json)
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
        os.close(claims)
        for pid, (fd, _) in children.items():
            os.close(fd)
            os.waitpid(pid, 0)
    for _, sent in children.values():
        for line in b"".join(sent).split(b"\n")[:-1]:  # a cut last line is unreported
            report = json.loads(line)
            reports[report["row"]] = report
    return reports


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

    checks = verify.algebraic_checks(args.p, args.k)
    if args.structure:
        checks += verify.structure_checks(args.p, args.k)
    if args.eps_independence:
        checks += verify.eps_independence_checks(args.p, args.k)
    if args.analytic:
        checks += verify.analytic_checks(args.p)

    failed = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  ({check.detail})" if check.detail else ""
        print(f"{status}  {check.name}{detail}")
        failed += not check.passed
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def cmd_crosscheck(args) -> int:
    # classgroup is compiled first, on the smallest heap: compiled after the
    # crosscheck module and its records, it sets a higher peak
    _load(classgroup)
    bundled = args.path is None
    path = crosscheck.bundled_fixture_path() if bundled else args.path
    try:
        # crosscheck has no --force: a row above the size guard is rejected
        # outright, before its primality test and before any order is computed
        report = crosscheck.load_records(path)
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
        order_p = classgroup.compute_class_group(p, 1, factor=False).order
        harness = crosscheck.gcd_harness(p, report.for_p(p), order_p)
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
            ok, problems = crosscheck.fixture_identities_ok(harness)
            for problem in problems:
                print(f"  IDENTITY FAILED: {problem}")
            all_ok = all_ok and ok
    return 0 if all_ok else 1


def cmd_genus(args) -> int:
    _require_guarded_level(args.p, 1, args.force)
    print(f"genus {cartan.genus_plus(args.p)}")
    print(f"cusps {cartan.cusp_count_plus(args.p)}")
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
    p_order.add_argument("--rho-budget", type=int,
                         help="factoring step budget for the call (rho and ECM)")
    p_order.set_defaults(func=cmd_order)

    p_table = sub.add_parser("table", help="factored orders for primes 5..pmax")
    p_table.add_argument("--pmax", type=int, default=TABLE_GUARD)
    p_table.add_argument("--json", action="store_true", help="one JSON record per line")
    p_table.add_argument("--rho-budget", type=int,
                         help="factoring step budget per level (rho and ECM)")
    p_table.add_argument("--force", action="store_true", help="override the pmax guard")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run invariant suites")
    add_common(p_verify)
    p_verify.add_argument("--structure", action="store_true",
                          help="also check the invariant-factor route, and at k = 1 "
                          "the Bernoulli route")
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
