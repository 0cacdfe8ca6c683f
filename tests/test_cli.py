import json
import os
import sys
from pathlib import Path

import pytest

from cuspidal.arith import DEFAULT_RHO_BUDGET
from cuspidal.classgroup import ClassGroupResult
from cuspidal.cli import main, table_row
from cuspidal.errors import InvariantViolation
from oracles import reference_order, reference_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_plain(capsys):
    code, out, _ = run(capsys, "order", "-p", "5")
    assert code == 0 and out.strip() == "1"


def test_order_factored(capsys):
    code, out, _ = run(capsys, "order", "-p", "13", "--factor")
    assert code == 0 and out.strip() == "7 * 13^2"


def test_order_rejects_composite(capsys):
    code, _, err = run(capsys, "order", "-p", "4")
    assert code == 2 and "prime >= 5" in err


def test_order_rejects_small_k(capsys):
    code, _, err = run(capsys, "order", "-p", "5", "-k", "0")
    assert code == 2


def test_order_factor_13_squared_completes(capsys):
    # the 51-digit cofactor (squared) in this order splits only by ECM
    code, out, _ = run(capsys, "order", "-p", "13", "-k", "2", "--factor")
    assert code == 0
    assert out.strip() == (
        "7 * 13^78 * 53^2 * 79^4 * 1249^2 * 7151^2 * 19199607103951^2"
        " * 35772957575456089^2 * 292252642963019318269^2"
    )
    # and it does so within the default budget, with none of it run out
    code, out, _ = run(capsys, "order", "-p", "13", "-k", "2", "--factor", "--json")
    data = json.loads(out)
    assert code == 0 and data["factor_budget_exhausted"] is False
    assert 0 < data["factor_steps_used"] <= DEFAULT_RHO_BUDGET


def test_size_guard_and_force(capsys, monkeypatch):
    from cuspidal import arith, cartan

    code, _, err = run(capsys, "order", "-p", "101", "-k", "2")
    assert code == 2 and "--force" in err
    # forcing is possible but would be slow; just check the guard message
    # --analytic above the table guard: its Klein-law grid has p^2 points
    # (about 4 s at p = 103 with --force on a 2-vCPU VM)
    code, _, err = run(capsys, "verify", "-p", "103", "--analytic")
    assert code == 2 and "--force" in err
    # a huge k is refused without forming p^k (5^(10^6) has 698 971 digits)
    for command in ("order", "verify"):
        code, _, err = run(capsys, command, "-p", "5", "-k", "1000000")
        assert code == 2 and "--force" in err
        assert len(err.encode()) < 200, len(err)
    # a huge p is refused before its primality test (about 3 s at 10^3000),
    # and the message gives its digit count, not its 3001 digits
    huge = 10**3000 + 7
    tested = []
    for module in (cartan, arith):
        real = module.is_prime
        monkeypatch.setattr(module, "is_prime", lambda n, real=real: tested.append(n) or real(n))
    for command in ("order", "verify", "genus"):
        code, _, err = run(capsys, command, "-p", str(huge))
        assert code == 2 and "--force" in err
        assert len(err.encode()) < 200, len(err)
    assert huge not in tested


def test_order_json_round_trip(capsys):
    code, out, _ = run(capsys, "order", "-p", "17", "--json")
    assert code == 0
    data = json.loads(out)
    res = ClassGroupResult.from_json_dict(data)
    assert res.order == 2**4 * 3 * 17**3
    assert res.to_json_dict() == data


def test_order_json_times_the_bucket_sums(capsys):
    code, out, _ = run(capsys, "order", "-p", "7", "-k", "2", "--json")
    assert code == 0
    timings = json.loads(out)["timings_ms"]
    assert isinstance(timings["bucket_sums_ms"], float)
    assert isinstance(timings["order_ms"], float)


# every verify suite, at k = 1, 2 and 3
VERIFY_ARGVS = (
    ("verify", "-p", "5", "--analytic", "--structure", "--eps-independence"),
    ("verify", "-p", "7", "--analytic"),
    ("verify", "-p", "13", "-k", "2", "--structure"),
    ("verify", "-p", "5", "-k", "3", "--eps-independence"),
)


def test_order_table_and_crosscheck_enumerate_no_class(capsys, no_class_enumeration):
    for argv in (("order", "-p", "5", "-k", "3"), ("table", "--pmax", "23"),
                 ("crosscheck", "-p", "29")) + VERIFY_ARGVS:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_verify_builds_no_group_ring_fraction_or_dense_lattice(
    capsys, no_group_ring_fractions, no_dense_lattice
):
    for argv in VERIFY_ARGVS:
        code, out, err = run(capsys, *argv)
        assert code == 0 and "FAIL" not in out, (argv, out, err)


def test_usage_error_exit_code(capsys):
    assert main(["order"]) == 2  # missing -p
    assert main(["nonsense"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_genus_output(capsys):
    code, out, _ = run(capsys, "genus", "-p", "5")
    assert code == 0
    assert out.splitlines() == ["genus 0", "cusps 2"]
    code, out, _ = run(capsys, "genus", "-p", "7")
    assert out.splitlines() == ["genus 0", "cusps 3"]
    code, out, _ = run(capsys, "genus", "-p", "11")
    assert out.splitlines() == ["genus 1", "cusps 5"]
    # genus has the size guard of the other level commands
    code, _, err = run(capsys, "genus", "-p", "10007")
    assert code == 2 and "--force" in err
    code, out, _ = run(capsys, "genus", "-p", "10007", "--force")
    assert code == 0 and out.splitlines() == ["genus 4168333", "cusps 5003"]


def test_table_matches_reference_prefix(capsys):
    code, out, _ = run(capsys, "table", "--pmax", "23")
    assert code == 0
    table = reference_table()
    expected = []
    for p in (5, 7, 11, 13, 17, 19, 23):
        expected.append(f"{p}\t{reference_order(p)}\t{table[p]}")
    assert out.splitlines() == expected


def test_table_parallel_flag_is_gone(capsys):
    # threads never sped the pure-Python rows up, so the flag went; the rows
    # now run on one process per usable CPU with no flag
    code, _, err = run(capsys, "table", "--pmax", "19", "--parallel", "4")
    assert code == 2 and "--parallel" in err


def test_table_pmax_101_matches_goldens_with_bounded_caches(capsys):
    from cuspidal import cartan, classgroup, stickelberger

    code, out, _ = run(capsys, "table", "--pmax", "101")
    assert code == 0
    assert out.splitlines() == table_goldens()
    caches = (
        cartan.find_generator_H,
        cartan.h_index_table,
        cartan.norm_class_partition,
        stickelberger.theta_prime_row,
        stickelberger.compute_a,
        stickelberger.theta,
        stickelberger.theta_prime,
        stickelberger.stickelberger_data,
        classgroup.theta_prime_norms,
    )
    for fn in caches:
        info = fn.cache_info()
        assert info.maxsize == cartan.CONTEXT_CACHE_SIZE, fn.__name__
        assert info.currsize <= info.maxsize, fn.__name__


def table_goldens():
    goldens_path = Path(__file__).parents[1] / "perfbench" / "goldens.json"
    return json.loads(goldens_path.read_text())["table --pmax 101"]


def rows_below_83():
    return [line for line in table_goldens() if int(line.split("\t")[0]) < 83]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def with_cpus(monkeypatch, cpus):
    from cuspidal import cli

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


def without_timings(json_lines):
    rows = [json.loads(line) for line in json_lines.splitlines()]
    for row in rows:
        assert set(row.pop("timings_ms")) == {"bucket_sums_ms", "order_ms", "factor_ms"}
    return rows


def test_table_rows_do_not_depend_on_the_worker_count(capsys, monkeypatch):
    # two CPUs forks a worker even on a one-CPU host
    outputs = {}
    for cpus in (1, 2):
        with_cpus(monkeypatch, cpus)
        code, text, err = run(capsys, "table", "--pmax", "101")
        assert code == 0 and err == ""
        assert_no_child_left()
        code, json_lines, err = run(capsys, "table", "--pmax", "101", "--json")
        assert code == 0 and err == ""
        assert_no_child_left()
        outputs[cpus] = (text, without_timings(json_lines))
    assert outputs[1] == outputs[2]
    assert outputs[1][0].splitlines() == table_goldens()


def row_pids(monkeypatch):
    """A list of the pid that computed each row; a forked worker's rows are
    not in it, as a worker appends to its own copy."""
    from cuspidal import classgroup

    real = classgroup.compute_class_group
    pids = []

    def compute(*args, **kwargs):
        pids.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(classgroup, "compute_class_group", compute)
    return pids


def test_table_forks_no_worker_while_other_threads_run(capsys, monkeypatch):
    import threading

    pids = row_pids(monkeypatch)
    with_cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        code, out, _ = run(capsys, "table", "--pmax", "23")
    finally:
        stop.set()
        thread.join(60)
    assert not thread.is_alive()
    assert code == 0 and out.splitlines() == table_goldens()[:7]
    assert pids == [os.getpid()] * 7  # every row ran here, none in a child
    assert_no_child_left()


def test_table_forks_no_worker_when_its_tokens_outgrow_one_pipe_write(capsys, monkeypatch):
    import select

    pids = row_pids(monkeypatch)
    with_cpus(monkeypatch, 2)
    # room for 6 row tokens in one atomic write: the 7 rows of --pmax 23 run here
    monkeypatch.setattr(select, "PIPE_BUF", 6 * 4)
    code, out, _ = run(capsys, "table", "--pmax", "23")
    assert code == 0 and out.splitlines() == table_goldens()[:7]
    assert pids == [os.getpid()] * 7  # every row ran here, none in a child
    assert_no_child_left()


def fail_at_83(monkeypatch, fail):
    """Make classgroup.compute_class_group call fail() at p = 83.  With a worker
    forked, the parent's first row waits until no worker holds a pipe's
    write end: a worker closes it on reaching p = 83, so that row is always
    a worker's.  Returns the pipe's read end, for the caller to close."""
    from cuspidal import classgroup

    real = classgroup.compute_class_group
    parent = os.getpid()
    read_fd, write_fd = os.pipe()
    waiting = [True]

    def compute(p, *args, **kwargs):
        if os.getpid() == parent and waiting:
            waiting.clear()
            os.close(write_fd)
            os.read(read_fd, 1)  # end of file once no worker holds write_fd
        if p == 83:
            if os.getpid() != parent:
                os.close(write_fd)
            fail()
        return real(p, *args, **kwargs)

    monkeypatch.setattr(classgroup, "compute_class_group", compute)
    return read_fd


@pytest.mark.parametrize("cpus", [1, 2])
def test_table_invariant_violation_prints_the_rows_below_it(capsys, monkeypatch, cpus):
    def fail():
        raise InvariantViolation("forced at p = 83")

    with_cpus(monkeypatch, cpus)
    read_fd = fail_at_83(monkeypatch, fail)
    try:
        code, out, err = run(capsys, "table", "--pmax", "101")
    finally:
        os.close(read_fd)
    assert_no_child_left()
    assert code == 3
    assert err == "internal invariant violation: forced at p = 83\n"
    assert out.splitlines() == rows_below_83()


@pytest.mark.parametrize("cpus", [1, 2])
def test_table_error_keeps_its_traceback(capsys, monkeypatch, cpus):
    def fail():
        raise ValueError("forced at p = 83")

    with_cpus(monkeypatch, cpus)
    read_fd = fail_at_83(monkeypatch, fail)
    try:
        # the row's traceback, whichever process ran it
        with pytest.raises(RuntimeError) as info:
            main(["table", "--pmax", "101"])
    finally:
        os.close(read_fd)
    assert_no_child_left()
    out, err = capsys.readouterr()
    assert out.splitlines() == rows_below_83() and err == ""
    message = str(info.value)
    assert "table row p = 83" in message
    assert "Traceback" in message and "ValueError: forced at p = 83" in message


def test_a_spy_in_a_worker_still_fails_the_table(capsys, monkeypatch, no_class_enumeration):
    # the spies of test_order_table_and_crosscheck_enumerate_no_class reach
    # the rows a forked worker runs
    from cuspidal import cartan

    def enumerate_classes():
        cartan.norm_class_partition(cartan.CartanContext.create(83, 1))

    with_cpus(monkeypatch, 2)
    read_fd = fail_at_83(monkeypatch, enumerate_classes)
    try:
        with pytest.raises(RuntimeError, match="the unit classes were enumerated"):
            main(["table", "--pmax", "101"])
    finally:
        os.close(read_fd)
    assert_no_child_left()
    assert capsys.readouterr().out.splitlines() == rows_below_83()


def test_table_fails_loudly_when_a_worker_dies(capsys, monkeypatch):
    with_cpus(monkeypatch, 2)
    read_fd = fail_at_83(monkeypatch, lambda: os._exit(9))
    try:
        with pytest.raises(RuntimeError, match="table row p = 83 .* without reporting it"):
            main(["table", "--pmax", "101"])
    finally:
        os.close(read_fd)
    assert_no_child_left()
    out, err = capsys.readouterr()
    assert out.splitlines() == rows_below_83() and err == ""


def test_table_guard(capsys):
    code, _, err = run(capsys, "table", "--pmax", "103")
    assert code == 2 and "--force" in err


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--pmax", "11", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["p"] for r in rows] == [5, 7, 11]
    assert rows[2]["order"] == "11"


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "-p", "11")
    assert code == 0
    assert "FAIL" not in out and "PASS" in out


def test_verify_analytic_p5(capsys):
    code, out, _ = run(capsys, "verify", "-p", "5", "--analytic")
    assert code == 0
    assert "dihedral sign" in out and "FAIL" not in out


def test_verify_structure_computes_each_orbit_norm_once(capsys, monkeypatch):
    from collections import Counter

    from cuspidal import classgroup, stickelberger
    from cuspidal.cartan import CartanContext

    calls = Counter()
    exact = classgroup.orbit_norms

    def counted(f):
        calls[tuple(f)] += 1
        return exact(f)

    monkeypatch.setattr(classgroup, "orbit_norms", counted)
    classgroup.theta_prime_norms.cache_clear()
    code, out, _ = run(capsys, "verify", "-p", "53", "--structure")
    assert code == 0 and "FAIL" not in out
    # one computation of the theta' norms serves order() in both routes and
    # the float check; the Bernoulli route's own call, on its own enumeration
    # of the same row, is the only other one
    assert classgroup.theta_prime_norms.cache_info().misses == 1
    theta_row = stickelberger.theta_prime_row(CartanContext.create(53))
    assert calls == Counter({theta_row: 2})


def test_verify_eps_independence_p13(capsys):
    code, out, _ = run(capsys, "verify", "-p", "13", "--eps-independence")
    assert code == 0 and "theta independent of eps" in out


def test_crosscheck_bundled(capsys):
    code, out, _ = run(capsys, "crosscheck")
    assert code == 0
    assert "p=11: order 11" in out
    assert "ratio 4" in out and "ratio 1" in out


def test_crosscheck_single_level(capsys):
    code, out, _ = run(capsys, "crosscheck", "-p", "31")
    assert code == 0
    assert "newform gcd product" in out


def test_crosscheck_missing_file(capsys):
    code, _, err = run(capsys, "crosscheck", "/no/such/file.csv")
    assert code == 2


def test_crosscheck_non_utf8_file_is_an_input_error(capsys, tmp_path):
    f = tmp_path / "latin.csv"
    f.write_bytes(b"\xff\xfe,bad")
    code, _, err = run(capsys, "crosscheck", str(f))
    assert code == 2 and "cannot read" in err


def test_crosscheck_user_file_reports_bad_rows(capsys, tmp_path):
    f = tmp_path / "user.csv"
    f.write_text("p,q,label,value\n11,24,J,5\n11,23,J,33\n")
    code, out, err = run(capsys, "crosscheck", str(f))
    assert code == 0  # user data is reported, not judged
    assert "rejected row" in err
    assert "p=11" in out


def test_crosscheck_refuses_a_level_above_the_size_guard(capsys, monkeypatch, tmp_path):
    from cuspidal import classgroup

    calls = []
    monkeypatch.setattr(classgroup, "compute_class_group", lambda *a, **kw: calls.append(a))
    # 240169 = 24 * 10007 + 1 is prime, so the row itself is well formed
    f = tmp_path / "big.csv"
    f.write_text("10007,240169,J,12\n")
    for extra in ((), ("-p", "10007")):
        code, out, err = run(capsys, "crosscheck", str(f), *extra)
        assert code == 2 and not out
        assert "10007" in err and "size guard 10000" in err and "--force" not in err
        assert len(err.encode()) < 200, err
    assert calls == []


def test_crosscheck_rejects_a_huge_p_before_its_primality_test(capsys, monkeypatch, tmp_path):
    from cuspidal import cartan, crosscheck

    # a row with p = 10^3000 + 7 is a rejected row at once, not after a
    # primality test of about 3 s, and the message gives its digit count
    huge = 10**3000 + 7
    tested = []
    for module in (cartan, crosscheck):
        real = module.is_prime
        monkeypatch.setattr(module, "is_prime", lambda n, real=real: tested.append(n) or real(n))
    f = tmp_path / "huge.csv"
    f.write_text(f"p,q,label,value\n{huge},29,J,12\n")
    code, out, err = run(capsys, "crosscheck", str(f))
    assert code == 2 and not out
    assert "rejected row: line 2:" in err and "size guard 10000" in err
    assert len(err.encode()) < 300, err
    assert huge not in tested


def test_crosscheck_rejects_a_q_off_the_residues_before_its_primality_test(
    capsys, monkeypatch, tmp_path
):
    from cuspidal import crosscheck

    # q = 10^3000 + 7 is 8 mod 11: the row is rejected by the cheap residue
    # test, not after a primality test of q (about 2.5 s), and the message
    # gives its digit count, not its 3001 digits
    huge = 10**3000 + 7
    tested = []
    real = crosscheck.is_prime
    monkeypatch.setattr(crosscheck, "is_prime", lambda n: tested.append(n) or real(n))
    f = tmp_path / "huge_q.csv"
    f.write_text(f"11,{huge},J,12\n")
    code, out, err = run(capsys, "crosscheck", str(f))
    assert code == 2 and not out
    assert "rejected row: line 1: q = <3001 digits> is not +-1 mod 11" in err
    assert all(len(line.encode()) < 200 for line in err.splitlines()), err
    assert huge not in tested


def test_table_row_format():
    res = ClassGroupResult(
        p=13, k=1, order=1183, cusps=6, epsilon=7, generator=2
    )
    assert table_row(res) == "13\t1183\t1183"


def test_failed_check_maps_to_exit_1(capsys, monkeypatch):
    from cuspidal import verify
    from cuspidal.verify import Check

    monkeypatch.setattr(
        verify, "algebraic_checks", lambda p, k: [Check("forced failure", False, "")]
    )
    code, out, _ = run(capsys, "verify", "-p", "11")
    assert code == 1 and "FAIL" in out


def test_internal_violation_maps_to_exit_3(capsys, monkeypatch):
    from cuspidal import classgroup
    from cuspidal.errors import InvariantViolation

    def boom(*args, **kwargs):
        raise InvariantViolation("forced")

    monkeypatch.setattr(classgroup, "compute_class_group", boom)
    code, _, err = run(capsys, "order", "-p", "5")
    assert code == 3 and "invariant violation" in err


@pytest.fixture
def default_digit_limit():
    """Run with Python's default 4300-digit int <-> str limit in force (an
    earlier ``main`` call in this process has lifted it), restored after."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:  # no limit before Python 3.10.7
        yield
        return
    before = get()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


def test_order_43_squared_prints_all_4419_digits(capsys, default_digit_limit):
    code, out, err = run(capsys, "order", "-p", "43", "-k", "2")
    assert code == 0 and err == ""
    digits = out.strip()
    assert len(digits) == 4419 and digits.isdigit()
    order_43 = int(digits)
    # factoring the unsplit 2900-digit cofactor is left to a budget of 0
    code, out, _ = run(capsys, "order", "-p", "43", "-k", "2", "--factor", "--rho-budget", "0")
    assert code == 0
    product = 1
    for term in out.strip().split(" * "):
        base, _, exp = term.partition("^")
        product *= int(base.strip("[]")) ** int(exp or 1)
    assert product == order_43
    code, out, _ = run(capsys, "order", "-p", "43", "-k", "2", "--json", "--rho-budget", "0")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == digits and data["factor_budget_exhausted"] is True


def test_structure_detail_past_the_digit_limit_passes(capsys, monkeypatch, default_digit_limit):
    from cuspidal import verify

    big = 10**4400 + 1
    monkeypatch.setattr(verify, "order", lambda ctx: big)
    monkeypatch.setattr(verify, "structure", lambda ctx: (1, big))
    code, out, _ = run(capsys, "verify", "-p", "5", "-k", "2", "--structure")
    assert code == 0
    line = next(s for s in out.splitlines() if "product of invariant factors" in s)
    assert line.startswith("PASS") and str(big) in line
