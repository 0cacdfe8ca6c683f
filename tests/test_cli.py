import json
from pathlib import Path

from cuspidal.arith import DEFAULT_RHO_BUDGET
from cuspidal.classgroup import ClassGroupResult
from cuspidal.cli import main, table_row
from cuspidal.reference import reference_order, reference_table


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


def test_size_guard_and_force(capsys):
    code, _, err = run(capsys, "order", "-p", "101", "-k", "2")
    assert code == 2 and "--force" in err
    # forcing is possible but would be slow; just check the guard message


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


def test_order_table_and_crosscheck_enumerate_no_class(capsys, no_class_enumeration):
    for argv in (("order", "-p", "5", "-k", "3"), ("table", "--pmax", "23"),
                 ("crosscheck", "-p", "29")):
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


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


def test_table_matches_reference_prefix(capsys):
    code, out, _ = run(capsys, "table", "--pmax", "23")
    assert code == 0
    table = reference_table()
    expected = []
    for p in (5, 7, 11, 13, 17, 19, 23):
        expected.append(f"{p}\t{reference_order(p)}\t{table[p]}")
    assert out.splitlines() == expected


def test_table_parallel_flag_is_gone(capsys):
    # rows are pure-Python work: threads never sped them up, so the flag went
    code, _, err = run(capsys, "table", "--pmax", "19", "--parallel", "4")
    assert code == 2 and "--parallel" in err


def test_table_pmax_101_matches_goldens_with_bounded_caches(capsys):
    from cuspidal import cartan, classgroup, stickelberger

    goldens_path = Path(__file__).parents[1] / "perfbench" / "goldens.json"
    goldens = json.loads(goldens_path.read_text())
    code, out, _ = run(capsys, "table", "--pmax", "101")
    assert code == 0
    assert out.splitlines() == goldens["table --pmax 101"]
    caches = (
        cartan.h_index_table,
        cartan.norm_class_partition,
        stickelberger.compute_a,
        stickelberger.theta,
        stickelberger.theta_prime,
        stickelberger.stickelberger_data,
        classgroup.circulant_theta_prime,
        classgroup.theta_prime_norms,
    )
    for fn in caches:
        info = fn.cache_info()
        assert info.maxsize == cartan.CONTEXT_CACHE_SIZE, fn.__name__
        assert info.currsize <= info.maxsize, fn.__name__


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

    from cuspidal import classgroup
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
    # the float check; the Bernoulli route's own matrix is the only other one
    theta_row = classgroup.circulant_theta_prime(CartanContext.create(53))
    assert calls[theta_row] == 1
    assert len(calls) == 2 and set(calls.values()) == {1}


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


def test_crosscheck_user_file_reports_bad_rows(capsys, tmp_path):
    f = tmp_path / "user.csv"
    f.write_text("p,q,label,value\n11,24,J,5\n11,23,J,33\n")
    code, out, err = run(capsys, "crosscheck", str(f))
    assert code == 0  # user data is reported, not judged
    assert "rejected row" in err
    assert "p=11" in out


def test_rho_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CUSPIDAL_RHO_BUDGET", "not-a-number")
    code, _, err = run(capsys, "order", "-p", "5")
    assert code == 2 and "CUSPIDAL_RHO_BUDGET" in err
    monkeypatch.setenv("CUSPIDAL_RHO_BUDGET", "1000")
    code, out, _ = run(capsys, "order", "-p", "13", "--factor")
    assert code == 0 and out.strip() == "7 * 13^2"


def test_table_row_format():
    res = ClassGroupResult(
        p=13, k=1, order=1183, cusps=6, epsilon=7, generator=2
    )
    assert table_row(res) == "13\t1183\t1183"


def test_failed_check_maps_to_exit_1(capsys, monkeypatch):
    from cuspidal import cli
    from cuspidal.verify import Check

    monkeypatch.setattr(
        cli, "algebraic_checks", lambda p, k: [Check("forced failure", False, "")]
    )
    code, out, _ = run(capsys, "verify", "-p", "11")
    assert code == 1 and "FAIL" in out


def test_internal_violation_maps_to_exit_3(capsys, monkeypatch):
    from cuspidal import cli
    from cuspidal.errors import InvariantViolation

    def boom(*args, **kwargs):
        raise InvariantViolation("forced")

    monkeypatch.setattr(cli, "compute_class_group", boom)
    code, _, err = run(capsys, "order", "-p", "5")
    assert code == 3 and "invariant violation" in err
