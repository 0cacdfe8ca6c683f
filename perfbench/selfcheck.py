"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

A wrong golden, a command that exits non-zero and a command that times out
must each count as one failed command, in plain and traced passes, while the
commands after them still run and pass.  The ``table`` goldens must agree
with ``src/cuspidal/data/table1.csv`` on every level the table lists, in
value and in factored form.  Exits 0 and prints ``selfcheck ok`` on success.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {what}")


def check_failures_are_counted(goldens: dict) -> None:
    good = ["order", "-p", "11", "-k", "2"]
    corrupted = ["order", "-p", "5", "-k", "3"]
    usage_error = ["order", "-p", "4"]
    too_slow = ["order", "-p", "7", "-k", "3"]
    wrong = dict(goldens, **{run.label(corrupted): ["0"]})
    bench = run.Bench(wrong, time.perf_counter() + 120, command_timeout=3.0)

    _, runs = bench.run_pass([corrupted, usage_error, too_slow, good])
    expect([r.rc for r in runs] == [0, 2, None, 0], f"exit codes {[r.rc for r in runs]}")
    _, runs = bench.run_pass([corrupted, good], traced=True)
    expect(all(r.payload for r in runs), "traced runs returned no spans")

    expect(bench.attempted == 6, f"attempted {bench.attempted}, expected 6")
    reasons = bench.failures
    expect(len(reasons) == 4, f"failures {reasons}")
    expect("differs from golden" in reasons[0], reasons[0])
    expect(reasons[1].startswith(run.label(usage_error) + ": exit 2"), reasons[1])
    expect("timed out" in reasons[2], reasons[2])
    expect("[traced]" in reasons[3] and "differs from golden" in reasons[3], reasons[3])


def check_table_goldens(goldens: dict) -> None:
    reference = {}
    csv = run.ROOT / "src" / "cuspidal" / "data" / "table1.csv"
    for line in csv.read_text().splitlines():
        if line[:1].isdigit():
            p, factored = line.split(",", 1)
            reference[p] = factored
    rows = [row.split("\t") for row in goldens["table --pmax 101"]]
    matched = 0
    for p, order, factored in rows:
        if p not in reference:
            continue
        expect(factored == reference[p], f"p = {p}: {factored} vs {reference[p]}")
        value = math.prod(
            int(base.strip("[]")) ** int(exp or 1)
            for base, _, exp in (t.partition("^") for t in factored.split(" * "))
        )
        expect(value == int(order), f"p = {p}: {order} is not {factored}")
        matched += 1
    expect(matched == len(reference), f"only {matched} of {len(reference)} table1.csv rows")


def main() -> int:
    goldens = json.loads((run.HERE / "goldens.json").read_text())
    check_table_goldens(goldens)
    check_failures_are_counted(goldens)
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
