"""Benchmark of the cuspidal command line.

    python3 perfbench/run.py --workload table --seed 1 --seconds 40 --trace 0

Run it from the repository root; it runs the program from ``src``.  Each
command is ``python -m cuspidal.cli ...`` in a fresh process, one at a time,
from this one parent process: a closed loop with one client, so every
command pays interpreter start, imports and the per-level caches as a CLI
user does.  A pass runs every command of the workload once, in an order
fixed by the seed; passes repeat while another one fits in ``--seconds``.
Every output is compared with ``perfbench/goldens.json``.  A non-zero exit,
an output that differs from its golden, or a timeout counts as a failed
command; the run goes on.

Workloads (the seed only permutes command order):
  table     ``table --pmax 101``: 24 small k = 1 levels; factoring the orders
            (the p = 83 row above all) is most of the time.
  order_pk  ``order`` at 5^3, 11^2, 13^2, 7^3: few large levels, no factoring;
            the Bareiss determinant is most of the time.
  verify    ``verify --structure`` at 53, 101, 5^3, 11^2, 13^2, plus
            ``verify -p 7 --analytic`` and ``crosscheck``: Smith form,
            Bernoulli route, float check, q-series and the gcd harness.
Left out on purpose:
  * ``order --factor`` at k >= 2: rho has no overall budget yet (about 100 s
    at 13^2, more than 14 min at 7^3).
  * ``verify --structure`` at 7^3: the Smith form alone takes about 50 s.
  * ``table --parallel``: not used, so the flag can be removed without
    changing the benchmark.

--trace 0 prints the end-to-end metrics: ``wall_s`` (median wall time of a
pass, first spawn to last exit), ``setup_s`` (median wall time of
``cuspidal --version``, three before every pass) and ``peak_rss_mb`` (largest max
RSS of any child).  ``wall_s`` and ``setup_s`` are scaled to a fixed host
speed by a reference job timed next to them (see ``REFERENCE``); the record
line keeps the unscaled times.  ``error_rate`` (failed / attempted commands)
goes to stderr with them; the result line carries ``attempted`` and ``failed``.

--trace 1 alternates untraced passes with traced ones, in which
``perfbench/traced.py`` runs each command with a span around every layer.
It prints each layer's self time (span minus child spans) summed over a
pass, the counters, and the tracing overhead (traced vs untraced pass).
The 10^6 trial-division sieve is built by the first ``factorize`` call of
each process (the epsilon square-free test in ``CartanContext.create``), so
that cost shows in ``arith.factor_ms`` on every workload.

The last line of stdout is the result; the line before it is the full
record: run metadata, per-command samples and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import traced as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "table": [["table", "--pmax", "101"]],
    "order_pk": [
        ["order", "-p", str(p), "-k", str(k)] for p, k in ((5, 3), (11, 2), (13, 2), (7, 3))
    ],
    "verify": [
        ["verify", "-p", str(p), "-k", str(k), "--structure"]
        for p, k in ((53, 1), (101, 1), (5, 3), (11, 2), (13, 2))
    ]
    + [["verify", "-p", "7", "--analytic"], ["crosscheck"]],
}

SETUP_PROBES = 3  # per pass
REFERENCE_PROBES = 4  # per pass, and after the last one
# The speed of a shared host drifts by 10-25% over minutes, more than medians
# inside one run can remove.  So the benchmark also times this fixed job, which
# does not use the program (a small-int loop and big-int modular squaring, as
# the program's arithmetic does), each in a fresh process next to the measured
# commands, and scales every time by REFERENCE_S / (the reference time measured
# next to it): times are given at a host speed where the job takes REFERENCE_S,
# about its median on a 2-vCPU x86-64 VM with Python 3.11.  On that VM this
# cut the spread of wall_s over runs from 0.09-0.24 to about 0.06 of the median.
REFERENCE_S = 0.25
REFERENCE = (
    "s = 0\nfor i in range(250000):\n    s += i * i % 7\n"
    "m = 7 ** 9000\nx = 3 ** 20000\nfor i in range(100):\n    x = x * x % m\n"
    "print(s, x % 1000003)\n"
)
COMMAND_TIMEOUT_S = 60.0
RUN_LIMIT_S = 160.0  # no command may run past this point of a run

LAYER_METRICS = tuple(dict.fromkeys(name for name, _, _ in tracing.LAYERS)) + (
    tracing.ROOT_SPAN,
)


def label(argv: list[str]) -> str:
    return " ".join(argv)


def key_lines(argv: list[str], stdout: str) -> list[str]:
    """The part of a command's output that the goldens pin down."""
    lines = stdout.splitlines()
    if argv[0] == "verify":
        # check names and status, the invariant factors and the N/N line;
        # other details (float residuals) are not results
        return [
            line if "invariant factors [" in line or "  (" not in line
            else line.split("  (")[0]
            for line in lines
        ]
    if argv[0] == "crosscheck":
        return [line.strip() for line in lines if "order" in line or "ratio" in line]
    return lines


def checks_passed(stdout: str) -> tuple[int, int]:
    m = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.M)
    return (int(m[1]), int(m[2])) if m else (0, 0)


@dataclass
class Run:
    seconds: float
    rc: int | None
    stdout: str = ""
    stderr: str = ""
    payload: dict | None = None


class Bench:
    """Spawns commands, checks them against the goldens and counts failures."""

    def __init__(self, goldens: dict, deadline: float, command_timeout=COMMAND_TIMEOUT_S):
        self.goldens = goldens
        self.deadline = deadline
        self.command_timeout = command_timeout
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)

    def spawn(self, argv: list[str], traced: bool = False) -> Run:
        timeout = min(self.command_timeout, self.deadline - time.perf_counter())
        if timeout <= 0:
            return Run(0.0, None, stderr="run time limit reached before start")
        entry = [str(HERE / "traced.py")] if traced else ["-m", "cuspidal.cli"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *entry, *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            elapsed = time.perf_counter() - start
            return Run(elapsed, None, stderr=f"timed out after {timeout:.1f} s")
        run = Run(time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)
        if traced and proc.returncode == 0:
            try:
                run.payload = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, ValueError):
                return Run(run.seconds, None, stderr="traced run printed no payload")
            run.rc, run.stdout, run.stderr = (
                run.payload["rc"], run.payload["stdout"], run.payload["stderr"]
            )
        return run

    def reference(self) -> float:
        """Wall time of one run of REFERENCE in a fresh process."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REFERENCE], check=True,
                       capture_output=True, timeout=self.command_timeout)
        return time.perf_counter() - start

    def record(self, argv: list[str], run: Run, traced: bool = False) -> None:
        """Count one attempted command and whether it failed."""
        name = label(argv) + (" [traced]" if traced else "")
        self.attempted += 1
        self.samples[name].append(run.seconds)
        if run.rc is None:
            reason = run.stderr
        elif run.rc != 0:
            reason = f"exit {run.rc}: {run.stderr.strip()[-300:]}"
        elif argv == ["--version"]:
            reason = None if run.stdout.startswith("cuspidal ") else "unexpected version line"
        elif key_lines(argv, run.stdout) != self.goldens.get(label(argv)):
            reason = "output differs from golden"
        else:
            reason = None
        if reason:
            self.failures.append(f"{name}: {reason}")
            print(f"FAILED {name}: {reason}", file=sys.stderr)

    def run_pass(self, commands: list[list[str]], traced: bool = False):
        """Run every command once.  Returns (wall time from the first spawn
        to the last exit, the runs)."""
        start = time.perf_counter()
        runs = [self.spawn(argv, traced) for argv in commands]
        wall = time.perf_counter() - start
        for argv, run in zip(commands, runs):
            self.record(argv, run, traced)
        return wall, runs

    def repeat(self, seconds: float, one_pass) -> list:
        """Call one_pass until the next call would end after ``seconds``."""
        start = time.perf_counter()
        results = []
        while True:
            t0 = time.perf_counter()
            results.append(one_pass())
            now = time.perf_counter()
            if now + (now - t0) > min(start + seconds, self.deadline):
                return results


def layer_metrics(runs: list[Run]) -> dict[str, float]:
    """Self time (ms) per span name, summed over the traced commands of a pass."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for run in runs:
        if run.payload is None:
            continue
        spans = run.payload["spans"]
        child = [0.0] * len(spans)
        for name, _, start, end, parent in spans:
            if parent is not None:
                child[parent] += end - start
        for (name, _, start, end, _), inner in zip(spans, child):
            out[name] += (end - start - inner) * 1000
    return out


def counter_metrics(runs: list[Run]) -> dict[str, tuple[float, str]]:
    c = defaultdict(int)
    for run in runs:
        if run.payload is None:
            continue
        for key, value in run.payload["counters"].items():
            c[key] = max(c[key], value) if key.endswith("_max") else c[key] + value
    passed = [checks_passed(run.stdout) for run in runs]
    total = sum(t for _, t in passed)
    attempts = c["factor_attempts"]
    return {
        "cartan.classes": (c["classes"], "count"),
        "classgroup.n": (c["n_max"], "count"),
        "classgroup.det_bits": (c["det_bits_max"], "bits"),
        "classgroup.inv_factor_max_bits": (c["inv_factor_bits_max"], "bits"),
        "arith.factor_complete_ratio": (
            c["factor_complete"] / attempts if attempts else 0.0, "ratio"
        ),
        "arith.unsplit_digits": (c["unsplit_digits"], "digits"),
        "verify.checks_passed_ratio": (
            sum(p for p, _ in passed) / total if total else 0.0, "ratio"
        ),
        "crosscheck.rows_rejected": (
            sum(run.stderr.count("rejected row:") for run in runs), "count"
        ),
    }


def run_untraced(bench: Bench, commands, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, with every time scaled to the reference speed.

    Before each pass the setup probes alternate with reference jobs, and one
    more group of reference jobs follows the last pass.  A probe is scaled by
    the mean reference time of its own group, a pass by the mean of the groups
    before and after it.  Returns the metrics and the unscaled times."""
    setup = []  # per pass: the --version probe times
    refs = []  # per group: the reference times

    def one_pass() -> float:
        probe_times, ref_times = [], []
        for i in range(max(SETUP_PROBES, REFERENCE_PROBES)):
            if i < SETUP_PROBES:
                run = bench.spawn(["--version"])
                bench.record(["--version"], run)
                probe_times.append(run.seconds)
            if i < REFERENCE_PROBES:
                ref_times.append(bench.reference())
        setup.append(probe_times)
        refs.append(ref_times)
        return bench.run_pass(commands)[0]

    # the last reference group is part of the measured time
    walls = bench.repeat(seconds - REFERENCE_PROBES * REFERENCE_S, one_pass)
    refs.append([bench.reference() for _ in range(REFERENCE_PROBES)])
    own = [statistics.mean(r) for r in refs]
    around = [statistics.mean(refs[i] + refs[i + 1]) for i in range(len(walls))]
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": (statistics.median(
            w * REFERENCE_S / r for w, r in zip(walls, around)), "s"),
        "setup_s": (statistics.median(
            t * REFERENCE_S / r for ts, r in zip(setup, own) for t in ts), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    unscaled = {
        "wall_s": walls,
        "setup_s": [t for ts in setup for t in ts],
        "reference_s": [t for ts in refs for t in ts],
    }
    return metrics, unscaled


def run_traced(bench: Bench, commands, seconds: float) -> tuple[dict, dict]:
    pairs = bench.repeat(
        seconds, lambda: (bench.run_pass(commands), bench.run_pass(commands, traced=True))
    )
    plain = statistics.median(p[0][0] for p in pairs)
    with_spans = statistics.median(p[1][0] for p in pairs)
    per_pass = [layer_metrics(p[1][1]) for p in pairs]
    metrics = {
        name: (statistics.median(m[name] for m in per_pass), "ms") for name in LAYER_METRICS
    }
    last_runs = pairs[-1][1][1]
    metrics.update(counter_metrics(last_runs))
    metrics["trace.overhead_pct"] = ((with_spans / plain - 1) * 100, "%")
    spans = {label(a): r.payload["spans"] for a, r in zip(commands, last_runs) if r.payload}
    return metrics, spans


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.perf_counter()

    if not (ROOT / "src" / "cuspidal" / "__init__.py").is_file():
        print(f"error: no cuspidal package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = json.loads((HERE / "goldens.json").read_text())
    commands = [list(argv) for argv in WORKLOADS[args.workload]]
    random.Random(args.seed).shuffle(commands)
    bench = Bench(goldens, start + RUN_LIMIT_S)

    spans = unscaled = None
    if args.trace:
        metrics, spans = run_traced(bench, commands, args.seconds)
    else:
        metrics, unscaled = run_untraced(bench, commands, args.seconds)

    summary = dict(metrics, error_rate=(len(bench.failures) / bench.attempted, "ratio"))
    for name, (value, unit) in summary.items():
        print(f"{args.workload:9s} {name:32s} {value:14.6f} {unit}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "command_order": [label(argv) for argv in commands],
        "samples": {name: {"count": len(s), "median_s": statistics.median(s)}
                    for name, s in bench.samples.items()},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in summary.items()},
        "failures": bench.failures,
        "unscaled": unscaled,
        "spans": spans,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
