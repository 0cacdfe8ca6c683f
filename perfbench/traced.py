"""Run one cuspidal command in-process with a span around each layer.

    PYTHONPATH=src python3 perfbench/traced.py verify -p 53 --structure

The command goes through ``cuspidal.cli.main`` exactly as the untraced run
does, so the traced process does the same work.  Before it runs, the public
function of each layer is replaced, in every ``cuspidal`` module that binds
it, by a wrapper that records a span (name, trace, start, end, parent) and
the counters below.  The program's own files are not changed.  A trace is
one level p^k: spans take the level of the most recently created
CartanContext, and the command label before the first one.

The last line of standard output is one JSON object: the command's exit
code, its captured stdout and stderr, the spans and the counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import sys
import time

# (span name, module, attribute); several attributes may share a name.
LAYERS = (
    ("cartan.context_ms", "cartan", "CartanContext.create"),
    ("cartan.partition_ms", "cartan", "norm_class_partition"),
    ("stickelberger.a_ms", "stickelberger", "compute_a"),
    ("stickelberger.theta_ms", "stickelberger", "stickelberger_data"),
    ("classgroup.det_ms", "classgroup", "order"),
    ("arith.factor_ms", "arith", "factorize"),
    ("classgroup.lattice_ms", "classgroup", "generator_matrix"),
    ("classgroup.snf_ms", "classgroup", "structure"),
    ("classgroup.float_check_ms", "classgroup", "float_crosscheck"),
    ("classgroup.bernoulli_ms", "classgroup", "bernoulli_formula_k1"),
    ("verify.algebraic_ms", "verify", "algebraic_checks"),
    ("siegel.analytic_ms", "verify", "analytic_checks"),
    ("crosscheck.harness_ms", "crosscheck", "load_records"),
    ("crosscheck.harness_ms", "crosscheck", "gcd_harness"),
)
ROOT_SPAN = "trace.unattributed_ms"


def det_bits(p: int, k: int, order: int) -> int:
    """Bit length of |det A_theta'| = order * (p^2-1)/24 * p^(k-1) * e,
    with e = p^(3k-2) (p-1) / (2d) and d = 12 / gcd(12, p+1)."""
    d = 12 // math.gcd(12, p + 1)
    e = p ** (3 * k - 2) * (p - 1) // (2 * d)
    return (order * (p * p - 1) // 24 * p ** (k - 1) * e).bit_length()


class Tracer:
    def __init__(self, label: str):
        self.trace = label
        self.spans: list[list] = []  # [name, trace, start, end, parent index]
        self.stack: list[int] = []
        self.partitioned: set = set()
        self.counters = {
            "classes": 0,
            "n_max": 0,
            "det_bits_max": 0,
            "inv_factor_bits_max": 0,
            "factor_attempts": 0,
            "factor_complete": 0,
            "unsplit_digits": 0,
        }

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, self.trace, time.perf_counter(), None, parent]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()
            self.observe(name, args, result, span)
            return result

        return traced

    def observe(self, name: str, args, result, span) -> None:
        c = self.counters
        if name == "cartan.context_ms":
            self.trace = span[1] = f"{result.p}^{result.k}"
        elif name == "cartan.partition_ms" and args[0] not in self.partitioned:
            ctx = args[0]
            self.partitioned.add(ctx)
            c["classes"] += (ctx.p**2 - 1) * ctx.p ** (2 * ctx.k - 2) // 2
        elif name == "classgroup.det_ms":
            ctx = args[0]
            c["n_max"] = max(c["n_max"], (ctx.p - 1) * ctx.p ** (ctx.k - 1) // 2)
            c["det_bits_max"] = max(c["det_bits_max"], det_bits(ctx.p, ctx.k, result))
        elif name == "classgroup.snf_ms":
            c["inv_factor_bits_max"] = max(
                [c["inv_factor_bits_max"]] + [d.bit_length() for d in result]
            )
        elif name == "arith.factor_ms":
            from cuspidal.arith import Primality

            c["factor_attempts"] += 1
            c["factor_complete"] += result.is_complete
            c["unsplit_digits"] += sum(
                len(str(e.prime))
                for e in result.entries
                if e.certainty is Primality.COMPOSITE
            )


def install(tracer: Tracer) -> None:
    """Rebind each layer function in every loaded cuspidal module."""
    importlib.import_module("cuspidal.cli")  # loads every layer module
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cuspidal"]
    for name, module, attr in LAYERS:
        owner = importlib.import_module(f"cuspidal.{module}")
        if attr == "CartanContext.create":
            cls = owner.CartanContext
            cls.create = classmethod(tracer.span(name, cls.__dict__["create"].__func__))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.span(name, original)
        for m in modules:
            for binding, value in list(vars(m).items()):
                if value is original:
                    setattr(m, binding, wrapped)


def main(argv: list[str]) -> int:
    tracer = Tracer(" ".join(argv))
    install(tracer)
    from cuspidal.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = tracer.span(ROOT_SPAN, cli_main)(argv)
    print(
        json.dumps(
            {
                "rc": rc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "spans": tracer.spans,
                "counters": tracer.counters,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
