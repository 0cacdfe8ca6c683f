"""Independent exact oracles for the determinant path and for trial division.

The orbit norms of classgroup.orbit_norms come from a multi-modular
transform; here each N_d = Res(Phi_d, F) is instead the determinant of
multiplication by F on Z[x]/Phi_d, the phi(d) x phi(d) integer block of
classgroup.orbit_blocks (which orbit_norms never builds), taken by
fraction-free (Bareiss) elimination.

arith.factorize divides out the trial primes by one gcd per run of primes;
factorize_prime_by_prime divides by each trial prime in turn instead.
"""

from __future__ import annotations

from typing import Sequence

from cuspidal.arith import (
    FactorEntry,
    Factorization,
    Primality,
    _small_primes,
    _trial_bound,
    factorize,
)
from cuspidal.classgroup import orbit_blocks


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(map(int, row)) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for r in range(n - 1):
        if a[r][r] == 0:
            for i in range(r + 1, n):
                if a[i][r]:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[r][r]
        tail = a[r][r + 1 :]
        # column r below the pivot is never read again, so it is left as is
        for i in range(r + 1, n):
            row = a[i]
            f = row[r]
            row[r + 1 :] = [
                (x * pivot - f * y) // prev for x, y in zip(row[r + 1 :], tail)
            ]
        prev = pivot
    return sign * a[n - 1][n - 1]


def block_norms(f: Sequence[int]) -> dict[int, int]:
    """{d: N_d} for every d | n = len(f), each the Bareiss determinant of
    multiplication by F = sum_j f_j x^j on Z[x]/Phi_d."""
    return {d: bareiss_det(rows) for d, rows in orbit_blocks(f).items()}


def factorize_prime_by_prime(n: int, *, rho_budget: int) -> Factorization:
    """arith.factorize with its trial stage run one prime at a time: every
    prime up to the trial bound is divided out in turn until one's square
    exceeds the cofactor.  The cofactor then goes to factorize, whose trial
    stage can find nothing in it but itself, when it is a prime below the
    bound; the rest of the pipeline is the one under test."""
    entries = []
    m = n
    for p in _small_primes(_trial_bound(n)):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            e += 1
            m //= p
        if e:
            entries.append(FactorEntry(p, e, Primality.PROVEN))
    rest = factorize(m, rho_budget=rho_budget)
    return Factorization(
        tuple(entries) + rest.entries, rest.steps_used, rest.budget_exhausted
    )
