"""Independent exact oracles for the determinant path.

The orbit norms of classgroup.orbit_norms come from a multi-modular
transform; here each N_d = Res(Phi_d, F) is instead the determinant of
multiplication by F on Z[x]/Phi_d, a phi(d) x phi(d) integer block, taken
by fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from typing import Sequence


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


def _divmod_monic(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (coefficients from the
    constant term up) by a monic divisor; both stay integral."""
    rem = list(num)
    deg = len(den) - 1
    quot = [0] * max(len(rem) - deg, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + deg]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                rem[i + j] -= c * dj
    return quot, rem[:deg]


def _cyclotomic_polys(n: int) -> dict[int, list[int]]:
    """Phi_d for every d | n, from x^d - 1 = prod_{e | d} Phi_e by exact
    division; coefficients from the constant term up."""
    phis: dict[int, list[int]] = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        poly = [-1] + [0] * (d - 1) + [1]
        for e, phi in phis.items():
            if d % e == 0:
                poly, rem = _divmod_monic(poly, phi)
                assert not any(rem), f"Phi_{e} does not divide x^{d} - 1"
        phis[d] = poly
    return phis


def block_norms(f: Sequence[int]) -> dict[int, int]:
    """{d: N_d} for every d | n = len(f), each the Bareiss determinant of
    multiplication by F = sum_j f_j x^j on Z[x]/Phi_d."""
    n = len(f)
    norms = {}
    for d, phi in _cyclotomic_polys(n).items():
        folded = [0] * d  # F mod x^d - 1, which Phi_d divides
        for j, c in enumerate(f):
            folded[j % d] += c
        _, r = _divmod_monic(folded, phi)
        rows = []
        for _ in range(len(phi) - 1):
            rows.append(r)
            top = r[-1]  # r <- x * r mod Phi_d
            r = [lo - top * c for lo, c in zip([0] + r[:-1], phi)]
        norms[d] = bareiss_det(rows)
    return norms
