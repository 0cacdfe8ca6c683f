"""Exact scalar arithmetic.

Integers are plain Python ints, rationals are ``fractions.Fraction``; both
are exact at any size.  On top of those this module provides fractional
parts, the second Bernoulli polynomial, Legendre/Jacobi symbols, a primality
test with an explicit certainty level, and an integer factorizer (trial
division, perfect-power extraction, Brent's cycle variant of Pollard rho)
that degrades gracefully to flagged unsplit composites when its iteration
budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from random import Random

ONE_SIXTH = Fraction(1, 6)

DEFAULT_RHO_BUDGET = 10**8
DEFAULT_TRIAL_BOUND = 10**6


class Primality(Enum):
    PROVEN = "proven"
    PROBABLE = "probable"
    COMPOSITE = "composite"


def frac_part(x) -> Fraction:
    """Fractional part <x> in [0, 1); x - <x> is an integer."""
    x = Fraction(x)
    return x - (x.numerator // x.denominator)


def bernoulli2(t) -> Fraction:
    """Second Bernoulli polynomial B2(t) = t^2 - t + 1/6, exactly."""
    t = Fraction(t)
    return t * t - t + ONE_SIXTH


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs a positive odd denominator")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) by Euler's criterion; p must be an odd prime."""
    if p < 3 or p % 2 == 0 or is_prime(p) is Primality.COMPOSITE:
        raise ValueError(f"p = {p} is not an odd prime")
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


# ---------------------------------------------------------------------------
# primality

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Strong-pseudoprime testing with the first 13 prime bases is a proven
# primality test below this bound (Sorenson-Webster); beyond it we fall back
# to Baillie-PSW and report "probable".
_MR_PROVEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, base: int) -> bool:
    base %= n
    if base == 0:
        return True
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _lucas_strong_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameter choice (method A).

    Assumes n odd, n > 1, not a perfect square, no small prime factors.
    """
    D = 5
    while True:
        j = jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return n == abs(D)
        D = -(D + 2) if D > 0 else -(D - 2)
    P = 1
    Q = (1 - D) // 4

    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s

    inv2 = (n + 1) // 2
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) * inv2 % n, (D * U + P * V) * inv2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_probable_prime(n: int) -> bool:
    """Baillie-PSW: strong base-2 test plus a strong Lucas test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if not _strong_probable_prime(n, 2):
        return False
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _lucas_strong_probable_prime(n)


def is_prime(n: int) -> Primality:
    """Primality with an explicit certainty level.

    Deterministic (PROVEN / COMPOSITE) below the 13-base Miller-Rabin bound;
    above it Baillie-PSW, reporting PROBABLE for survivors.  Composite
    answers are always correct.  0 and 1 count as composite by convention.
    """
    if n < 2:
        return Primality.COMPOSITE
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return Primality.PROVEN if n == p else Primality.COMPOSITE
    if n < _MR_PROVEN_LIMIT:
        for base in _MR_PROVEN_BASES:
            if not _strong_probable_prime(n, base):
                return Primality.COMPOSITE
        return Primality.PROVEN
    return Primality.PROBABLE if is_probable_prime(n) else Primality.COMPOSITE


# ---------------------------------------------------------------------------
# factorization

def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0 or k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    r = 1 << -(-n.bit_length() // k)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (base, k) with base**k == n and prime k, or None."""
    for k in _SMALL_PRIMES:
        if k > n.bit_length():
            break
        r = iroot(n, k)
        if r > 1 and r**k == n:
            return r, k
    # prime exponents beyond 47 would need n >= 2**53; not reachable at the
    # sizes this package produces, but stay correct anyway
    k = 53
    while k <= n.bit_length():
        if is_prime(k) is not Primality.COMPOSITE:
            r = iroot(n, k)
            if r > 1 and r**k == n:
                return r, k
        k += 2
    return None


def _sieve(bound: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray((bound - i * i) // i + 1)
    return tuple(i for i in range(2, bound + 1) if sieve[i])


# The trial_bound sieve, and the power-of-two sieves below it for numbers
# whose square root is smaller; separate caches, so that small factorizations
# never evict the large sieve.
_small_primes = lru_cache(maxsize=4)(_sieve)
_short_primes = lru_cache(maxsize=32)(_sieve)


def _trial_primes(n: int, trial_bound: int) -> tuple[int, ...]:
    """Primes for trial division of n: up to trial_bound, or up to the next
    power of two above isqrt(n) when that is smaller (no prime beyond
    isqrt(n) can be the smallest factor of a composite n)."""
    bound = 1 << math.isqrt(n).bit_length()
    if bound >= trial_bound:
        return _small_primes(trial_bound)
    return _short_primes(bound)


def _brent_rho(n: int, rng: Random, budget: int) -> tuple[int | None, int]:
    """One Brent-rho attempt on odd composite n; (factor | None, iterations)."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = q = r = 1
    used = 0
    x = ys = y
    while g == 1 and used < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1:
            ys = y
            cnt = min(m, r - k)
            for _ in range(cnt):
                y = (y * y + c) % n
                q = q * (x - y) % n
            used += cnt
            g = math.gcd(q, n)
            k += cnt
        r *= 2
    if g == n:
        # batched gcd overshot the collision; replay the last batch singly
        g = 1
        for _ in range(m + 1):
            ys = (ys * ys + c) % n
            g = math.gcd(x - ys, n)
            if g > 1:
                break
    if 1 < g < n:
        return g, used
    return None, used


@dataclass(frozen=True)
class FactorEntry:
    prime: int
    exponent: int
    certainty: Primality

    def __str__(self) -> str:
        # unsplit composites are never allowed to masquerade as primes
        base = (
            f"[{self.prime}]"
            if self.certainty is Primality.COMPOSITE
            else str(self.prime)
        )
        return f"{base}^{self.exponent}" if self.exponent > 1 else base


@dataclass(frozen=True)
class Factorization:
    """Factor list sorted ascending; unsplit composites stay flagged, never silent."""

    entries: tuple[FactorEntry, ...]

    def value(self) -> int:
        out = 1
        for e in self.entries:
            out *= e.prime**e.exponent
        return out

    @property
    def is_complete(self) -> bool:
        return all(e.certainty is not Primality.COMPOSITE for e in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "1"
        return " * ".join(str(e) for e in self.entries)


def factorize(
    n: int,
    *,
    rho_budget: int = DEFAULT_RHO_BUDGET,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    seed: int = 1,
) -> Factorization:
    """Factor n >= 1.

    Pipeline: trial division up to trial_bound, then per remaining composite
    a primality test, perfect-power extraction (run before rho: an exact
    k-th root splits large squares instantly where rho would stall), and
    Brent-rho restarts sharing ``rho_budget`` iterations per composite.
    Budget exhaustion yields an entry flagged COMPOSITE.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    counts: dict[int, int] = {}
    certainty: dict[int, Primality] = {}

    def record(v: int, mult: int, cert: Primality) -> None:
        counts[v] = counts.get(v, 0) + mult
        certainty[v] = cert

    m = n
    for p in _trial_primes(n, trial_bound):
        if p * p > m:
            break
        while m % p == 0:
            record(p, 1, Primality.PROVEN)
            m //= p

    rng = Random(seed)
    stack = [(m, 1)] if m > 1 else []
    while stack:
        v, mult = stack.pop()
        cert = is_prime(v)
        if cert is not Primality.COMPOSITE:
            record(v, mult, cert)
            continue
        power = _perfect_power(v)
        if power is not None:
            stack.append((power[0], mult * power[1]))
            continue
        budget = rho_budget
        d = None
        while d is None and budget > 0:
            d, used = _brent_rho(v, rng, budget)
            budget -= used
        if d is None:
            record(v, mult, Primality.COMPOSITE)
            continue
        stack.append((d, mult))
        stack.append((v // d, mult))

    entries = tuple(
        FactorEntry(p, counts[p], certainty[p]) for p in sorted(counts)
    )
    return Factorization(entries)
