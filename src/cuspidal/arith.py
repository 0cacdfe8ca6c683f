"""Exact scalar arithmetic.

Every number is a plain Python int, exact at any size.  This module
provides Legendre/Jacobi symbols, a primality test with an explicit
certainty level, the integer kernels that two layers share (the packed
cyclic product every convolution in the package goes through, fold and
part_with_primes_of), and an integer factorizer.

The factorizer runs trial division in bulk up to TRIAL_BOUND = 2^16 (one
gcd of the input with the product of each run of TRIAL_CHUNK consecutive
primes; only a run that shares a factor is divided prime by prime), then on
each remaining composite a primality test, perfect-power extraction, a
short Brent-rho stage (Pollard rho with Brent's cycle finding, for factors
up to about ten digits; a prime in (2^16, 10^6) takes it about 1600 steps
on average) and Lenstra's elliptic-curve method (ECM): Montgomery curves in x/z
coordinates with Suyama's parametrisation, a Montgomery-ladder stage 1 and a
baby-step/giant-step stage 2 with one batched gcd, whose primes are read
off an odd-only sieve up to min(100 B1, ECM_B2_BOUND).  One step budget per
call is shared by rho and ECM; it is counted in Brent-rho iterations, never
in wall-clock time.  The default, DEFAULT_RHO_BUDGET = 10^7 steps, is enough
for every order of the reference table and for 13^2 (under 10^6 steps), and
gives up a cofactor ECM cannot split (the 62-digit one at 11^2) after about
ten seconds on a 2-vCPU x86-64 VM rather than after minutes.  A step is a
multiplication modulo the cofactor, so its cost grows with the cofactor's
size: at 43^2 trial division leaves a 9600-bit cofactor, and the default
budget there runs for more than ten minutes.  Whatever the budget leaves
unsplit is reported as a flagged composite, never silently.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from itertools import compress
from random import Random
from typing import NamedTuple, Sequence

DEFAULT_RHO_BUDGET = 10**7  # steps per factorize call, rho and ECM together
TRIAL_BOUND = 1 << 16  # trial division limit; rho splits the primes above it
TRIAL_CHUNK = 256  # trial division takes one gcd per run of this many primes
ECM_B2_BOUND = 10**6  # cap on ECM's stage-2 bound, min(100 B1, ECM_B2_BOUND)
SEED = 1  # of the Random that draws rho constants and ECM curves

# Brent rho runs first on each composite for at most this many steps: enough
# for factors up to about ten digits, beyond which ECM finds them faster.
RHO_STAGE_STEPS = 1 << 16

# ECM (B1, curves) levels, aimed at factors of about 15, 20 and 25 digits;
# the last level runs until the budget is spent.  Stage 2 covers the primes
# in (B1, min(100 B1, ECM_B2_BOUND)].
ECM_SCHEDULE = ((2000, 25), (11000, 90), (50000, None))
_ECM_D = 2310  # stage-2 giant step, 2*3*5*7*11; every B1 above exceeds D/2,
# so stage 2 starts at a giant step g >= 1


class Primality(Enum):
    PROVEN = "proven"
    PROBABLE = "probable"
    COMPOSITE = "composite"


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
# to Baillie-PSW and report "probable".  Below 2^64, Sinclair's seven bases
# are enough; a base divisible by n counts as passed.
_MR_PROVEN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_64_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


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

    Deterministic (PROVEN / COMPOSITE) below the 13-base Miller-Rabin bound
    (seven bases below 2^64);
    above it Baillie-PSW, reporting PROBABLE for survivors.  Composite
    answers are always correct.  0 and 1 count as composite by convention.
    """
    if n < 2:
        return Primality.COMPOSITE
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return Primality.PROVEN if n == p else Primality.COMPOSITE
    if n < _MR_PROVEN_LIMIT:
        bases = _MR_64_BASES if n < 1 << 64 else _MR_PROVEN_BASES
        for base in bases:
            if not _strong_probable_prime(n, base):
                return Primality.COMPOSITE
        return Primality.PROVEN
    return Primality.PROBABLE if is_probable_prime(n) else Primality.COMPOSITE


def packed_product(a: Sequence[int], b: Sequence[int], width: int) -> list[int]:
    """The len(a) + len(b) coefficients (the last one 0) of the product of
    the polynomials sum a_i x^i and sum b_j x^j with nonnegative integer
    coefficients, by Kronecker substitution: each vector is packed into one
    integer, ``width`` bytes a slot, and one big-integer product is cut back
    into slots.  Every coefficient of the product must be below 256^width,
    or it carries into the next slot."""
    x = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")
    y = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in b), "little")
    buf = (x * y).to_bytes((len(a) + len(b)) * width, "little")
    return [int.from_bytes(buf[i : i + width], "little") for i in range(0, len(buf), width)]


def cyclic_product(a: Sequence[int], b: Sequence[int], sign: int = 1) -> list[int]:
    """a * b modulo x^n - sign, sign = +-1, for nonnegative integer vectors
    of one length n: one packed product, folded at n.  Each coefficient
    before the fold is at most max(a) * sum(b), and a slot must also hold
    every entry of a and b, which sets the width."""
    top = max(max(a) * sum(b), max(a), max(b))
    coef = packed_product(a, b, (top.bit_length() + 7) // 8 or 1)
    n = len(a)
    return [x + sign * y for x, y in zip(coef[:n], coef[n:])]


def fold(f: Sequence[int], d: int) -> list[int]:
    """F mod (x^d - 1) for F = sum_j f_j x^j: coefficient j goes to j mod d."""
    folded = [0] * d
    for j, c in enumerate(f):
        folded[j % d] += c
    return folded


def part_with_primes_of(m: int, x: int) -> int:
    """The largest divisor of m made of the primes of gcd(x, m)."""
    g = math.gcd(x, m)
    rest = m
    while (h := math.gcd(rest, g)) > 1:
        rest //= h
    return m // rest


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
    for k in _sieve(n.bit_length()):
        r = iroot(n, k)
        if r > 1 and r**k == n:
            return r, k
    return None


def _odd_flags(bound: int) -> bytearray:
    """Sieve of Eratosthenes over the odd numbers up to bound >= 1: slot i
    stands for 2i + 1 and is 1 exactly when 2i + 1 is prime."""
    slots = (bound + 1) // 2
    odd = bytearray([1]) * slots
    odd[0] = 0  # 1 is not prime
    for i in range(1, (math.isqrt(bound) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            start = p * p // 2
            odd[start::p] = bytes((slots - 1 - start) // p + 1)
    return odd


def _sieve(bound: int) -> tuple[int, ...]:
    """The primes up to bound, ascending."""
    if bound < 2:
        return ()
    # the flags are freed before the copy into a tuple, which sets the peak
    primes = [2, *compress(range(1, bound + 1, 2), _odd_flags(bound))]
    return tuple(primes)


# Keyed by the powers of two up to TRIAL_BOUND, which it can hold all at
# once, so small factorizations never evict the full sieve.
_small_primes = lru_cache(maxsize=TRIAL_BOUND.bit_length() + 1)(_sieve)


@lru_cache(maxsize=TRIAL_BOUND.bit_length() + 1)
def _chunk_products(bound: int) -> tuple[int, ...]:
    """The product of each run of TRIAL_CHUNK consecutive primes up to bound;
    the same keys as _small_primes."""
    primes = _small_primes(bound)
    return tuple(
        math.prod(primes[i : i + TRIAL_CHUNK]) for i in range(0, len(primes), TRIAL_CHUNK)
    )


def _trial_bound(n: int) -> int:
    """Trial division of n runs up to TRIAL_BOUND, or up to the next power of
    two above isqrt(n) when that is smaller (no prime beyond isqrt(n) can be
    the smallest factor of a composite n)."""
    return min(1 << math.isqrt(n).bit_length(), TRIAL_BOUND)


def _brent_rho(n: int, rng: Random, limit: int) -> tuple[int | None, int]:
    """One Brent-rho attempt on odd composite n, stopping before it would
    take more than ``limit`` iterations; (factor | None, iterations)."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = q = r = 1
    used = 0
    x = ys = y
    while g == 1 and used + r <= limit:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        used += r
        k = 0
        while k < r and g == 1 and used < limit:
            ys = y
            cnt = min(m, r - k, limit - used)
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
        for _ in range(min(m + 1, limit - used)):
            ys = (ys * ys + c) % n
            used += 1
            g = math.gcd(x - ys, n)
            if g > 1:
                break
    if 1 < g < n:
        return g, used
    return None, used


# ---------------------------------------------------------------------------
# elliptic-curve method

def _xdbl(X: int, Z: int, a24: int, n: int) -> tuple[int, int]:
    """[2](X:Z) on the Montgomery curve with a24 = (A+2)/4; 5 multiplications."""
    s = X + Z
    s = s * s % n
    d = X - Z
    d = d * d % n
    t = s - d
    return s * d % n, t * (d + a24 * t % n) % n


def _xadd(X1: int, Z1: int, X2: int, Z2: int, Xd: int, Zd: int, n: int) -> tuple[int, int]:
    """P1 + P2 from x/z coordinates and those of P1 - P2; 6 multiplications."""
    u = (X1 - Z1) * (X2 + Z2) % n
    v = (X1 + Z1) * (X2 - Z2) % n
    s = u + v
    t = u - v
    return Zd * (s * s % n) % n, Xd * (t * t % n) % n


def _ladder(k: int, X: int, Z: int, a24: int, n: int) -> tuple[int, int]:
    """[k](X:Z) for k >= 1 by the Montgomery ladder; 11 multiplications a bit."""
    X0, Z0 = X, Z
    X1, Z1 = _xdbl(X, Z, a24, n)
    # (X1:Z1) - (X0:Z0) = (X:Z) throughout; the add and the doubling are
    # inlined because this loop is most of an ECM curve
    for bit in bin(k)[3:]:
        u = (X0 - Z0) * (X1 + Z1) % n
        v = (X0 + Z0) * (X1 - Z1) % n
        s = u + v
        t = u - v
        if bit == "1":
            X0, Z0 = Z * (s * s % n) % n, X * (t * t % n) % n
            s = X1 + Z1
            d = X1 - Z1
            s = s * s % n
            d = d * d % n
            t = s - d
            X1, Z1 = s * d % n, t * (d + a24 * t % n) % n
        else:
            X1, Z1 = Z * (s * s % n) % n, X * (t * t % n) % n
            s = X0 + Z0
            d = X0 - Z0
            s = s * s % n
            d = d * d % n
            t = s - d
            X0, Z0 = s * d % n, t * (d + a24 * t % n) % n
    return X0, Z0


class _EcmPlan(NamedTuple):
    """Everything about one B1 level that does not depend on n."""

    scalar: int  # product of the largest prime powers <= B1
    first_giant: int  # stage 2 starts at the giant step first_giant * D
    babies: tuple[int, ...]  # odd b < D/2 prime to D, whose [b]Q are kept
    pairs: tuple[tuple[int, ...], ...]  # per giant step, baby indices to multiply in
    cost: int  # steps charged per curve


@lru_cache(maxsize=len(ECM_SCHEDULE))
def _ecm_plan(b1: int) -> _EcmPlan:
    b2 = min(100 * b1, ECM_B2_BOUND)
    half = _ECM_D // 2
    babies = [b for b in range(1, half, 2) if math.gcd(b, _ECM_D) == 1]
    flags = _odd_flags(b2)  # slot i is 2i + 1
    scalar = 1 << (b1.bit_length() - 1)  # the largest power of 2 <= B1
    low = (b1 + 1) // 2  # the slots of the odd q <= B1
    for q in compress(range(1, b1 + 1, 2), flags[:low]):
        power = q
        while power * q <= b1:
            power *= q
        scalar *= power
    # q = gD +- b: [gD]Q and [b]Q share their x-coordinate mod a prime factor
    # exactly when [gD - b]Q or [gD + b]Q vanishes there, so one product
    # covers both.  Slot gD/2 + i is gD + (2i + 1) and slot gD/2 - 1 - i is
    # gD - (2i + 1), so per giant step the two runs of `span` 0/1 bytes, the
    # second reversed, are ORed as integers: byte i is 1 when gD + b or
    # gD - b, b = 2i + 1, is a prime in (B1, B2].  Slots past B2 are zero
    # padding.
    span = half // 2  # odd b < D/2
    top = (b2 + half) // _ECM_D  # the last giant step that reaches a q <= B2
    flags[:low] = bytes(low)
    flags += bytes(top * half + span - len(flags))
    slot_baby = [None] * span
    for i, b in enumerate(babies):
        slot_baby[b // 2] = i
    by_giant = [()]  # g = 0 reaches no q > B1
    for g in range(1, top + 1):
        mid = g * half
        hits = int.from_bytes(flags[mid : mid + span], "little") | int.from_bytes(
            flags[mid - span : mid], "big"
        )
        by_giant.append(tuple(compress(slot_baby, hits.to_bytes(span, "little"))))
    used = [g for g, idx in enumerate(by_giant) if idx]
    first = used[0]
    pairs = tuple(by_giant[first : used[-1] + 1])

    giants = len(pairs)
    ladders = (scalar, _ECM_D, first * _ECM_D, (first + 1) * _ECM_D)
    mults = (
        sum(11 * (k.bit_length() - 1) + 5 for k in ladders)
        + 5 + 6 * (half // 2 - 1)  # [2]Q, then [b]Q for every odd b < D/2
        + 6 * (giants - 2)  # the other giant steps
        + 3 * (len(babies) + giants)  # batched inversion
        + sum(map(len, pairs))
    )
    # one step is one rho iteration, two modular multiplications
    return _EcmPlan(scalar, first, tuple(babies), pairs, (mults + 1) // 2)


def _ecm_curve(n: int, plan: _EcmPlan, rng: Random) -> int | None:
    """One ECM curve on odd composite n; a proper factor or None."""
    sigma = rng.randrange(6, n - 1)
    u = (sigma * sigma - 5) % n
    v = 4 * sigma % n
    x0 = u * u * u % n
    z0 = v * v * v % n
    w = v - u
    num = w * w * w * (3 * u + v) % n  # a24 = (A+2)/4 = num / (16 u^3 v)
    den = 16 * x0 * v * z0 % n
    g = math.gcd(den, n)
    if g != 1:
        return g if g < n else None
    inv = pow(den, -1, n)
    a24 = num * z0 * inv % n
    x = x0 * x0 * 16 * v * inv % n  # x0 / z0

    X, Z = _ladder(plan.scalar, x, 1, a24, n)
    g = math.gcd(Z, n)
    if g != 1:
        return g if g < n else None

    # stage 2: baby steps [b]Q for odd b < D/2, giant steps [gD]Q
    X2, Z2 = _xdbl(X, Z, a24, n)
    prev, cur = (X, Z), _xadd(X2, Z2, X, Z, X, Z, n)
    odd = [prev, cur]
    for _ in range(_ECM_D // 4 - 2):
        prev, cur = cur, _xadd(*cur, X2, Z2, *prev, n)
        odd.append(cur)
    points = [odd[b // 2] for b in plan.babies]
    XD, ZD = _ladder(_ECM_D, X, Z, a24, n)
    prev = _ladder(plan.first_giant * _ECM_D, X, Z, a24, n)
    cur = _ladder((plan.first_giant + 1) * _ECM_D, X, Z, a24, n)
    points += [prev, cur]
    for _ in range(len(plan.pairs) - 2):
        prev, cur = cur, _xadd(*cur, XD, ZD, *prev, n)
        points.append(cur)

    # x = X/Z for every point, with one inversion (Montgomery's trick)
    prefix = []
    acc = 1
    for _, z in points:
        acc = acc * z % n
        prefix.append(acc)
    g = math.gcd(acc, n)
    if g != 1:
        return g if g < n else None
    inv = pow(acc, -1, n)
    xs = [0] * len(points)
    for i in range(len(points) - 1, 0, -1):
        xi, zi = points[i]
        xs[i] = xi * (inv * prefix[i - 1] % n) % n
        inv = inv * zi % n
    xs[0] = points[0][0] * inv % n

    baby_x = xs[: len(plan.babies)]
    acc = 1
    for xg, idx in zip(xs[len(plan.babies) :], plan.pairs):
        for i in idx:
            acc = acc * (xg - baby_x[i]) % n
    g = math.gcd(acc, n)
    return g if 1 < g < n else None


def _split(n: int, rng: Random, budget: int) -> tuple[int | None, int]:
    """A proper factor of the odd composite n, or None once ``budget`` steps
    would be exceeded; (factor | None, steps used)."""
    used = 0
    rho_limit = min(RHO_STAGE_STEPS, budget)
    while used < rho_limit:
        d, steps = _brent_rho(n, rng, rho_limit - used)
        used += steps
        if d is not None:
            return d, used
    for b1, curves in ECM_SCHEDULE:
        plan = _ecm_plan(b1)
        tried = 0
        while curves is None or tried < curves:
            if used + plan.cost > budget:
                return None, used
            used += plan.cost
            tried += 1
            d = _ecm_curve(n, plan, rng)
            if d is not None:
                return d, used
    return None, used


class FactorEntry(NamedTuple):
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


class Factorization(NamedTuple):
    """Factor list sorted ascending; unsplit composites stay flagged, never silent.

    ``steps_used`` is what the call spent of its step budget (Brent-rho
    iterations, ECM charged at two modular multiplications a step);
    ``budget_exhausted`` is set when the budget ran out before every
    composite was split."""

    entries: tuple[FactorEntry, ...]
    steps_used: int = 0
    budget_exhausted: bool = False

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
) -> Factorization:
    """Factor n >= 1.

    Pipeline: trial division up to TRIAL_BOUND by one gcd with the product of
    each run of TRIAL_CHUNK primes, dividing prime by prime only inside a run
    whose gcd exceeds 1 and stopping once a prime's square exceeds the
    cofactor; then per remaining composite a primality test, perfect-power
    extraction (run before rho: an exact k-th root splits large squares
    instantly where rho would stall), at most
    RHO_STAGE_STEPS Brent-rho iterations, and ECM curves by ECM_SCHEDULE.
    ``rho_budget`` is one step budget for the whole call, shared by rho and
    ECM over every composite: a step is one rho iteration, and an ECM curve
    is charged half its modular multiplications.  No curve starts that the
    remaining budget cannot pay for, so ``steps_used <= rho_budget``.  Once
    the budget is spent, every unsplit composite is an entry flagged
    COMPOSITE and ``budget_exhausted`` is set.  The result depends only on
    the arguments: curves and rho constants come from ``Random(SEED)``.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    counts: dict[int, int] = {}
    certainty: dict[int, Primality] = {}

    def record(v: int, mult: int, cert: Primality) -> None:
        counts[v] = counts.get(v, 0) + mult
        certainty[v] = cert

    m = n
    bound = _trial_bound(n)
    primes = _small_primes(bound)
    for lo, product in zip(range(0, len(primes), TRIAL_CHUNK), _chunk_products(bound)):
        if primes[lo] ** 2 > m:
            break
        if math.gcd(product, m) == 1:
            continue
        for p in primes[lo : lo + TRIAL_CHUNK]:
            if p * p > m:
                break
            while m % p == 0:
                record(p, 1, Primality.PROVEN)
                m //= p

    rng = Random(SEED)
    budget = max(rho_budget, 0)
    remaining = budget
    exhausted = False
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
        d, used = _split(v, rng, remaining)
        remaining -= used
        if d is None:
            exhausted = True
            record(v, mult, Primality.COMPOSITE)
            continue
        stack.append((d, mult))
        stack.append((v // d, mult))

    entries = tuple(
        FactorEntry(p, counts[p], certainty[p]) for p in sorted(counts)
    )
    return Factorization(entries, budget - remaining, exhausted)
