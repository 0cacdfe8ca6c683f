"""Error types shared across the package, how an error names a number,
and the size guard on the inputs."""

SIZE_GUARD = 10**4  # largest p^k accepted without --force

_LOG10_2 = 0.30102999566398120


def brief_int(x: int) -> str:
    """x as an error message names it: in full up to 20 digits, otherwise
    as its digit count, so a huge input gives a short line.  The count
    comes from the bit length, not from str(x), so it holds past the
    int <-> str conversion limit."""
    n = abs(x)
    if n < 10**20:
        return str(x)
    # 2^(b-1) <= n < 2^b: n has the digit count of 2^(b-1) or one more, and
    # the float estimate of the former is off by at most one
    digits = int((n.bit_length() - 1) * _LOG10_2) + 1
    if n < 10 ** (digits - 1):
        digits -= 1
    elif n >= 10**digits:
        digits += 1
    return f"<{digits} digits>"


class InvariantViolation(RuntimeError):
    """An identity the construction guarantees failed to hold.

    Raised when an internal cross-check (exact divisibility, integrality of
    divisor coefficients, a degree identity, ...) fails; this always means a
    bug in the implementation or in the inputs, never a normal error path.
    """
