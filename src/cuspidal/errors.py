"""Error types shared across the package, how an error names a number,
and the size guard on the inputs."""

SIZE_GUARD = 10**4  # largest p^k accepted without --force


def brief_int(x: int) -> str:
    """x as an error message names it: in full up to 20 digits, otherwise
    as its digit count, so a huge input gives a short line."""
    text = str(x)
    digits = len(text.lstrip("-"))
    return text if digits <= 20 else f"<{digits} digits>"


class InvariantViolation(RuntimeError):
    """An identity the construction guarantees failed to hold.

    Raised when an internal cross-check (exact divisibility, integrality of
    divisor coefficients, a degree identity, ...) fails; this always means a
    bug in the implementation or in the inputs, never a normal error path.
    """
