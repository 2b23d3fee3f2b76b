"""Integer arithmetic helpers: egcd and modular inverse."""

from __future__ import annotations

__all__ = ["egcd", "modinv"]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # Normalise so the gcd is non-negative.
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises:
        ValueError: if ``gcd(a, m) != 1`` (the inverse does not exist).  RSA
            private-key computation relies on this to reject degenerate
            exponent choices.
    """
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise ValueError(f"{a} is not invertible modulo {m} (gcd={g})")
    return x % m

