"""Exact arithmetic in prime fields.

Every encoding, key superposition, and decoding step of the retrieval
scheme happens in one prime field, chosen large enough to give each
server its own nonzero evaluation point.  Residues are plain ints,
stored canonically reduced into [0, q); callers do the modular
arithmetic inline and use ``PrimeField`` for the checked modulus and
for inverses.
"""

from __future__ import annotations


class FieldError(ValueError):
    pass


class NotPrimeError(FieldError):
    pass


class ZeroInverseError(FieldError, ZeroDivisionError):
    pass


def is_prime(n: int) -> bool:
    """Deterministic trial division; moduli here are machine-word sized."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def horner(coeffs, x: int, q: int) -> int:
    """Evaluate sum(coeffs[m] * x**m) mod q, coefficients low to high."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


class PrimeField:
    """A checked prime modulus q and inversion in F_q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise NotPrimeError(f"modulus {q!r} is not prime")
        self.q = q

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise ZeroInverseError(f"0 has no inverse mod {self.q}")
        # Fermat: a^(q-2) is the inverse because q is prime.
        return pow(a, self.q - 2, self.q)
