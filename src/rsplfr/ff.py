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


# Miller-Rabin with the first 13 primes as bases is exact below this
# bound (Sorenson & Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n at or above the bound where it is proven."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise FieldError(f"modulus {n} exceeds the primality test's bound {_MR_BOUND}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
