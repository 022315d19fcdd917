"""Prime field helpers: primality, inverses, Horner evaluation, error contracts."""

import pytest

from rsplfr.ff import (FieldError, NotPrimeError, PrimeField, ZeroInverseError, horner,
                       is_prime)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def test_is_prime_matches_sieve_below_10000():
    limit = 10_000
    sieve = [False, False] + [True] * (limit - 2)
    for n in range(2, 100):
        if sieve[n]:
            sieve[n * n::n] = [False] * len(range(n * n, limit, n))
    primes = {n for n in range(limit) if sieve[n]}
    for n in range(-3, limit):
        assert is_prime(n) == (n in primes)


def test_is_prime_on_word_sized_moduli():
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7, and
    # 3825123056546413051 to every prime base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 31 - 1) and is_prime(2 ** 61 - 1)
    assert not is_prime((2 ** 31 - 1) ** 2)
    with pytest.raises(FieldError):
        is_prime(3_317_044_064_679_887_385_961_981)


@pytest.mark.parametrize("q", SMALL_PRIMES)
def test_every_nonzero_element_inverts(q):
    f = PrimeField(q)
    for a in range(1, q):
        assert a * f.inv(a) % q == 1


def test_known_inverse():
    assert PrimeField(7).inv(3) == 5  # 3*5 = 15 = 1 mod 7


def test_inputs_reduce_to_canonical_residues():
    f = PrimeField(7)
    assert f.inv(10) == f.inv(3)
    assert f.inv(-4) == f.inv(3)


def test_horner_low_to_high_order():
    # coefficients are constant-first: 1 + 2x + 3x^2 at x=2 is 17
    assert horner([1, 2, 3], 2, 7) == 17 % 7
    assert horner([], 5, 7) == 0
    assert horner([4], 123, 7) == 4


@pytest.mark.parametrize("q", [5, 11])
def test_poly_eval_matches_naive_sum(q):
    coeffs = [3, 0, 2, 4]
    for x in range(q):
        naive = sum(c * x ** i for i, c in enumerate(coeffs)) % q
        assert horner(coeffs, x, q) == naive


def test_nonprime_modulus_rejected():
    for bad in (0, 1, 4, 6, 9, 12, -7):
        with pytest.raises(NotPrimeError):
            PrimeField(bad)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverseError):
        PrimeField(5).inv(0)
    with pytest.raises(ZeroDivisionError):
        # the error doubles as a ZeroDivisionError for generic callers
        PrimeField(5).inv(5)
