import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import InputError, PrimeModulus, divisors, factorize, is_prime, primitive_root
from oracles import trial_division_is_prime


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(1009)
    assert not is_prime(1007)  # 19 * 53


def test_is_prime_rejects_out_of_range():
    with pytest.raises(InputError):
        is_prime(1)
    with pytest.raises(InputError):
        is_prime(2**62)


@pytest.mark.parametrize("n", list(range(2, 2000)) + [2**61 - 1, 2**62 - 1, 4759123141])
def test_is_prime_matches_trial_division(n):
    if n < 10**7:
        assert is_prime(n) == trial_division_is_prime(n)
    else:
        # spot values: 2^61-1 is a Mersenne prime, 4759123141 is a known
        # strong pseudoprime to base 2, 2^62-1 is composite
        expected = {2**61 - 1: True, 4759123141: False, 2**62 - 1: False}[n]
        assert is_prime(n) == expected


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1008) == [(2, 4), (3, 2), (7, 1)]


def test_factorize_large_semiprime():
    p, q = 2147483647, 2147483629
    assert factorize(p * q) == [(q, 1), (p, 1)]


def test_factorize_exhaustive_to_one_million():
    # exact inverse of multiplication for every n <= 10^6, with every factor
    # prime per an independent sieve
    limit = 10**6
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    for n in range(1, limit + 1):
        product = 1
        prev = 0
        for q, e in factorize(n):
            assert q > prev and e >= 1 and sieve[q]
            prev = q
            product *= q**e
        assert product == n


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1008)[-1] == 1008 and len(divisors(1008)) == 30


def test_primitive_root_examples():
    assert primitive_root(13) == 2
    assert primitive_root(7) == 3
    assert primitive_root(3) == 2


@pytest.mark.parametrize("p", [5, 13, 101, 257, 1009, 2003, 4001])
def test_primitive_root_has_full_order(p):
    pm = PrimeModulus.from_int(p)
    r = primitive_root(pm)
    for q, _ in pm.factorization:
        assert pow(r, (p - 1) // q, p) != 1
    # and no smaller candidate generates
    for s in range(2, r):
        assert any(pow(s, (p - 1) // q, p) == 1 for q, _ in pm.factorization)


def test_prime_modulus_validation():
    pm = PrimeModulus.from_int(1009)
    assert math.prod(q**e for q, e in pm.factorization) == 1008
    with pytest.raises(InputError, match="12 is not prime"):
        PrimeModulus.from_int(12)
    with pytest.raises(InputError):
        PrimeModulus.from_int(2)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_roundtrip_property(n):
    fs = factorize(n)
    assert math.prod(q**e for q, e in fs) == n
    assert all(is_prime(q) for q, _ in fs)
    assert [q for q, _ in fs] == sorted({q for q, _ in fs})
