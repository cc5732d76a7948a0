"""Exact arithmetic in prime fields: primality, factorization, primitive roots.

Moduli are capped at 2^62 so that products of two residues always fit in a
128-bit intermediate.  They fit numpy's int64 only while p - 1 <= 3037000499
= isqrt(2^63 - 1); subgroup.check_int64_products refuses the int64 layers
above that (subgroup.INT64_PRODUCT_LIMIT).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import count

from .errors import InputError

MODULUS_CAP = 1 << 62

# Witness set that makes Miller-Rabin deterministic for all n < 3.3 * 10^24,
# far beyond the 2^62 cap.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(flags[q * q :: q]))
    return tuple(i for i, f in enumerate(flags) if f)


_SMALL_PRIMES = _sieve(1000)
# The square of the least prime above _SMALL_PRIMES: a number below it with no
# factor in _SMALL_PRIMES is 1 or prime.
_TRIAL_SQUARE = 1009**2


def _miller_rabin(n: int) -> bool:
    # n odd, n > 37, no small factors; callers guarantee this
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
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


def is_prime(n: int) -> bool:
    """Deterministic primality test for 2 <= n < 2^62."""
    if not 2 <= n < MODULUS_CAP:
        raise InputError(f"primality test requires 2 <= n < 2^62, got {n}")
    for q in _SMALL_PRIMES:
        if q * q > n:
            return True
        if n % q == 0:
            return n == q
    return n < _TRIAL_SQUARE or _miller_rabin(n)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (deterministic: c = 1, 2, ...)."""
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorize(n: int) -> list[tuple[int, int]]:
    """Complete sorted factorization of 1 <= n < 2^62; factorize(1) == []."""
    if not 1 <= n < MODULUS_CAP:
        raise InputError(f"factorization requires 1 <= n < 2^62, got {n}")
    factors: Counter[int] = Counter()
    for q in _SMALL_PRIMES:
        if q * q > n:
            break
        while n % q == 0:
            factors[q] += 1
            n //= q
    if 1 < n < _TRIAL_SQUARE:  # no prime factor below min(q, 1009): n is prime
        factors[n] += 1
    elif n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if _miller_rabin(m):
                factors[m] += 1
            else:
                d = _pollard_rho(m)
                stack.append(d)
                stack.append(m // d)
    return sorted(factors.items())


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    divs = [1]
    for q, e in factorize(n):
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return sorted(divs)


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime p below 2^62 together with the factorization of p - 1."""

    p: int
    factorization: tuple[tuple[int, int], ...]

    @classmethod
    def from_int(cls, p: int) -> "PrimeModulus":
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        if p == 2:
            raise InputError("modulus must be an odd prime")
        return cls(p, tuple(factorize(p - 1)))

    @property
    def prime_divisors_of_order(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factorization)


def primitive_root(modulus: PrimeModulus | int) -> int:
    """Smallest r >= 2 generating the full multiplicative group mod p.

    Verified by checking r^((p-1)/q) != 1 for every prime q dividing p - 1.
    """
    pm = modulus if isinstance(modulus, PrimeModulus) else PrimeModulus.from_int(modulus)
    p = pm.p
    cofactors = [(p - 1) // q for q in pm.prime_divisors_of_order]
    for r in range(2, p):
        if all(pow(r, e, p) != 1 for e in cofactors):
            return r
    raise AssertionError("no primitive root found; p is not prime")
