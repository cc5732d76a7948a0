"""Reference values computed apart from the program, for the output checks.

Nothing here imports expsumlab.  The subgroup comes from its own generator
search, |S_a| from numpy's FFT of the subgroup indicator or a direct O(H) sum,
T_2 and T_3 from FFT convolutions rounded to integers, and J from the
coset count J = H * sum_j c_j^2 + [0 in I] * H^2, where c_j = |I ∩ coset_j|.

Magnitudes are compared with the absolute tolerance TOL_PER_H * H: the
program's README states that its two table strategies agree to 1e-6 * H.
"""

from __future__ import annotations

import math

import numpy as np

TOL_PER_H = 1e-6

# largest error tolerated when rounding an FFT convolution to exact counts
ROUNDING_SLACK = 0.25


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def orders_in_window(p: int, alpha_lo: float, alpha_hi: float) -> list[int]:
    """Orders H >= 2 dividing p - 1 with alpha_lo <= log H / log p <= alpha_hi."""
    n, logp = p - 1, math.log(p)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    divs = sorted(set(small + [n // d for d in small]))
    return [h for h in divs if h >= 2 and alpha_lo <= math.log(h) / logp <= alpha_hi]


def subgroup_elements(p: int, order: int) -> np.ndarray:
    """The subgroup of the given order, from an element of exact order H."""
    qs = prime_factors(order)
    for r in range(2, p):
        g = pow(r, (p - 1) // order, p)
        if all(pow(g, order // q, p) != 1 for q in qs):
            break
    elems, x = [], 1
    for _ in range(order):
        elems.append(x)
        x = x * g % p
    return np.array(sorted(elems), dtype=np.int64)


def indicator_spectrum(p: int, elems: np.ndarray) -> np.ndarray:
    """S_a for a = 0..(p-1)/2 (S_{p-a} is the conjugate), by numpy's FFT."""
    ind = np.zeros(p)
    ind[elems] = 1.0
    return np.conj(np.fft.rfft(ind))


def magnitude_at(spectrum: np.ndarray, p: int, a: int) -> float:
    a %= p
    return float(abs(spectrum[min(a, p - a)]))


def max_magnitude(spectrum: np.ndarray) -> float:
    return float(np.abs(spectrum[1:]).max())


def direct_sum(p: int, elems: np.ndarray, a: int) -> float:
    """|S_a| summed term by term over the H subgroup elements."""
    k = (int(a) % p) * elems.astype(object) % p
    return float(abs(np.exp(2j * np.pi * k.astype(np.float64) / p).sum()))


def energies(p: int, spectrum: np.ndarray) -> tuple[int, int]:
    """Exact T_2 and T_3: sums of squared 2- and 3-fold representation counts."""
    out = []
    for m in (2, 3):
        counts = np.fft.irfft(np.conj(spectrum) ** m, n=p)
        exact = np.rint(counts)
        if np.abs(counts - exact).max() > ROUNDING_SLACK:
            raise ArithmeticError(f"FFT convolution at p={p} too inexact to round")
        out.append(sum(int(c) ** 2 for c in exact.astype(np.int64) if c))
    return out[0], out[1]


def j_count(p: int, order: int, start: int, length: int) -> int:
    """Solutions of n1*h1 = n2*h2 with n1, n2 in start+1..start+length mod p."""
    labels: dict[int, int] = {}
    zero = 0
    for n in range(start + 1, start + length + 1):
        n %= p
        if n == 0:
            zero += 1
        else:
            key = pow(n, order, p)  # x, y share a coset iff x^H == y^H
            labels[key] = labels.get(key, 0) + 1
    return order * sum(c * c for c in labels.values()) + zero * order * order
