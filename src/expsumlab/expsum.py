"""Exponential sums over subgroups: single values and full tables; intervals.

S_a is constant on the multiplicative cosets of the subgroup, so the full
table is the list of Gaussian periods eta_j = sum over i of e(g^(j+iM)/p),
one per coset of the subgroup (g its primitive root, M = (p-1)/H): S_a is
the period of the coset of a, and S_0 = H.  The table keeps the subgroup,
so every later layer reaches the coset index through it, behind the int64
and length limits the index checks.  Each phase e(x/p) is the product of two
entries of tables with about sqrt(p) entries each, and only half the power
table is visited: for odd H the periods of the second half of the cosets
are the exact conjugates of the first, for even H every period is exactly
real.  So |S_-a| = |S_a| holds exactly, each phase is within
PHASE_ERROR * 2^-53 of e(x/p) (derived in energy.energy_via_moments), and
every table lies within 1e-6 * H of a DFT of the subgroup indicator.  An
Interval is mapped to the cosets once, by energy.j_count, whose counts give
the interval's double sum (energy.interval_subgroup_sum)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError
from .subgroup import Subgroup, check_length, residue_grid

# Entries per residue_grid block of the power table (the sum table) and of
# the a* search: small enough to stay in cache, so no block faults in fresh
# pages.
TABLE_BLOCK = 2**14
# Bound, in units of u = 2^-53, on the error of one phase of phase_tables;
# derived in energy.energy_via_moments.
PHASE_ERROR = 29
# Estimated nanoseconds per unit of work of the two routes to a length-M
# correlation; the measurements are listed in SumTable.direct_is_cheaper.
TRANSFORM_NS = 1.3  # one of the n*(log2 n + 1) terms of a padded FFT
ADD_NS = 0.6  # one float add of a shifted sum
LOOKUP_NS = 150.0  # one residue through Subgroup.coset_of and a bincount


@dataclass(frozen=True)
class Interval:
    """N consecutive residues start+1, ..., start+N taken mod p."""

    start: int = 0
    length: int = 1

    def check_length(self, p: int) -> None:
        """Refuse a length outside [1, p], then one above LENGTH_LIMIT."""
        if not 1 <= self.length <= p:
            raise InputError(f"interval length must be in [1, p], got {self.length}")
        check_length("interval length N", self.length)

    def residues(self, p: int) -> np.ndarray:
        self.check_length(p)
        return (self.start % p + 1 + np.arange(self.length, dtype=np.int64)) % p


@dataclass(eq=False)
class SumTable:
    """S_a = sum over subgroup of e(a*x/p) for every a, one value per coset.

    eta[j] is the Gaussian period S_(g^j) of coset j of the subgroup sub and
    coset_magnitudes[j] = |eta_j| the common magnitude on that coset; S_a is
    eta[sub.coset_of(a)] for a != 0, and S_0 is the subgroup order.  eta is
    float64 for even H, where every period is real, and complex128 for odd
    H.  Every eta[j] lies within period_error of the exact period, and every
    coset_magnitudes[j] within it of |eta_j| (derived in
    energy.energy_via_moments from the blocks all_sums adds).  correlate is
    the one transform of a length-M correlation in the program, and lags
    picks between it and shifted sums for stages 2 and 3 of the cascade.
    """

    p: int
    order: int
    coset_magnitudes: np.ndarray
    eta: np.ndarray
    sub: Subgroup = field(repr=False)
    period_error: float
    strategy = "direct"  # one sum per coset; not a field

    @property
    def padded_length(self) -> int:
        """The least power of two n >= 2M - 1: no lag of a zero-padded correlation wraps."""
        return 1 << (2 * self.eta.size - 2).bit_length()

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The periods' FFT zero-padded to padded_length n, built on first use (16n bytes)."""
        return np.fft.fft(self.eta, self.padded_length)

    def direct_is_cheaper(self, lookups: int = 0, adds: int = 0) -> bool:
        """The one cost rule between the two routes to a length-M quantity:
        whether `lookups` residues taken to their cosets and `adds` float adds
        of shifted sums (a complex add counts two) cost no more than one
        correlate, priced as three transforms (two forward, one inverse) of
        n = padded_length, TRANSFORM_NS * n * (log2 n + 1) each.  The choice
        reads only H, M, n and the set sizes it is given, so every run of an
        input takes the same routes.  The constants were measured with numpy
        2.4.6 (pocketfft) on a 2-vCPU x86-64 host, best of 3-7 runs:
        - TRANSFORM_NS: a complex np.fft.fft of n points took 0.71-1.11 ns
          per term n*(log2 n + 1) for n = 2^10 to 2^14, and 1.26-1.94 ns from
          2^15 to 2^21;
        - ADD_NS: `out += v[j : j + M]` took 0.30-0.81 ns per float for M from
          10^3 to 10^6, and 0.28-0.68 ns per float of a complex add;
        - LOOKUP_NS: Subgroup.coset_of and a bincount took 132-240 ns per
          residue for H from 18 to 1400000, plus O(M) per block of sums.
        Building the coset index's keys (O(M log M), once per subgroup) costs
        less than one transform of n >= 2M - 1 points and is not counted.
        Timed against each other, r_3 took 5.2 ms by lookups and 0.52 ms by
        the transform at (p, H) = (200029, 158), where the rule picks the
        transform, and 2.6 ms and 13 ms at (9999991, 99), where it picks the
        lookups.  Fixed costs are not counted (33-55 us of array calls for a
        correlation at n <= 256, 18-33 us for a pass of lookups): at
        (1429, 17), n = 256, the rule picks the transform for r_3, which took
        89 us there against 70 us for its 289 lookups."""
        n = self.padded_length
        direct = LOOKUP_NS * lookups + ADD_NS * adds
        return direct <= 3 * TRANSFORM_NS * n * (math.log2(n) + 1)

    def correlate(self, f: np.ndarray, magnitudes: bool = False) -> np.ndarray:
        """sum over j of conj(f[j]) * v[(j + k) mod M] for every k < M, v the
        periods or, with magnitudes, their magnitudes (transformed per call),
        by one FFT zero-padded to padded_length whatever the factors of M."""
        m, n = self.eta.size, self.padded_length
        corr = np.fft.fft(f, n)
        np.conj(corr, out=corr)
        corr *= np.fft.fft(self.coset_magnitudes, n) if magnitudes else self.spectrum
        np.fft.ifft(corr, out=corr)
        # lag t is sum over j of conj(f[j]) * v[j + t]; cyclic lag k adds t = k and t = n - M + k
        cyclic = corr[:m]
        cyclic[1:] += corr[n - m + 1 :]
        return cyclic

    def lags(self, x: np.ndarray, y: np.ndarray | None = None, magnitudes: bool = False) -> np.ndarray:
        """sum over j in x, and i in y when given, of v[(j + i + k) mod M] for
        every k < M, v the periods or, with magnitudes, their magnitudes: by
        shifted sums, one add of v per member of y and then of x, or by one
        correlate of the exact counts of x or of the sums x + y mod M, as
        direct_is_cheaper picks for those adds (a complex add counts two)."""
        v = self.coset_magnitudes if magnitudes else self.eta
        m, rows = v.size, x.size + (0 if y is None else y.size)
        if self.direct_is_cheaper(adds=rows * m * (v.itemsize // 8)):
            return _shifted_sums(v if y is None else _shifted_sums(v, y), x)
        counts = np.bincount(x, minlength=m) if y is None else _pair_sums(x, y, m)
        return self.correlate(counts, magnitudes)


def _shifted_sums(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """out[k] = sum over j in rows of v[(j + k) mod M] for every k < M, by one
    add of a slice of v doubled per row, in the order of rows."""
    m = v.size
    doubled = np.concatenate((v, v))
    out = np.zeros_like(v)
    for j in rows:
        out += doubled[j : j + m]
    return out


def _pair_sums(xc: np.ndarray, yc: np.ndarray, m: int) -> np.ndarray:
    """counts[c] = #{(i, j) in xc x yc : i + j = c mod m}, exact."""
    counts = np.zeros(m, dtype=np.int64)
    for _, _, x in residue_grid(np.add, xc, yc, m, 2**20):
        counts += np.bincount(x.ravel(), minlength=m)
    return counts


def single_sum(a: int, sub: Subgroup) -> complex:
    """S_a as a complex number; each part is an exactly rounded sum (math.fsum)."""
    p = sub.p
    a = int(a) % p
    angles = [2.0 * math.pi / p * ((a * int(x)) % p) for x in sub.elements]
    return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))


def phase_tables(p: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(B, hi, lo) with e(x/p) = hi[x >> k] * lo[x & (B - 1)] for 0 <= x < p,
    where B = 2^k is the least power of two above isqrt(p - 1), so B^2 > p - 1:
    hi[q] = e(qB/p) for q <= (p - 1) // B, each with qB < p and no reduction
    mod p, and lo[r] = e(r/p) for r < B.  Both tables have at most 2 sqrt(p)
    entries (39 KB and 64 KB at p = 10^7)."""
    b = 1 << math.isqrt(p - 1).bit_length()
    turn = 2j * np.pi / p
    starts = np.arange((p - 1) // b + 1, dtype=np.int64) * b
    return b, np.exp(turn * starts), np.exp(turn * np.arange(b, dtype=np.int64))


def phase_sums(rows: np.ndarray, cols: np.ndarray, p: int, block: int) -> tuple[np.ndarray, int, int]:
    """(sums, height, adds): sums[j] = sum over i of e(rows[i] * cols[j] / p),
    from the phase tables a residue_grid block at a time, in buffers of
    `block` entries; each entry splits as x = qB + r by a shift and a mask.
    A one-row block is added as it is.  height is the most rows a block sums
    and adds the block sums added into each column (the grid tiles every
    column as column 0): a sum's float error is read off the two (derived in
    energy.energy_via_moments)."""
    grid = residue_grid(np.multiply, rows, cols, p, block)
    b, hi, lo = phase_tables(p)
    shift, mask = b.bit_length() - 1, b - 1
    sums = np.zeros(cols.size, dtype=np.complex128)
    quo = np.empty(block, dtype=np.int64)
    high, low = np.empty((2, block), dtype=np.complex128)
    height, adds = 1, 0
    for _, cs, x in grid:
        n, shape = x.size, x.shape
        if cs.start == 0:
            height, adds = max(height, shape[0]), adds + 1
        q = np.right_shift(x, shift, out=quo[:n].reshape(shape))
        z = np.take(hi, q, out=high[:n].reshape(shape), mode="clip")
        r = np.bitwise_and(x, mask, out=x)
        w = np.take(lo, r, out=low[:n].reshape(shape), mode="clip")
        np.multiply(z, w, out=z)
        sums[cs] += z[0] if shape[0] == 1 else z.sum(axis=0)
    return sums, height, adds


def all_sums(sub: Subgroup) -> SumTable:
    """The table of S_a for a = 0..p-1, as one Gaussian period per coset.

    The Gaussian period eta_j = S_(g^j) is the sum of column j of e(g^k/p)
    laid out as an H x M matrix (the elements by the coset representatives),
    summed by phase_sums in blocks of TABLE_BLOCK entries, which span one row
    once the visited columns number TABLE_BLOCK or more (at p near 10^7,
    every H up to about 300).  -1 = g^((p-1)/2) halves the work: for odd H it
    is g^(M/2) times a member of H, so coset j + M/2 is minus coset j and
    only columns j < M/2 are summed; for even H it lies in H, so row i + H/2
    is minus row i and only rows i < H/2 are summed.  period_error is read
    off the shapes of the blocks phase_sums adds.  It takes about p/2 phase
    lookups and holds no array of length p.  A p above the int64 limit of
    the subgroup's products, or more than LENGTH_LIMIT cosets, is refused
    with ResourceError by sub.reps before any table is built.
    """
    p, order = sub.p, sub.order
    m = sub.cosets
    odd = order % 2 == 1
    rows, cols = (order, m // 2) if odd else (order // 2, m)
    eta, height, adds = phase_sums(sub.elements[:rows], sub.reps[:cols], p, TABLE_BLOCK)
    error = order * 2.0**-53 * (PHASE_ERROR + 2 + 1.5 * (height - 1 + adds))
    eta = np.concatenate((eta, eta.conj())) if odd else 2 * eta.real
    # abs is exact on a conjugate and on a real period, so |S_-a| = |S_a| exactly
    return SumTable(p, order, np.abs(eta), eta, sub, error)


def max_sum(table: SumTable) -> tuple[int, float]:
    """(a*, max over a != 0 of |S_a|).  a* is the least member of the cosets
    whose magnitude is within twice the table's period_error of the maximum:
    every coset whose true |eta_j| attains the true maximum is among them, so
    a* does not depend on the last bits of the table."""
    c, sub = table.coset_magnitudes, table.sub
    best = c.max()
    reps = sub.reps[c >= best - 2 * table.period_error]
    grid = residue_grid(np.multiply, reps, sub.elements, table.p, TABLE_BLOCK)
    a_star = min(int(x.min()) for _, _, x in grid)
    return a_star, float(best)
