"""Exponential sums over subgroups: single values, full tables, interval sums.

S_a is constant on the multiplicative cosets of the subgroup, so the full
table is the list of Gaussian periods eta_j = sum over i of e(g^(j+iM)/p),
one per coset, read off the coset index (g a primitive root, M = (p-1)/H):
S_a is the period of the coset of a, and S_0 = H.  Each phase e(x/p) is the
product of two entries of tables with about sqrt(p) entries each, and only
half the power table is visited: for odd H the periods of the second half
of the cosets are the exact conjugates of the first, for even H every
period is exactly real.  So |S_-a| = |S_a| holds exactly, each phase is within
PHASE_ERROR * 2^-53 of e(x/p) (derived in energy.energy_via_moments), and
every table lies within 1e-6 * H of a DFT of the subgroup indicator."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .subgroup import DEFAULT_DENSE_LIMIT, TABLE_BLOCK, CosetIndex, Subgroup

# Bound, in units of u = 2^-53, on the error of one phase of the sum table;
# derived in energy.energy_via_moments.
PHASE_ERROR = 29


def period_error(order: int) -> float:
    """d = H*u*(PHASE_ERROR + 2 + 1.5H): every coset magnitude c_j of all_sums
    lies within d of |eta_j| (derived in energy.energy_via_moments)."""
    return order * 2.0**-53 * (PHASE_ERROR + 2 + 1.5 * order)


@dataclass(frozen=True)
class Interval:
    """N consecutive residues start+1, ..., start+N taken mod p."""

    start: int = 0
    length: int = 1

    def residues(self, p: int) -> np.ndarray:
        if not 1 <= self.length <= p:
            raise InputError(f"interval length must be in [1, p], got {self.length}")
        return (self.start % p + 1 + np.arange(self.length, dtype=np.int64)) % p


@dataclass(eq=False)
class SumTable:
    """S_a = sum over subgroup of e(a*x/p) for every a, one value per coset.

    eta[j] is the Gaussian period S_(g^j) of coset j of the coset index and
    coset_magnitudes[j] = |eta_j| the common magnitude on that coset; S_a is
    eta[index.labels[a]] for a != 0, and S_0 is the subgroup order.
    """

    p: int
    order: int
    coset_magnitudes: np.ndarray
    eta: np.ndarray
    index: CosetIndex = field(repr=False)
    strategy = "direct"  # one sum per coset; not a field


def single_sum(a: int, sub: Subgroup) -> complex:
    """S_a as a complex number; each part is an exactly rounded sum (math.fsum)."""
    p = sub.p
    a = int(a) % p
    angles = [2.0 * math.pi / p * ((a * int(x)) % p) for x in sub.elements]
    return complex(math.fsum(map(math.cos, angles)), math.fsum(map(math.sin, angles)))


def phase_tables(p: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(B, hi, lo) with e(x/p) = hi[x // B] * lo[x % B] for 0 <= x < p:
    hi[q] = e(qB mod p / p) and lo[r] = e(r/p), B = isqrt(p - 1) + 1 entries each."""
    b = math.isqrt(p - 1) + 1
    k = np.arange(b, dtype=np.int64)
    turn = 2j * np.pi / p
    return b, np.exp(turn * (k * b % p)), np.exp(turn * k)


def all_sums(sub: Subgroup, dense_limit: int = DEFAULT_DENSE_LIMIT) -> SumTable:
    """The table of S_a for a = 0..p-1, as one Gaussian period per coset.

    The Gaussian period eta_j = S_(g^j) is the sum of column j of e(g^k/p)
    laid out as an H x M matrix, accumulated a block at a time from the two
    phase tables.  -1 = g^((p-1)/2) halves the work: for odd H it is
    g^(M/2) times a member of H, so coset j + M/2 is minus coset j and only
    columns j < M/2 are summed; for even H it lies in H, so row i + H/2 is
    minus row i and only rows i < H/2 are summed.
    """
    p, order = sub.p, sub.order
    if p > dense_limit:
        raise ResourceError(f"p = {p} exceeds the dense table limit {dense_limit}")
    index = sub.coset_index(dense_limit)
    m = index.cosets
    b, hi, lo = phase_tables(p)
    odd = order % 2 == 1
    eta = np.zeros(m // 2 if odd else m, dtype=np.complex128)
    # buffers reused by every block
    quo = np.empty(TABLE_BLOCK, dtype=np.int64)
    high, low = np.empty((2, TABLE_BLOCK), dtype=np.complex128)
    for cols, block in index.blocks(cols=m // 2) if odd else index.blocks(rows=order // 2):
        n, shape = block.size, block.shape
        q = np.floor_divide(block, b, out=quo[:n].reshape(shape))
        z = np.take(hi, q, out=high[:n].reshape(shape), mode="clip")
        r = np.subtract(block, np.multiply(q, b, out=q), out=block)
        w = np.take(lo, r, out=low[:n].reshape(shape), mode="clip")
        eta[cols] += np.multiply(z, w, out=z).sum(axis=0)
    if odd:
        # conjugate cosets share their magnitudes, so |S_-a| = |S_a| exactly
        eta = np.concatenate((eta, eta.conj()))
        return SumTable(p, order, np.tile(np.abs(eta[: m // 2]), 2), eta, index)
    eta = (2 * eta.real).astype(np.complex128)
    return SumTable(p, order, np.abs(eta.real), eta, index)


def max_sum(sub: Subgroup, table: SumTable | None = None, **table_kwargs) -> tuple[int, float]:
    """(a*, max over a != 0 of |S_a|).  a* is the least member of the cosets
    whose magnitude is within 2 * period_error(H) of the maximum: every coset
    whose true |eta_j| attains the true maximum is among them, so a* does not
    depend on the last bits of the table."""
    if table is None:
        table = all_sums(sub, **table_kwargs)
    c = table.coset_magnitudes
    best = c.max()
    reps = table.index.reps[c >= best - 2 * period_error(sub.order)]
    rows = max(1, TABLE_BLOCK // sub.order)
    a_star = min(
        int((reps[i : i + rows, None] * sub.elements % sub.p).min())
        for i in range(0, reps.size, rows)
    )
    return a_star, float(best)


def interval_subgroup_sum(
    a: int,
    interval: Interval,
    sub: Subgroup,
    table: SumTable | None = None,
) -> float:
    """sum over n in the interval of |S_{a*n}|, read off the sum table (built
    when none is given)."""
    p = sub.p
    a = int(a) % p
    if a == 0:
        raise InputError("a must be nonzero mod p")
    res = interval.residues(p)
    if table is None:
        table = all_sums(sub)
    mags = table.index.spread(table.coset_magnitudes, float(table.order), (a * res) % p)
    return float(np.sum(mags))
