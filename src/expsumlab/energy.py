"""Exact integer energies: additive representation counts of a subgroup and
product-collision counts between an interval and a subgroup.

Every count here is constant on the multiplicative cosets of the subgroup,
so it is evaluated and kept once per coset of the coset index, plus once at
0; nothing of length p is returned.  Everything is integer-exact; the
counts run in int64 (values are guaranteed to fit whenever the H^{2m}
overflow guard passes, with a big-int fallback for the final squared sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .expsum import Interval, SumTable, period_error
from .subgroup import TABLE_BLOCK, CosetIndex, Subgroup

# Budget guard: ENERGY_CAP mirrors a 128-bit accumulator.
ENERGY_CAP = 1 << 127


@dataclass(eq=False)
class _CosetProfile:
    """A count that is per_coset[j] at every residue of coset j of index and
    at_zero at 0, with energy the sum of its squares over all residues."""

    p: int
    energy: int
    per_coset: np.ndarray
    at_zero: int
    index: CosetIndex = field(repr=False)


@dataclass(eq=False)
class EnergyProfile(_CosetProfile):
    """The count at lam is the number of m-tuples of subgroup elements summing
    to lam; energy = number of 2m-tuples with equal half sums."""

    m: int


class IntervalProductProfile(_CosetProfile):
    """The count at lam is the number of (n, h) in interval x subgroup with
    n*h = lam; energy = number of solutions of n1*h1 = n2*h2."""


class DifferenceProfile(_CosetProfile):
    """The count at d is the number of ordered pairs (h1, h2) of subgroup
    elements with h1 - h2 = d; energy = the m = 2 additive energy T_2."""


def _exact_square_sum(counts: np.ndarray, int64_safe: bool) -> int:
    if int64_safe:
        return int(np.dot(counts, counts))
    return sum(int(c) * int(c) for c in counts[counts > 0])


def _sums_at_cosets(
    sub: Subgroup, per_coset: np.ndarray, at_zero: int, sign: int
) -> tuple[np.ndarray, int]:
    """(c, z) with c[j] = sum over h of f(g^j + sign*h) and z that sum at 0,
    for f = per_coset[j] on coset j and at_zero at 0: M*H + H label lookups,
    a block at a time in buffers that every block reuses."""
    index = sub.coset_index()
    elems, values = sign * sub.elements, np.append(per_coset, at_zero)
    points = np.concatenate(([0], index.reps))
    sums = np.empty(points.size, dtype=np.int64)
    rows = max(1, TABLE_BLOCK // sub.order)
    buf = np.empty((rows, sub.order), dtype=np.int64)
    lab = np.empty(buf.shape, dtype=index.labels.dtype)
    for i in range(0, points.size, rows):
        x = np.add(points[i : i + rows, None], elems, out=buf[: points.size - i])
        np.remainder(x, sub.p, out=x)
        np.take(values, np.take(index.labels, x, out=lab[: x.shape[0]]), out=x)
        x.sum(axis=1, out=sums[i : i + rows])
    return sums[1:], int(sums[0])


def representation_counts(
    sub: Subgroup, m: int, base: EnergyProfile | None = None
) -> EnergyProfile:
    """m-fold additive representation counts r_m(lam) = sum over h of
    r_(m-1)(lam - h), each fold evaluated once per coset.  The folds start
    from base, a profile of sub with base.m <= m, when one is given (r_3 from
    r_2 takes one fold, not two), else from r_1."""
    if m < 1:
        raise InputError(f"fold count must be >= 1, got {m}")
    order = sub.order
    if order ** (2 * m) > ENERGY_CAP:
        raise ResourceError(f"energy H^(2m) = {order}^{2 * m} exceeds the accumulator budget")
    index = sub.coset_index()
    if base is None:
        # r_1 is the indicator: 1 on coset 0, the subgroup itself
        per_coset, at_zero, done = (np.arange(index.cosets) == 0).astype(np.int64), 0, 1
    elif base.index is index and base.m <= m:
        per_coset, at_zero, done = base.per_coset, base.at_zero, base.m
    else:
        raise InputError(f"base must be a fold of this subgroup with m <= {m}")
    for _ in range(m - done):
        per_coset, at_zero = _sums_at_cosets(sub, per_coset, at_zero, -1)
    safe = order ** (2 * m) < 2**62
    energy = at_zero * at_zero + order * _exact_square_sum(per_coset, safe)
    return EnergyProfile(sub.p, energy, per_coset, at_zero, index, m)


def difference_counts(sub: Subgroup) -> DifferenceProfile:
    """Ordered pairs (h1, h2) by their difference h1 - h2, once per coset."""
    order, index = sub.order, sub.coset_index()
    per_coset, at_zero = _sums_at_cosets(sub, np.arange(index.cosets) == 0, 0, 1)
    energy = at_zero * at_zero + order * _exact_square_sum(per_coset, order**4 < 2**62)
    return DifferenceProfile(sub.p, energy, per_coset, at_zero, index)


def energy_via_moments(table: SumTable, m: int) -> float:
    """p^{-1} * sum over a of |S_a|^{2m} = p^{-1} (H^{2m} + H * sum over
    cosets of |eta_j|^{2m}): the exact m-fold energy T_m up to float error.

    moment_error_bound(table, m) bounds that error, with u = 2^-53:
    - each phase hi[q] * lo[r] of all_sums (x = qB + r, B = isqrt(p-1) + 1)
      is within PHASE_ERROR = 29u of e(x/p): the two angles 2*pi*(qB mod p)/p
      and 2*pi*r/p carry three roundings each (pi, the division by p, the
      product by an integer) and add up to below 2*pi*(p + B - 2)/p <= 2.4*pi,
      so 7.2*pi*u; the cosine and sine of each table entry lie within an
      ulp, at most u, each (2*sqrt(2)*u for the two entries); and the complex
      product of two entries of modulus 1 + O(u) adds at most 2*sqrt(2)*u:
      28.3u plus terms of order u^2;
    - each period is a sum of H such phases added in any order
      (componentwise at most (H-1)u times H, so sqrt(2)*(H-1)*u*H), and its
      magnitude adds at most 2u*H: the table's c_j is within
      d = period_error(H) = H*u*(PHASE_ERROR + 2 + 1.5*H) of |eta_j|.
      Halving the table adds nothing: conjugating a period is exact, and
      for even H the period is 2 Re of a sum of H/2 phases, within twice the
      bound for H/2 terms, which is within the bound for H terms.  So
      c_j^{2m} is within 2m*d*(c_j + d)^{2m-1} of |eta_j|^{2m}, and its own
      evaluation adds 2m*u*c_j^{2m};
    - the sum of the M powers adds at most M*u times their sum, and
      (H^{2m} + H * sum) / p four roundings of u times the result.
    The bound is scaled by 1 + 1e-6, above the relative error of its own
    float evaluation (below (M + 2m + 4)u).
    """
    if m < 1:
        raise InputError(f"fold count must be >= 1, got {m}")
    powers = table.coset_magnitudes ** (2 * m)
    if powers.size <= 10**6:
        total = math.fsum(powers)
    else:
        total = float(np.sum(powers))
    return (float(table.order ** (2 * m)) + table.order * total) / table.p


def moment_error_bound(table: SumTable, m: int) -> float:
    """Bound on |energy_via_moments(table, m) - T_m|, derived there."""
    order, c, k = table.order, table.coset_magnitudes, 2 * m
    u, d = 2.0**-53, period_error(table.order)
    periods = k * d * float(np.sum((c + d) ** (k - 1))) + (k + c.size) * u * float(np.sum(c**k))
    return (order * periods / table.p + 4 * u * energy_via_moments(table, m)) * (1 + 1e-6)


def j_count(interval: Interval, sub: Subgroup) -> IntervalProductProfile:
    """Exact product-collision profile: n*h = lam has one solution h for each
    nonzero n in the interval lying in the coset of lam, so the profile is
    the per-coset count c_j of the interval, and J = H * sum c_j^2 + [0 in I] H^2."""
    p, order = sub.p, sub.order
    res = interval.residues(p)
    index = sub.coset_index()
    nonzero = res[res != 0]
    per_coset = np.bincount(index.labels[nonzero], minlength=index.cosets).astype(np.int64)
    at_zero = order * (res.size - nonzero.size)
    energy = at_zero * at_zero + order * _exact_square_sum(per_coset, res.size**2 < 2**62)
    return IntervalProductProfile(p, energy, per_coset, at_zero, index)
