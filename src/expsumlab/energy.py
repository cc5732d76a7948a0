"""Exact integer energies: additive representation counts of a subgroup and
product-collision counts between an interval and a subgroup, which also give
the interval's double sum.

Every count here is constant on the multiplicative cosets of the subgroup,
so it is evaluated and kept once per coset of the subgroup, plus once at 0;
nothing of length p is returned.  The additive counts are cyclotomic
numbers, each profile counted by the one of two routes that
SumTable.direct_is_cheaper picks: exactly, by coset lookups of the sums
1 + t (+ t') over the subgroup, or from the Gaussian periods of the sum
table by one SumTable.correlate, rounded under a derived error bound and
refused where that bound does not certify the rounding.  j_count is the one
map of an interval to the cosets of the table's subgroup, and the double
sum at any a is the dot product of its counts with the table's magnitudes.
Everything is integer-exact: the counts run in int64 (they fit whenever the
H^{2m} overflow guard passes), and each profile's energy sums their squares
in int64 where the counts bound that sum below 2^63, in Python ints otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .expsum import Interval, SumTable
from .subgroup import Subgroup, residue_grid

# Budget guard: ENERGY_CAP mirrors a 128-bit accumulator.
ENERGY_CAP = 1 << 127
# Bound, in units of u = 2^-53 per level of a power-of-two FFT, on one lag of
# a padded correlation; derived in representation_counts.
FFT_ERROR = 26
# Sums per residue_grid block of the lookup route, so no H^2 array is built.
LOOKUP_BLOCK = 2**16


@dataclass(eq=False)
class CosetProfile:
    """A count that is per_coset[j] at every residue of coset j of sub and
    at_zero at 0, with energy the sum of its squares over all residues,
    exact: representation_counts gives the m-fold sums of subgroup elements
    (energy T_m), difference_counts the differences h1 - h2 (energy T_2),
    and j_count the products n*h of the interval and the subgroup (energy J,
    the solutions of n1*h1 = n2*h2)."""

    per_coset: np.ndarray
    at_zero: int
    sub: Subgroup = field(repr=False)
    energy: int = field(init=False)

    def __post_init__(self) -> None:
        c = self.per_coset
        top = int(c.max())
        # the sum of squares is at most size * max^2
        if c.size * top * top < 2**63:
            squares = int(np.dot(c, c))
        else:
            squares = sum(int(v) * int(v) for v in c[c > 0])
        self.energy = self.at_zero * self.at_zero + self.sub.order * squares


def correlation_error_bound(table: SumTable, m: int) -> float:
    """Bound on the distance from the exact counts of every value that
    representation_counts(table, m) rounds (for m = 2 also those of
    difference_counts(table)); derived in representation_counts."""
    p, order = table.p, table.order
    u, d = 2.0**-53, table.period_error
    b = table.coset_magnitudes + d
    bm = b**m
    alpha = m * d * b ** (m - 1) + 3 * m * u * bm
    norm_b, norm_bm = (math.sqrt(float(np.dot(v, v))) for v in (b, bm))
    sum_bm = float(np.sum(bm))
    s = norm_bm * norm_b  # bounds every lag
    fft = 2 * FFT_ERROR * (math.log2(table.padded_length) + 1) * u * norm_bm * float(np.sum(b))
    inputs = math.sqrt(float(np.dot(alpha, alpha))) * norm_b + d * sum_bm
    per_coset = inputs + fft + 5 * u * s + 4 * u * float(order**m)
    at_zero = float(np.sum(alpha)) + b.size * u * sum_bm + 4 * u * (order ** (m - 1) + sum_bm)
    return max(per_coset, at_zero) / p * (1 + 1e-6)


def _period_correlation(table: SumTable, f: np.ndarray, m: int) -> tuple[np.ndarray, float]:
    """The counts before rounding: (H^m + Re sum over j of f[j] * conj(eta[(j + k) mod M])) / p
    for every k, read off table.correlate(f), and (H^(m-1) + sum of f) / p over H at 0."""
    p, order = table.p, table.order
    cyclic = table.correlate(f).real
    values = (float(order**m) + cyclic) / p
    return values, (float(order ** (m - 1)) + float(np.sum(f.real))) / p


def _transform_counts(table: SumTable, m: int, sign: int = 1) -> tuple[np.ndarray, int]:
    """The transform route to (per_coset, at_zero) of the m-fold sums, or for
    sign -1 of the differences (m = 2): the correlation of eta^m, or of
    |eta|^2, with the periods, rounded once correlation_error_bound(table, m)
    certifies it and refused otherwise."""
    bound = correlation_error_bound(table, m)
    if bound >= 0.5:
        raise ResourceError(
            f"counts of {m}-fold sums at p = {table.p}, H = {table.order} are certified only "
            f"within {bound:.3g}, not below 1/2"
        )
    if sign < 0:
        f = table.coset_magnitudes**2
    else:
        f = table.eta
        for _ in range(m - 1):
            f = f * table.eta
    values, zero = _period_correlation(table, f, m)
    return np.rint(values).astype(np.int64), table.order * round(zero)


def _lookup_counts(table: SumTable, m: int, sign: int = 1) -> tuple[np.ndarray, int]:
    """The lookup route to the same counts, for m = 2 and 3: per_coset[k] the
    tuples (t2, ..., tm) of H^(m-1) with 1 + t2 + ... + tm in coset k (1 - t2
    for sign -1), and at_zero H times those whose sum is 0, by a bincount of
    Subgroup.coset_of over residue_grid blocks of LOOKUP_BLOCK sums, so no
    array of H^2 sums is built."""
    sub, p = table.sub, table.p
    rows = np.ones(1, dtype=np.int64) if m == 2 else (1 + sub.elements) % p
    cols = sub.elements if sign > 0 else p - sub.elements
    counts = np.zeros(sub.cosets + 1, dtype=np.int64)
    for _, _, x in residue_grid(np.add, rows, cols, p, LOOKUP_BLOCK):
        counts += np.bincount(sub.coset_of(x.ravel()), minlength=counts.size)
    return counts[:-1], sub.order * int(counts[-1])


def _counts(table: SumTable, m: int, sign: int = 1) -> CosetProfile:
    """The profile by the route table.direct_is_cheaper picks for H^(m-1)
    lookups, with the identities every count profile of m-fold sums
    satisfies."""
    order = table.order
    lookups = m in (2, 3) and table.direct_is_cheaper(lookups=order ** (m - 1))
    per_coset, at_zero = (_lookup_counts if lookups else _transform_counts)(table, m, sign)
    assert at_zero >= 0 and bool(np.all(per_coset >= 0)), "negative count"
    assert at_zero + order * int(np.sum(per_coset)) == order**m, "counts do not add up to H^m"
    return CosetProfile(per_coset, at_zero, table.sub)


def representation_counts(table: SumTable, m: int) -> CosetProfile:
    """m-fold additive representation counts r_m(lam), the number of m-tuples
    of subgroup elements summing to lam, once per coset, by one of two routes
    that give the same exact integers; table.direct_is_cheaper picks the
    lookups, for m = 2 and 3, when their H^(m-1) lookups cost less than a
    correlation.

    The lookup route counts cyclotomic numbers: h1 + ... + hm = lam holds
    exactly when h1 (1 + t2 + ... + tm) = lam with t_i = h_i / h1 in H, and
    h1 is then fixed by lam and the t_i, so r_m on coset k is the number of
    (t2, ..., tm) in H^(m-1) with 1 + t2 + ... + tm in coset k, and r_m(0)
    is H times the number whose sum is 0 (Berndt, Evans and Williams, Gauss
    and Jacobi Sums, 1998).  Each sum is taken to its coset by
    Subgroup.coset_of, with no rounding and no bound.

    The transform route reads the periods.  On coset k of the subgroup,
    r_m(g^k) = p^-1 * sum over a of S_a^m e(-a g^k/p)
    = (H^m + sum over j of eta_j^m * conj(eta_(j+k mod M))) / p,
    as S_a = eta_j on the H residues of coset j, and r_m(0) = (H^m + H *
    sum over j of eta_j^m) / p.  That is H times the integer
    (H^(m-1) + sum over j of eta_j^m) / p = r_(m-1)(-1), as r_m(0) = sum over
    h of r_(m-1)(-h) (for the difference counts, (H + sum |eta_j|^2) / p = 1
    by Parseval), so it is rounded before the product by H.  The sum over j
    is the real part of table.correlate(eta^m), padded to n = padded_length.
    Every entry is rounded to the nearest integer once
    correlation_error_bound(table, m) is below 1/2.
    That bound, with u = 2^-53, d the table's period_error and b_j = c_j + d
    for the table's magnitudes c_j, adds:
    - the inputs: the computed period e_j is within d of eta_j (d bounds the
      complex error; see energy_via_moments), so |e_j| and |eta_j| are at
      most b_j, and e_j^m, taken by m - 1 complex products of relative error
      sqrt(5)*u each, is within alpha_j = m*d*b_j^(m-1) + 3m*u*b_j^m of
      eta_j^m (for the difference counts, c_j^2 is within 2d*b_j + u*c_j^2
      of |eta_j|^2, inside alpha_j at m = 2).  So the correlation of the
      computed inputs is within sum over j of alpha_j*b_(j+k) + d*b_j^m
      <= |alpha|_2 |b|_2 + d |b^m|_1 (Cauchy-Schwarz) of the exact one;
    - the padded FFT: with a normwise error of eps per transform (Higham,
      Accuracy and Stability, 2nd ed., Thm 24.2: eps <= log2(n)*eta', with
      eta' <= 8u for twiddle factors within 2u), each lag of
      ifft(conj(fft(f)) * fft(g)) is within (2 eps + sqrt(5) u) |f|_2 |g|_2
      from the two forward transforms and the products, plus eps |f|_2 |g|_1
      from the inverse, whose error is relative to the 2-norm of all n lags,
      which |f|_2 |g|_1 bounds.  That is at most
      FFT_ERROR * (log2(n) + 1) * u * |b^m|_2 |b|_1 with FFT_ERROR = 26 for a
      lag, twice that for the two lags of a cyclic entry, and u |b^m|_2 |b|_2
      for their addition;
    - the final (H^m + sum) / p: rounding H^m to a float, the addition and
      the division, 4u (H^m + |b^m|_2 |b|_2);
    - at 0, before the product by H: |alpha|_1, the summation of the M
      powers (M*u*|b^m|_1), and the same final roundings, 4u (H^(m-1) +
      |b^m|_1);
    all over p, scaled by 1 + 1e-6 above the bound's own float error.
    Where the bound is 1/2 or more the counts are refused with ResourceError
    (exit 3), and nothing is rounded.  The bound grows with H: its first term
    is about m*d*M*H^(m/2)/p, and all_sums adds each period as n_b block sums
    of at most h rows, so d = H*u*(PHASE_ERROR + 2 + 1.5*(h - 1 + n_b)) stays
    far below the H^2*u of one sequential sum.  For m = 3 it reads 0.0022 at
    (p, H) = (9999991, 1111110), 0.0080 at (9999991, 1999998) and 0.0153 at
    (4707931, 2353965), the largest found with p <= 10^7; near the int64
    limit it reads 0.393 at (3031903057, 2353962), where M = 1288, and
    H^6 <= 2^127 caps H at 2353973.  So no input
    measured is refused.  On either route every count is asserted to be at
    least 0 and the counts to add up to H^m.
    """
    if m < 1:
        raise InputError(f"fold count must be >= 1, got {m}")
    order = table.order
    if order ** (2 * m) > ENERGY_CAP:
        raise ResourceError(f"energy H^(2m) = {order}^{2 * m} exceeds the accumulator budget")
    prof = _counts(table, m)
    if m == 2:
        # h1 + h2 = 0 has H solutions when -1 lies in H (even H), else none
        assert prof.at_zero == (order if order % 2 == 0 else 0), "r_2(0) is not H or 0"
    return prof


def difference_counts(table: SumTable) -> CosetProfile:
    """Ordered pairs (h1, h2) by their difference h1 - h2, once per coset:
    representation_counts at m = 2 with 1 - t in place of 1 + t by lookups,
    or |eta_j|^2 in place of eta_j^2 by the transform."""
    prof = _counts(table, 2, sign=-1)
    assert prof.at_zero == table.order, "h1 - h2 = 0 has H solutions"
    return prof


def energy_via_moments(table: SumTable, m: int) -> float:
    """p^{-1} * sum over a of |S_a|^{2m} = p^{-1} (H^{2m} + H * sum over
    cosets of |eta_j|^{2m}): the exact m-fold energy T_m up to float error.

    moment_error_bound(table, m) bounds that error, with u = 2^-53:
    - each phase hi[q] * lo[r] of all_sums (x = qB + r with 0 <= x < p,
      B = 2^k > isqrt(p-1), see expsum.phase_tables) is within
      PHASE_ERROR = 29u of e(x/p): the two angles 2*pi*qB/p and 2*pi*r/p
      carry three roundings each (pi, the division by p, the product by an
      integer), and as only entries with qB < p exist they add up to exactly
      2*pi*x/p < 2*pi, so 6*pi*u; the cosine and sine of each table entry lie
      within an ulp, at most u, each (2*sqrt(2)*u for the two entries); and
      the complex product of two entries of modulus 1 + O(u) adds at most
      2*sqrt(2)*u: 24.5u plus terms of order u^2;
    - all_sums adds each period as n_b block sums of at most h rows each:
      a block sum of its terms, taken in any order, is componentwise within
      (h-1)u times the sum of their moduli, and each of the n_b additions
      into the period rounds within u times the running sum, itself at most
      the sum of the moduli of all its terms.  Over H phases of modulus
      1 + O(u) that is componentwise (h - 1 + n_b)*u*H, so
      sqrt(2)*(h - 1 + n_b)*u*H for the complex period, and the table's
      period is within H*u*(PHASE_ERROR + 1.5*(h - 1 + n_b)) of eta_j; its
      magnitude adds at most 2u*H: the table's c_j is within
      d = period_error = H*u*(PHASE_ERROR + 2 + 1.5*(h - 1 + n_b)) of
      |eta_j|, and its period within d of eta_j.  all_sums reads h and n_b
      off the blocks its loop adds and stores d in the table.
      Halving the table adds nothing: conjugating a period is exact, and
      for even H the period is 2 Re of a sum of H/2 phases in blocks of the
      same h and n_b, within twice the bound for H/2 terms, which is the
      bound for H terms.  So
      c_j^{2m} is within 2m*d*(c_j + d)^{2m-1} of |eta_j|^{2m}, and its own
      evaluation adds 2m*u*c_j^{2m};
    - the sum of the M powers, by np.sum in any order, adds at most M*u
      times their sum, and
      (H^{2m} + H * sum) / p four roundings of u times the result.
    The bound is scaled by 1 + 1e-6, above the relative error of its own
    float evaluation (below (M + 2m + 4)u).
    """
    if m < 1:
        raise InputError(f"fold count must be >= 1, got {m}")
    total = float(np.sum(table.coset_magnitudes ** (2 * m)))
    return (float(table.order ** (2 * m)) + table.order * total) / table.p


def moment_error_bound(table: SumTable, m: int, moment: float) -> float:
    """Bound on |moment - T_m| for moment = energy_via_moments(table, m), derived there."""
    order, c, k = table.order, table.coset_magnitudes, 2 * m
    u, d = 2.0**-53, table.period_error
    periods = k * d * float(np.sum((c + d) ** (k - 1))) + (k + c.size) * u * float(np.sum(c**k))
    return (order * periods / table.p + 4 * u * moment) * (1 + 1e-6)


def j_count(interval: Interval, table: SumTable) -> CosetProfile:
    """Exact product-collision profile of the interval with the table's
    subgroup: n*h = lam has one solution h for each nonzero n in the interval
    lying in the coset of lam, so the profile is the per-coset count c_j of
    the interval, and J = H * sum c_j^2 + [0 in I] H^2."""
    sub = table.sub
    res = interval.residues(sub.p)
    nonzero = res[res != 0]
    per_coset = np.bincount(sub.coset_of(nonzero), minlength=sub.cosets).astype(np.int64)
    return CosetProfile(per_coset, sub.order * (res.size - nonzero.size), sub)


def interval_subgroup_sum(a: int, profile: CosetProfile, table: SumTable) -> float:
    """sum over n in the interval of |S_(a*n)|, from the interval's j_count
    profile: with a in coset k, a*n lies in coset j + k for n in coset j, so
    the sum is sum over j of c_j |eta_(j+k)|, plus H for n = 0 (at_zero)."""
    a = int(a) % table.p
    if a == 0:
        raise InputError("a must be nonzero mod p")
    k = int(table.sub.coset_of(a))
    return float(np.dot(profile.per_coset, np.roll(table.coset_magnitudes, -k))) + profile.at_zero
