"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately naive: plain Python loops, cmath phases,
literal tuple enumeration, and for the mid-sized cascade numpy over every
residue.  These implementations never share code with the package paths
they check.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter, defaultdict

import mpmath
import numpy as np

from expsumlab.errors import InputError, ResourceError

DEFAULT_TUPLE_BUDGET = 10**8


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def naive_dft(x) -> list[complex]:
    n = len(x)
    return [
        sum(x[j] * cmath.exp(-2j * math.pi * j * k / n) for j in range(n))
        for k in range(n)
    ]


def phase(k: int, p: int) -> complex:
    return cmath.exp(2j * math.pi * (k % p) / p)


def subgroup_sum(a: int, elements, p: int) -> complex:
    return sum(phase(a * int(x), p) for x in elements)


def double_sum(a: int, start: int, length: int, elements, p: int) -> float:
    """sum over n = start+1, ..., start+length of |S_(a*n)|: one subgroup sum
    of H phases per n, O(N*H) in all, with no coset and no table."""
    return math.fsum(abs(subgroup_sum(a * n, elements, p)) for n in range(start + 1, start + length + 1))


def exact_sum(a: int, elements, p: int) -> mpmath.mpc:
    """S_a to 40 significant digits, as an mpmath complex."""
    with mpmath.workdps(40):
        return mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * (a * int(x) % p)) / p) for x in elements)


def indicator(sub) -> np.ndarray:
    """The 0/1 indicator of the subgroup over all p residues, from its elements alone."""
    out = np.zeros(sub.p, dtype=np.int64)
    out[np.asarray(sub.elements, dtype=np.int64)] = 1
    return out


@functools.lru_cache(maxsize=64)
def coset_labels(p: int, root: int, order: int) -> np.ndarray:
    """labels[x] = log_root(x) mod M for every nonzero residue x and M at 0,
    with M = (p-1)/order, from a discrete-log table walked one power of root
    at a time (coset j is root^j times the subgroup of the powers root^(iM))."""
    m = (p - 1) // order
    labels = [None] * p
    labels[0] = m
    x = 1
    for k in range(p - 1):
        assert labels[x] is None, f"{root} is not a primitive root mod {p}"
        labels[x] = k % m
        x = x * root % p
    out = np.array(labels, dtype=np.int64)
    out.flags.writeable = False  # cached and shared
    return out


def spread(sub, per_coset, at_zero) -> np.ndarray:
    """per_coset[j] at every residue of coset j of the subgroup and at_zero at
    0, read through coset_labels built from the subgroup's primitive root
    alone, so that tests can compare values the package computed once per
    coset with the oracles here residue by residue."""
    return np.append(per_coset, at_zero)[coset_labels(sub.p, sub.root, sub.order)]


def cyclotomic_counts(p: int, root: int, elements, sign: int = 1) -> np.ndarray:
    """c[k] = #{(h1, h2) : h1 + sign*h2 = root^k} for k < M, and c[M] the
    count at 0, by the cyclotomic identity: with h2 = h1*t the sums are
    h1*(1 + t), and with h1 = h2*t the differences are h2*(t - 1).  For
    lam != 0 each t whose t + sign lies in the coset of lam gives exactly one
    pair, and t + sign = 0 gives H pairs at 0.  The cosets are read off
    coset_labels, built from the primitive root alone: H lookups."""
    h = len(elements)
    m = (p - 1) // h
    t = np.asarray(elements, dtype=np.int64)
    counts = np.bincount(coset_labels(p, root, h)[(t + sign) % p], minlength=m + 1)
    counts[m] *= h
    return counts


def cyclotomic_r3(p: int, root: int, elements) -> np.ndarray:
    """c[k] = r_3(root^k) for k < M and c[M] = r_3(0), as in cyclotomic_counts,
    from r_3(lam) = sum over h of r_2(lam - h) with r_2 read through
    coset_labels: M*H + H lookups, for M small (M = 2 at H = (p - 1)/2)."""
    h = len(elements)
    m = (p - 1) // h
    t = np.asarray(elements, dtype=np.int64)
    labels = coset_labels(p, root, h)
    r2 = cyclotomic_counts(p, root, elements)
    points = [pow(root, k, p) for k in range(m)] + [0]
    return np.array([int(r2[labels[(x - t) % p]].sum()) for x in points], dtype=np.int64)


def fold_counts(p: int, elements, m: int, sign: int = 1) -> np.ndarray:
    """counts[lam] = #{(h_1, ..., h_m) : h_1 + sign*(h_2 + ... + h_m) = lam}
    over all p residues, by m - 1 shifted sums of the indicator: sign 1 gives
    the representation counts r_m, sign -1 at m = 2 the difference counts."""
    ind = np.zeros(p, dtype=np.int64)
    ind[np.asarray(elements, dtype=np.int64) % p] = 1
    counts = ind
    for _ in range(m - 1):
        counts = sum(np.roll(counts, sign * int(h)) for h in elements)
    return counts


def parseval_defect(magnitudes, p: int, order: int) -> float:
    """Relative gap between the sum over all p residues of |S_a|^2 and p * H."""
    total = float(np.sum(np.asarray(magnitudes, dtype=np.float64) ** 2))
    return abs(total - p * order) / (p * order)


def quadruple_loop_j(residues, elements, p: int) -> int:
    count = 0
    for n1 in residues:
        for h1 in elements:
            for n2 in residues:
                for h2 in elements:
                    if (n1 * h1 - n2 * h2) % p == 0:
                        count += 1
    return count


def _pick_bucket(buckets: dict[int, list], scores: dict[int, float], has_nonzero) -> int:
    best = max(scores.values())
    tied = sorted(i for i, s in scores.items() if s >= best * (1.0 - 1e-12))
    for i in tied:
        if any(has_nonzero(member) for member in buckets[i]):
            return i
    return tied[0]


def tuple_level_trace(p: int, elements, a: int) -> dict:
    """Re-derive the three-stage cascade by enumerating raw tuples.

    Mirrors the bucketing rules (floor discard, halving buckets, score
    maximization preferring buckets with a nonzero residue) but runs over
    H^3 triples and H^2 pairs explicitly with cmath arithmetic.  A stage
    whose bucket yields no nonzero residue ends the trace: the result is
    then {"empty_stage": k}.
    """
    elements = [int(e) for e in elements]
    H = len(elements)

    def inner_mag(c: int) -> float:
        return abs(subgroup_sum(c, elements, p))

    def stage(items, value, scale: float, floor: float, key):
        """(i0, bucket, sorted nonzero keys of its members), or None if none is left."""
        buckets: dict[int, list] = defaultdict(list)
        for t in items:
            v = value(t)
            if v >= floor:
                buckets[max(0, math.floor(math.log2(scale / v)))].append(t)
        if not buckets:
            return None
        scores = {i: scale * 2.0**-i * len(b) for i, b in buckets.items()}
        i0 = _pick_bucket(buckets, scores, lambda t: key(t) != 0)
        members = sorted({key(t) for t in buckets[i0]} - {0})
        return (i0, buckets[i0], members) if members else None

    delta = inner_mag(a) / H
    triples = list(itertools.product(elements, repeat=3))

    # Stage 1: triples keyed by |sum over subgroup of e(a * (x1+x2+x3) * y)|.
    s1 = stage(triples, lambda t: inner_mag(a * sum(t)), H, 0.5 * H * delta**3,
               lambda t: sum(t) % p)
    if s1 is None:
        return {"empty_stage": 1}
    i1, g1, x_set = s1
    delta1_meas = sum(inner_mag(a * x) for x in x_set) / (H * len(x_set))

    # Stage 2: triples keyed by sum over x in X of |S_{a x (y1+y2+y3)}|.
    s2 = stage(triples, lambda t: sum(inner_mag(a * x * sum(t)) for x in x_set) / len(x_set),
               H, 0.5 * H * delta1_meas**3, lambda t: sum(t) % p)
    if s2 is None:
        return {"empty_stage": 2}
    i2, g2, y_set = s2
    delta2_meas = sum(
        sum(inner_mag(a * x * y) for x in x_set) for y in y_set
    ) / (H * len(x_set) * len(y_set))

    # Stage 3: pairs keyed by |sum over X x Y of e(a x y (z1 - z2))|.
    scale3 = len(x_set) * len(y_set)
    pairs = list(itertools.product(elements, repeat=2))
    s3 = stage(pairs,
               lambda pr: abs(sum(phase(a * x * y * (pr[0] - pr[1]), p)
                                  for x in x_set for y in y_set)),
               scale3, 0.5 * scale3 * delta2_meas**2, lambda pr: (pr[0] - pr[1]) % p)
    if s3 is None:
        return {"empty_stage": 3}
    i3, g3, z_set = s3

    return {
        "empty_stage": None,
        "delta": delta,
        "i0": (i1, i2, i3),
        "deltas": tuple(2.0 ** -(i + 1) for i in (i1, i2, i3)),
        "x": x_set,
        "y": y_set,
        "z": z_set,
        "g_sizes": (len(g1), len(g2), len(g3)),
        "delta_meas": (delta1_meas, delta2_meas),
    }


def _residue_stage(values, mults, scale: float, floor: float):
    """Dyadic bucketing over residues: (i0, members, weight), or None if no
    member with a nonzero residue is left."""
    lam = np.flatnonzero((mults > 0) & (values >= floor))
    if lam.size == 0:
        return None
    idx = np.maximum(np.floor(np.log2(scale / values[lam])).astype(np.int64), 0)
    weight = np.bincount(idx, weights=mults[lam].astype(np.float64))
    scores = scale * 2.0 ** -np.arange(weight.size) * weight
    tied = [i for i in range(weight.size) if scores[i] >= scores.max() * (1.0 - 1e-12)]
    nonzero = [i for i in tied if np.any(lam[idx == i] != 0)]
    i0 = (nonzero or tied)[0]
    members = lam[(idx == i0) & (lam != 0)]
    return (i0, members, int(weight[i0])) if members.size else None


def residue_level_trace(p: int, elements, a: int) -> dict:
    """The cascade over residues, as the per-residue code computed it.

    Every lam mod p is weighted by its triple (or pair-difference) count, built
    from shifts of the indicator; |S_b| is numpy's FFT of the indicator.
    Stage 2 sums |S_{a x lam}| over X one x at a time, stage 3 counts the X x Y
    products at every residue and takes their length-p FFT.  Same result
    keys as tuple_level_trace.
    """
    elements = np.asarray(elements, dtype=np.int64)
    H = elements.size
    ind = np.zeros(p, dtype=np.int64)
    ind[elements] = 1
    mags = np.abs(np.fft.fft(ind))
    r2 = sum(np.roll(ind, h) for h in elements)
    r3 = sum(np.roll(r2, h) for h in elements)
    rdiff = sum(np.roll(ind, -h) for h in elements)
    lam = np.arange(p, dtype=np.int64)
    delta = mags[a % p] / H

    v1 = mags[a * lam % p]
    s1 = _residue_stage(v1, r3, H, 0.5 * H * delta**3)
    if s1 is None:
        return {"empty_stage": 1}
    i1, x, g1 = s1
    delta1_meas = float(v1[x].sum()) / (H * x.size)

    val2 = np.zeros(p)
    for xi in x:
        val2 += mags[(a * int(xi)) % p * lam % p]
    s2 = _residue_stage(val2 / x.size, r3, H, 0.5 * H * delta1_meas**3)
    if s2 is None:
        return {"empty_stage": 2}
    i2, y, g2 = s2
    delta2_meas = float(val2[y].sum()) / (H * x.size * y.size)

    w = np.bincount((x[:, None] * y % p).ravel(), minlength=p)
    u = np.zeros(p)
    u[a * lam % p] = w
    v = np.abs(np.fft.fft(u))
    scale3 = float(x.size * y.size)
    v[0] = scale3
    s3 = _residue_stage(v, rdiff, scale3, 0.5 * scale3 * delta2_meas**2)
    if s3 is None:
        return {"empty_stage": 3}
    i3, z, g3 = s3
    return {
        "empty_stage": None,
        "delta": delta,
        "i0": (i1, i2, i3),
        "x": x.tolist(),
        "y": y.tolist(),
        "z": z.tolist(),
        "g_sizes": (g1, g2, g3),
        "delta_meas": (delta1_meas, delta2_meas),
    }


def tuple_count_T(elements, p: int, m: int) -> int:
    """Literal 2m-tuple count via a Counter over m-tuple sums."""
    sums = Counter(sum(t) % p for t in itertools.product(elements, repeat=m))
    return sum(v * v for v in sums.values())


def brute_force_T(sub, m: int, budget: int = DEFAULT_TUPLE_BUDGET) -> int:
    """Test the equal-half-sums congruence on every 2m-tuple.

    Enumerates all H^m half-tuple sums with plain Python arithmetic, then
    counts equal pairs, so every one of the H^{2m} tuples is checked.
    Guarded by the tuple budget.
    """
    if m < 1:
        raise InputError(f"fold count must be >= 1, got {m}")
    p, order = sub.p, sub.order
    if order ** (2 * m) > budget:
        raise ResourceError(f"H^(2m) = {order}^{2 * m} exceeds the tuple budget {budget}")
    elems = [int(h) for h in sub.elements]
    sums = np.array(
        [sum(t) % p for t in itertools.product(elems, repeat=m)], dtype=np.int64
    )
    total = 0
    step = 4096
    for i in range(0, sums.shape[0], step):
        total += int(np.sum(sums[i : i + step, None] == sums[None, :]))
    return total
