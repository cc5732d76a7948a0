"""Dyadic cascade construction for a subgroup sum, with per-step checks.

Given (p, subgroup, a) this runs the three-stage pigeonhole construction
behind the single-sum bound: it buckets triple sums of subgroup elements by
the magnitude of their inner sums, extracts the sets X, Y (nonzero triple
sums) and Z (nonzero differences), and asserts every inequality of the
chain that is a theorem for the measured quantities (triangle inequality,
discard mass, pigeonhole, Cauchy-Schwarz cardinality via exact energies,
power-mean/Hoelder, and the final trilinear lower bound).  Steps that only
hold up to implied constants are reported as ratios, never asserted.

Key engineering point: every value of the cascade is constant on the
multiplicative cosets of the subgroup.  The inner magnitude of a triple
(x1, x2, x3) depends only on the coset of lam = x1+x2+x3 mod p; the stage-2
sums over X are a cyclic correlation of the coset magnitudes with X; the
X x Y product counts depend only on the coset of the product; and the stage-3
spectrum is a correlation of those counts with the Gaussian periods.  So
every stage runs on arrays of length M + 1 (M = (p-1)/H): entry 0 is the
residue 0 and entry 1 + k is coset k of the coset index, weighted by exact
representation counts instead of over H^3 raw tuples.  X, Y and Z are unions
of cosets; they are expanded to residues only for the result and for the
literal trilinear check.  That check (trilinear_eval) shares nothing with the
spectral path but the sets: it sums its own phase table, once per distinct
product a*z*x, which on these sets is at most |Z||X|/H products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import trilinear_bound
from .energy import (
    EnergyProfile,
    IntervalProductProfile,
    difference_counts,
    j_count,
    representation_counts,
)
from .errors import InputError, ResourceError
from .expsum import (
    Interval,
    SumTable,
    all_sums,
    interval_subgroup_sum,
    max_sum,
)
from .subgroup import Subgroup

REL_TOL = 1e-6
DEFAULT_TRILINEAR_BUDGET = 10**9
# Entries per block of the literal trilinear check's products and phases.
TRILINEAR_BLOCK = 2**16


class EmptyTraceError(RuntimeError):
    """Every value fell below the discard floor: the sum is too flat to trace."""


@dataclass(frozen=True)
class StageResult:
    """Outcome of one dyadic bucketing pass over weighted magnitudes."""

    i0: int
    delta: float  # 2^{-i0-1}: guaranteed per-member fraction of the scale
    lambdas: np.ndarray  # residues whose values landed in the chosen bucket
    weight: int  # total tuple multiplicity mapped into the bucket
    scale: float
    floor: float
    total_mass: float  # multiplicity-weighted mass before the discard
    retained_mass: float  # mass of values at or above the floor
    bucket_mass: float
    nonempty_buckets: int
    bucket_cap: int  # ceil(log2(scale/floor)) + 1


@dataclass(frozen=True)
class CheckResult:
    """A single inequality with both sides recorded.

    relation ">=": passes when lhs >= rhs (exact integers compare exactly,
    floats get REL_TOL slack).  relation "<=" is the mirror image and "~"
    demands agreement within REL_TOL.
    """

    name: str
    lhs: float
    rhs: float
    passed: bool
    relation: str = ">="
    exact: bool = False
    note: str | None = None


def _check_ge(name: str, lhs: float, rhs: float, note: str | None = None) -> CheckResult:
    return CheckResult(name, float(lhs), float(rhs), lhs >= rhs * (1.0 - REL_TOL), ">=", False, note)


def _check_le(name: str, lhs: float, rhs: float, exact: bool = False, note: str | None = None) -> CheckResult:
    ok = lhs <= rhs if exact else lhs <= rhs * (1.0 + REL_TOL)
    return CheckResult(name, float(lhs), float(rhs), ok, "<=", exact, note)


def _check_close(name: str, lhs: float, rhs: float, note: str | None = None) -> CheckResult:
    ok = abs(lhs - rhs) <= REL_TOL * max(abs(lhs), abs(rhs), 1.0)
    return CheckResult(name, float(lhs), float(rhs), ok, "~", False, note)


@dataclass(frozen=True)
class Cascade:
    """The delta chain: global average plus the per-stage dyadic thresholds.

    delta1/2/3 are the guaranteed bucket thresholds 2^{-i0-1}; the *_meas
    values are the measured averages over the extracted sets, which are what
    the asserted inequalities use.
    """

    a: int
    delta: float
    delta1: float
    delta2: float
    delta3: float
    i0: tuple[int, int, int]
    delta1_meas: float
    delta2_meas: float
    delta3_meas: float


@dataclass(eq=False)
class TraceSets:
    """X, Y, Z with the tuple counts of the buckets they came from."""

    x: np.ndarray
    x_weights: np.ndarray  # representation multiplicities J(x) within the bucket
    y: np.ndarray
    z: np.ndarray
    g1: int
    g2: int
    g3: int


@dataclass(eq=False)
class TraceResult:
    p: int
    order: int
    a: int
    degenerate: bool
    reason: str | None
    cascade: Cascade | None
    sets: TraceSets | None
    checks: list[CheckResult]
    reported: dict[str, float]
    trilinear_sum: float | None = None
    trilinear_direct: float | None = None
    trilinear_bound_ratio: float | None = None

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def dyadic_stage(
    mags: np.ndarray, mults: np.ndarray, scale: float, floor: float
) -> StageResult:
    """Drop values below the floor, bucket the rest by halving intervals
    (scale*2^{-i-1}, scale*2^{-i}], and pick the i0 maximizing the bucket's
    upper-bound mass scale*2^{-i0} * multiplicity.

    Entry i of mags and mults stands for residue i, or, in the coset layout
    of build_trace, entry 0 for the residue 0 and entry 1 + k for coset k
    with its total multiplicity; lambdas are these entry indices.

    Ties go to the smallest index whose bucket contains a nonzero residue
    (a bucket holding only residue 0 cannot seed the next stage; exact score
    ties do occur, e.g. at H = 3 where the zero-diagonal bucket ties the
    difference bucket).  Every score-tied bucket satisfies the pigeonhole
    threshold, so the choice never weakens an asserted inequality."""
    mags = np.asarray(mags, dtype=np.float64)
    mults = np.asarray(mults, dtype=np.int64)
    if floor <= 0 or scale <= 0:
        raise InputError("scale and floor must be positive")
    live = mults > 0
    total_mass = float(np.sum(mags * mults))
    keep = live & (mags >= floor)
    if not np.any(keep):
        raise EmptyTraceError(f"no weighted value reached the floor {floor:.3g}")
    kept_lam = np.nonzero(keep)[0].astype(np.int64)
    kmags = mags[keep]
    kmults = mults[keep]
    retained_mass = float(np.sum(kmags * kmults))
    idx = np.floor(np.log2(scale / kmags)).astype(np.int64)
    idx = np.maximum(idx, 0)  # guard against values a rounding error above scale
    nbuckets = int(idx.max()) + 1
    mult_per = np.zeros(nbuckets, dtype=np.int64)
    np.add.at(mult_per, idx, kmults)
    mass_per = np.zeros(nbuckets, dtype=np.float64)
    np.add.at(mass_per, idx, kmags * kmults)
    scores = scale * np.power(2.0, -np.arange(nbuckets, dtype=np.float64)) * mult_per
    has_nonzero = np.zeros(nbuckets, dtype=bool)
    np.logical_or.at(has_nonzero, idx, kept_lam != 0)
    tied = scores >= scores.max() * (1.0 - 1e-12)
    candidates = np.nonzero(tied & has_nonzero)[0]
    if candidates.size == 0:
        candidates = np.nonzero(tied)[0]
    i0 = int(candidates[0])
    in_bucket = idx == i0
    return StageResult(
        i0=i0,
        delta=2.0 ** (-(i0 + 1)),
        lambdas=kept_lam[in_bucket],
        weight=int(np.sum(kmults[in_bucket])),
        scale=float(scale),
        floor=float(floor),
        total_mass=total_mass,
        retained_mass=retained_mass,
        bucket_mass=float(mass_per[i0]),
        nonempty_buckets=int(np.count_nonzero(mult_per)),
        bucket_cap=math.ceil(math.log2(scale / floor)) + 1,
    )


def check_energy_cardinality(
    set_size: int,
    group_size: int,
    stage_delta: float,
    prev_delta: float,
    energy: int,
    kind: str,
) -> CheckResult:
    """Cauchy-Schwarz cardinality bound |set u {0}| >= group^2 / energy.

    Exact integers on both sides: (set_size + 1) * energy >= group_size^2.
    kind is "triple-sum" (energy = T_3) or "difference" (energy = T_2).
    """
    lhs = (int(set_size) + 1) * int(energy)
    rhs = int(group_size) * int(group_size)
    return CheckResult(
        name=f"cauchy_schwarz_cardinality_{kind}",
        lhs=float(lhs),
        rhs=float(rhs),
        passed=lhs >= rhs,
        relation=">=",
        exact=True,
        note=f"stage_delta={stage_delta:g} prev_delta={prev_delta:g}",
    )


def _slots(at_zero, per_coset: np.ndarray) -> np.ndarray:
    """The stage layout: entry 0 is the residue 0, entry 1 + k is coset k."""
    return np.concatenate(([at_zero], per_coset))


def _correlate(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum over j of f[j] * g[(j + k) mod M] for every k, by FFT; f is real."""
    return np.fft.ifft(np.conj(np.fft.fft(f)) * np.fft.fft(g))


def _pair_sums(xc: np.ndarray, yc: np.ndarray, m: int) -> np.ndarray:
    """counts[c] = #{(i, j) in xc x yc : i + j = c mod m}, exact."""
    counts = np.zeros(m, dtype=np.int64)
    rows = max(1, 2**20 // yc.size)
    for i in range(0, xc.size, rows):
        counts += np.bincount(((xc[i : i + rows, None] + yc) % m).ravel(), minlength=m)
    return counts


def _product_blocks(r: np.ndarray, c: np.ndarray, p: int, buf: np.ndarray):
    """(rows, block) pairs with block = r[rows, None] * c[cols] mod p, covering
    every row and column in blocks of at most TRILINEAR_BLOCK entries, written
    into buf (2 x TRILINEAR_BLOCK int64), which the next block overwrites."""
    width = min(c.size, TRILINEAR_BLOCK)
    height = max(1, TRILINEAR_BLOCK // width)
    for j in range(0, c.size, width):
        cols = c[j : j + width]
        for i in range(0, r.size, height):
            rows = r[i : i + height]
            shape, n = (rows.size, cols.size), rows.size * cols.size
            block = np.multiply(rows[:, None], cols, out=buf[0, :n].reshape(shape))
            q = buf[1, :n].reshape(shape)
            # x - (x // p) * p: numpy divides by a scalar faster than it takes a remainder
            np.multiply(np.floor_divide(block, p, out=q), p, out=q)
            yield slice(i, i + rows.size), np.subtract(block, q, out=block)


def trilinear_eval(
    x_set: np.ndarray,
    y_set: np.ndarray,
    z_set: np.ndarray,
    a: int,
    p: int,
    budget: int = DEFAULT_TRILINEAR_BUDGET,
) -> float:
    """sum over z of |sum over (x, y) of e(a*x*y*z/p)| by direct evaluation.

    The literal sum, regrouped: with c_z = a*z mod p it is sum over z of
    |sum over x of G(c_z*x mod p)|, where G(w) = sum over y of e(w*y/p) is
    evaluated term by term once for each distinct product w.  The distinct
    products U are marked in a p-byte array; G is evaluated on U from a
    length-p np.exp table and then written into that table at U, which is
    not read again, so the per-z sums gather G directly.  That is 2|Z||X|
    products (one pass to mark, one to gather) and |U||Y| phase terms, with
    |U| <= min(p, |Z||X|): never more than |X||Y||Z| + 2|Z||X|.  No
    FFT, coset index or pair count is used, so the check stays independent
    of the spectral stage-3 values.  Memory: the 16p-byte table, the p-byte
    mark, 24 bytes per distinct product (U and G) and block buffers of
    TRILINEAR_BLOCK entries reused by every block.  The budget still counts
    all |X|*|Y|*|Z| terms.
    """
    x, y, z = (np.asarray(s, dtype=np.int64) for s in (x_set, y_set, z_set))
    if min(x.size, y.size, z.size) == 0:
        return 0.0
    if x.size * y.size * z.size > budget:
        raise ResourceError(
            f"trilinear evaluation needs {x.size * y.size * z.size} terms, budget {budget}"
        )
    x, y, c = x % p, y % p, int(a) % p * (z % p) % p
    buf = np.empty((2, TRILINEAR_BLOCK), dtype=np.int64)
    terms = np.empty(TRILINEAR_BLOCK, dtype=np.complex128)

    def sums(r: np.ndarray, col: np.ndarray, table: np.ndarray) -> np.ndarray:
        """out[i] = sum over j of table[r[i] * col[j] mod p]."""
        out = np.zeros(r.size, dtype=np.complex128)
        for rows, w in _product_blocks(r, col, p, buf):
            t = np.take(table, w, out=terms[: w.size].reshape(w.shape), mode="clip")
            out[rows] += t.sum(axis=1)
        return out

    mark = np.zeros(p, dtype=bool)
    for _, w in _product_blocks(c, x, p, buf):
        mark[w] = True
    u = np.flatnonzero(mark)
    del mark  # before the table is built: the two never coexist
    phases = np.arange(p, dtype=np.complex128)
    np.exp(np.multiply(phases, 2j * np.pi / p, out=phases), out=phases)
    phases[u] = sums(u, y, phases)  # G on U; the phase table is not read again
    total = comp = 0.0
    for v in np.abs(sums(c, x, phases)).tolist():
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def _degenerate(sub: Subgroup, a: int, delta: float, reason: str) -> TraceResult:
    return TraceResult(
        p=sub.p,
        order=sub.order,
        a=a,
        degenerate=True,
        reason=reason,
        cascade=None,
        sets=None,
        checks=[],
        reported={"delta": delta},
    )


def build_trace(
    sub: Subgroup,
    a: int | None = None,
    table: SumTable | None = None,
    r2=None,
    r3=None,
    trilinear_budget: int = DEFAULT_TRILINEAR_BUDGET,
) -> TraceResult:
    """Run the full three-stage cascade for (p, subgroup, a).

    Defaults: a is the smallest residue attaining max |S_a|; the sum table
    and the 2- and 3-fold representation profiles are computed on demand (r3
    from r2).  For even H, -1 lies in the subgroup, so the stage-3
    difference counts are r2 itself.
    Full-group and |S_a| <= 1 cases are returned with the degenerate flag
    set and no assertions.  A stage whose values all fall below its floor
    raises EmptyTraceError.
    """
    p, H = sub.p, sub.order
    if table is None:
        table = all_sums(sub)
    if a is None:
        a, _ = max_sum(sub, table=table)
    a = int(a) % p
    if a == 0:
        raise InputError("a must be nonzero mod p")
    index = table.index
    shift = int(index.labels[a])  # a lies in coset `shift`
    mag_a = float(table.coset_magnitudes[shift])
    delta = mag_a / H
    if H == p - 1:
        return _degenerate(sub, a, delta, "full group: every nonzero sum has magnitude 1")
    if mag_a <= 1.0:
        return _degenerate(sub, a, delta, f"|S_a| = {mag_a:.6g} <= 1, no saving to trace")
    if r2 is None:
        r2 = representation_counts(sub, 2)
    if r3 is None:
        r3 = representation_counts(sub, 3, r2)  # one more fold from r_2
    t3 = r3.energy

    # Every stage works on _slots arrays; multiplicities are H times the
    # per-coset counts.  On coset k, |S_{a*lam}| is the magnitude of coset shift + k.
    checks: list[CheckResult] = []
    mags = np.roll(table.coset_magnitudes, -shift)
    mags_at = _slots(float(H), mags)
    mults3 = _slots(r3.at_zero, H * r3.per_coset)

    # Stage 1: triples (x1,x2,x3), inner magnitude |S_{a*(x1+x2+x3)}|.
    total1 = float(np.sum(mults3 * mags_at))
    checks.append(
        _check_ge("stage1_triangle_mass", total1, H * mag_a**3, note="mass >= H^4 * Delta^3")
    )
    st1 = dyadic_stage(mags_at, mults3, float(H), 0.5 * H * delta**3)
    checks.append(
        _check_ge(
            "stage1_discard_mass",
            st1.retained_mass,
            0.5 * H * mag_a**3,
            note="mass above floor >= H^4 * Delta^3 / 2",
        )
    )
    checks.append(
        _check_ge(
            "stage1_pigeonhole",
            H * 2.0 ** (-st1.i0) * st1.weight,
            st1.retained_mass / st1.nonempty_buckets,
        )
    )
    checks.append(
        _check_le("stage1_bucket_count", st1.nonempty_buckets, st1.bucket_cap, exact=True)
    )
    xc = st1.lambdas[st1.lambdas != 0] - 1  # the cosets that make up X
    if xc.size == 0:
        raise EmptyTraceError("stage-1 bucket holds only the zero residue")
    nx = H * xc.size
    g1 = st1.weight
    checks.append(check_energy_cardinality(nx, g1, st1.delta, delta, t3, "triple-sum"))

    sx = mags[xc]
    sum_sx = H * float(np.sum(sx))
    sum_sx3 = H * float(np.sum(sx**3))
    delta1_meas = sum_sx / (H * nx)
    checks.append(
        _check_ge(
            "hoelder_cubes_over_x",
            sum_sx3,
            sum_sx**3 / nx**2,
            note="power mean: sum |S|^3 >= (sum |S|)^3 / |X|^2",
        )
    )

    # Stage 2: triples (y1,y2,y3), value sum over x in X of |S_{a*x*mu}|;
    # on coset k it is H * sum over the X-cosets j of mags[j + k].
    in_x = np.zeros(index.cosets)
    in_x[xc] = 1.0
    val2 = _slots(float(H * nx), H * _correlate(in_x, mags).real)
    total2 = float(np.sum(mults3 * val2))
    checks.append(
        _check_ge(
            "stage2_triangle_mass",
            total2,
            H * sum_sx3,
            note="mass >= H * sum over X of |S_{ax}|^3",
        )
    )
    st2 = dyadic_stage(val2 / nx, mults3, float(H), 0.5 * H * delta1_meas**3)
    checks.append(
        _check_ge(
            "stage2_discard_mass",
            st2.retained_mass * nx,
            0.5 * H**4 * nx * delta1_meas**3,
        )
    )
    checks.append(
        _check_ge(
            "stage2_pigeonhole",
            H * 2.0 ** (-st2.i0) * st2.weight * nx,
            st2.retained_mass * nx / st2.nonempty_buckets,
        )
    )
    checks.append(
        _check_le("stage2_bucket_count", st2.nonempty_buckets, st2.bucket_cap, exact=True)
    )
    yc = st2.lambdas[st2.lambdas != 0] - 1
    if yc.size == 0:
        raise EmptyTraceError("stage-2 bucket holds only the zero residue")
    ny = H * yc.size
    g2 = st2.weight
    checks.append(check_energy_cardinality(ny, g2, st2.delta, st1.delta, t3, "triple-sum"))
    delta2_meas = float(np.sum(val2[1 + yc])) / (nx * ny)  # H * that sum over H * |X||Y|

    # Stage 3: pairs (z1,z2), value |sum over X x Y of e(a*x*y*(z1-z2))|,
    # which depends only on the coset k of d = z1-z2.  Coset pairs (i, j)
    # of X x Y put H products on each residue of coset i + j, so the value is
    # |sum over c of w_c * eta_{c + shift + k}| with exact counts w_c.
    w = H * _pair_sums(xc, yc, index.cosets)
    scale3 = float(nx) * float(ny)
    v = _slots(scale3, np.abs(_correlate(w, np.roll(table.eta, -shift))))
    rdiff = r2 if H % 2 == 0 else difference_counts(sub)
    mults2 = _slots(rdiff.at_zero, H * rdiff.per_coset)
    total3 = float(np.sum(mults2 * v))
    checks.append(
        _check_ge(
            "stage3_cauchy_schwarz_mass",
            total3,
            (H * scale3 * delta2_meas) ** 2 / scale3,
            note="mass >= H^2 |X||Y| delta2_meas^2",
        )
    )
    st3 = dyadic_stage(v, mults2, scale3, 0.5 * scale3 * delta2_meas**2)
    checks.append(
        _check_ge(
            "stage3_discard_mass",
            st3.retained_mass,
            0.5 * H * H * scale3 * delta2_meas**2,
        )
    )
    checks.append(
        _check_ge(
            "stage3_pigeonhole",
            scale3 * 2.0 ** (-st3.i0) * st3.weight,
            st3.retained_mass / st3.nonempty_buckets,
        )
    )
    checks.append(
        _check_le("stage3_bucket_count", st3.nonempty_buckets, st3.bucket_cap, exact=True)
    )
    zc = st3.lambdas[st3.lambdas != 0] - 1
    if zc.size == 0:
        raise EmptyTraceError("stage-3 bucket holds only the zero residue")
    nz = H * zc.size
    g3 = st3.weight
    checks.append(check_energy_cardinality(nz, g3, st3.delta, st2.delta, r2.energy, "difference"))

    ts_spectral = H * float(np.sum(v[1 + zc]))
    delta3_meas = ts_spectral / (scale3 * nz)
    checks.append(
        _check_ge(
            "final_trilinear_sum",
            ts_spectral,
            scale3 * nz * st3.delta,
            note="every member of the stage-3 bucket exceeds |X||Y| * delta3",
        )
    )
    x, y, z = index.members(xc), index.members(yc), index.members(zc)
    tri_direct = None
    if nx * ny * nz <= trilinear_budget:
        tri_direct = trilinear_eval(x, y, z, a, p, budget=trilinear_budget)
        checks.append(
            _check_close(
                "trilinear_direct_agreement",
                tri_direct,
                ts_spectral,
                note="direct per-z evaluation vs spectral stage-3 values",
            )
        )
    elif nx * ny * zc.size <= trilinear_budget:
        # X is a union of cosets, so the inner X x Y sum is the same at every z of a coset
        tri_coset = H * trilinear_eval(x, y, index.reps[zc], a, p, budget=trilinear_budget)
        checks.append(
            _check_close(
                "trilinear_coset_agreement",
                tri_coset,
                ts_spectral,
                note="direct evaluation at one z per coset, times H, vs spectral stage-3 values",
            )
        )
    tri_bound = trilinear_bound(nx, ny, nz, p)
    measured = tri_direct if tri_direct is not None else ts_spectral

    cascade = Cascade(
        a=a,
        delta=delta,
        delta1=st1.delta,
        delta2=st2.delta,
        delta3=st3.delta,
        i0=(st1.i0, st2.i0, st3.i0),
        delta1_meas=delta1_meas,
        delta2_meas=delta2_meas,
        delta3_meas=delta3_meas,
    )
    sets = TraceSets(
        x=x,
        x_weights=index.spread(r3.per_coset, r3.at_zero, x),
        y=y,
        z=z,
        g1=g1,
        g2=g2,
        g3=g3,
    )
    # Ratios against the nominal sizes of the published chain.  These carry
    # implied constants, so they are reported, never asserted.
    reported = {
        "delta": delta,
        "delta_gate_ratio": delta / H ** (-37 / 960),
        "g1_vs_nominal": g1 / (H**3 * delta**3 / st1.delta),
        "x_vs_nominal": nx / (H**2 * delta**6 / st1.delta**2),
        "g2_vs_nominal": g2 / (H**3 * st1.delta**3 / st2.delta),
        "y_vs_nominal": ny / (H**2 * st1.delta**6 / st2.delta**2),
        "g3_vs_nominal": g3 / (H**2 * st2.delta**2 / st3.delta),
        "z_vs_nominal": nz / (H ** (31 / 20) * st2.delta**4 / st3.delta**2),
        "delta1_vs_delta_cubed": st1.delta / delta**3,
        "delta2_vs_delta1_cubed": st2.delta / st1.delta**3,
        "delta3_vs_delta2_squared": st3.delta / st2.delta**2,
        "penultimate_p_ratio": p / (H ** (191 / 40) * delta**6 * st1.delta**4 * st3.delta**3),
        "delta_vs_final_bound": delta / (p ** (1 / 72) * H ** (-191 / 2880)),
    }
    return TraceResult(
        p=p,
        order=H,
        a=a,
        degenerate=False,
        reason=None,
        cascade=cascade,
        sets=sets,
        checks=checks,
        reported=reported,
        trilinear_sum=ts_spectral,
        trilinear_direct=tri_direct,
        trilinear_bound_ratio=measured / tri_bound,
    )


def moment_inequality_check(
    interval: Interval,
    sub: Subgroup,
    a: int,
    m: int,
    table: SumTable | None = None,
    r_m: EnergyProfile | None = None,
    j_prof: IntervalProductProfile | None = None,
) -> CheckResult:
    """S^{2m} <= (N^{2m-2}/H^2) * J * p * T_m with measured S, exact J, T_m.

    The right side combines a Hoelder step with Cauchy-Schwarz, so the
    inequality is a theorem; only the measured left side carries float error.
    The table, the m-fold profile r_m and the collision profile j_prof are
    computed on demand when absent.
    """
    if m < 2:
        raise InputError(f"moment check needs m >= 2, got {m}")
    p, H = sub.p, sub.order
    if table is None:
        table = all_sums(sub)
    s_val = interval_subgroup_sum(a, interval, sub, table=table)
    if r_m is None:
        r_m = representation_counts(sub, m)
    if j_prof is None:
        j_prof = j_count(interval, sub)
    t_m = r_m.energy
    n_len = interval.length
    rhs_exact = n_len ** (2 * m - 2) * j_prof.energy * p * t_m
    lhs = s_val ** (2 * m)
    rhs = rhs_exact / (H * H)
    return _check_le(
        f"moment_inequality_m{m}",
        lhs,
        rhs,
        note=f"S={s_val:.6g} N={n_len} J={j_prof.energy} T{m}={t_m}",
    )
