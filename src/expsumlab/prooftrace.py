"""Dyadic cascade construction for a subgroup sum, with per-step checks.

Given (p, subgroup, a) this runs the three-stage pigeonhole construction
behind the single-sum bound: it buckets triple sums of subgroup elements by
the magnitude of their inner sums, extracts the sets X, Y (nonzero triple
sums) and Z (nonzero differences), and asserts every inequality of the
chain that is a theorem for the measured quantities (triangle inequality,
discard mass, pigeonhole, Cauchy-Schwarz cardinality via exact energies,
power-mean/Hoelder, and the final trilinear lower bound).  Steps that only
hold up to implied constants are reported as ratios, never asserted.  The
three stages share one routine (_stage), and every outcome leaves
build_trace as a TraceResult: a trace with no saving to show (the full
group, |S_a| <= 1, or a stage whose bucket ends empty) is a degenerate one.

Key engineering point: every value of the cascade is constant on the
multiplicative cosets of the subgroup.  The inner magnitude of a triple
(x1, x2, x3) depends only on the coset of lam = x1+x2+x3 mod p; the stage-2
sums over X are a cyclic correlation of the coset magnitudes with X; the
X x Y product counts depend only on the coset of the product; and the stage-3
spectrum is a correlation of those counts with the Gaussian periods.  Each
correlation is read at a's coset off SumTable.lags, which picks its route.  So
every stage runs on arrays of length M + 1 (M = (p-1)/H): entry 0 is the
residue 0 and entry 1 + k is coset k of the subgroup, weighted by exact
representation counts instead of over H^3 raw tuples.  X, Y and Z are unions
of cosets; they are expanded to residues only for the result and for the
literal trilinear check.  That check (trilinear_eval) shares residue_grid
and the phase kernel (expsum.phase_sums) with the sum table, but no FFT,
coset index, table or pair count; it works once per orbit of the subgroup,
holds nothing of length p, and past TRILINEAR_WORK_LIMIT products and phase
terms is refused, leaving the spectral values alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import trilinear_bound
from .energy import (
    CosetProfile,
    difference_counts,
    interval_subgroup_sum,
    representation_counts,
)
from .errors import InputError, ResourceError
from .expsum import SumTable, max_sum, phase_sums
from .subgroup import check_int64_products, check_length, residue_grid

REL_TOL = 1e-6
# Most products and phase terms trilinear_eval may do: about 1.3 s at 13 ns each.
TRILINEAR_WORK_LIMIT = 10**8
# Entries per block of the literal trilinear check's products and phases: each
# block buffer (64 KiB) stays below glibc's mmap threshold, so blocks reuse heap
# pages rather than fault in fresh ones.
TRILINEAR_BLOCK = 2**12


class EmptyTraceError(RuntimeError):
    """A stage kept no value above its floor, or no nonzero residue in its
    bucket: the sum is too flat to trace.  build_trace returns it as a
    degenerate trace."""


@dataclass(frozen=True)
class StageResult:
    """Outcome of one dyadic bucketing pass over weighted magnitudes."""

    i0: int
    delta: float  # 2^{-i0-1}: guaranteed per-member fraction of the scale
    lambdas: np.ndarray  # residues whose values landed in the chosen bucket
    weight: int  # total tuple multiplicity mapped into the bucket
    retained_mass: float  # mass of values at or above the floor
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
    keep = (mults > 0) & (mags >= floor)
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
        retained_mass=retained_mass,
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


def _orbit_mins(w: np.ndarray, elements: np.ndarray, p: int, closed: str | None = None) -> np.ndarray:
    """The least of w*h mod p over h in elements, for each entry of w.

    With closed, the name of a set, w is that set sorted, and must be
    unchanged as a multiset by the product with each element (InputError
    otherwise).  Each block of the grid holds whole rows w*h, which are
    sorted and compared with w."""
    mins = np.full(w.size, p, dtype=np.int64)
    block = TRILINEAR_BLOCK if closed is None else max(TRILINEAR_BLOCK, w.size)
    for _, cols, t in residue_grid(np.multiply, elements, w, p, block):
        np.minimum(mins[cols], t.min(axis=0), out=mins[cols])
        if closed is not None:
            t.sort(axis=1)
            if not np.all(t == w):
                raise InputError(f"{closed} is not a union of orbits of the subgroup")
    return mins


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values and np.unique's mask of where each first
    occurs, without the numpy.ma import that np.unique costs a fresh process."""
    keys = np.sort(values, axis=None)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first], first


def _product_orbits(c: np.ndarray, reps: np.ndarray, elements: np.ndarray, p: int) -> np.ndarray:
    """out[i, j] = the least member of the orbit of c[i]*reps[j] mod p, as uint32."""
    out = np.empty((c.size, reps.size), dtype=np.uint32)
    for rows, cols, w in residue_grid(np.multiply, c, reps, p, TRILINEAR_BLOCK):
        out[rows, cols] = _orbit_mins(w.ravel(), elements, p).reshape(w.shape)
    return out


def _within_work_limit(work: int, step: str) -> int:
    """The trilinear check's work once step is done, if within the limit."""
    if work > TRILINEAR_WORK_LIMIT:
        raise ResourceError(
            f"trilinear work through the {step} = {work} exceeds the limit {TRILINEAR_WORK_LIMIT}"
        )
    return work


def trilinear_eval(
    x_set: np.ndarray,
    y_set: np.ndarray,
    z_set: np.ndarray,
    a: int,
    p: int,
    subgroup: np.ndarray | None = None,
) -> float:
    """sum over z of |sum over (x, y) of e(a*x*y*z/p)| by direct evaluation.

    The literal sum, regrouped: with c_z = a*z mod p it is sum over z of
    |sum over x of G(c_z*x mod p)|, where G(w) = sum over y of e(w*y/p) is
    evaluated term by term by the sum table's kernel (expsum.phase_sums),
    each phase within PHASE_ERROR * 2^-53 of e(x/p).  Given the elements of
    a subgroup, X and Y must be unchanged as multisets by the product with
    each element (InputError otherwise; build_trace passes unions of
    cosets).  Then G is the same at every point of an orbit wH, and the sum
    over x the same at every c_z of an orbit, so X keeps the least member of
    each orbit it meets with the number of its entries there, each c_z and
    each product c_z*x is mapped to the least member of its orbit, the sum
    over x is taken once per distinct orbit of the c_z, and G once per
    distinct orbit U of the products.  Each z reads its orbit's value by
    bisection, and the values are added by math.fsum, exactly rounded; Z
    need not be closed.  Without a subgroup every orbit is one residue.  The
    work is H products per entry of X, Y and Z, H per pair of distinct orbits
    (one of the c_z, one of X) and |Y| phase terms per orbit of U, |U| taken
    at its bound min(pairs, (p - 1)/H + 1).
    The first part is held to TRILINEAR_WORK_LIMIT before any product, the
    whole before the pair products, and the pairs to LENGTH_LIMIT; past a
    limit, or with p above the int64 limit (check_int64_products), the check
    is refused (ResourceError).  It shares residue_grid and the phase kernel
    with the sum table, but no FFT, coset index, table or pair count, so the
    check stays independent of the spectral stage-3 values.  Memory:
    4 bytes per orbit product and per distinct orbit (p < 2^32 below the
    int64 limit), 16 per G value, the two phase tables and blocks of
    TRILINEAR_BLOCK entries; nothing of length p.
    """
    x, y, z = (np.asarray(s, dtype=np.int64) for s in (x_set, y_set, z_set))
    if min(x.size, y.size, z.size) == 0:
        return 0.0
    check_int64_products(p)
    e = np.ones(1, dtype=np.int64) if subgroup is None else np.asarray(subgroup, dtype=np.int64) % p
    work = _within_work_limit(e.size * (x.size + y.size + z.size), "orbits of X, Y and a*Z")
    x, y = np.sort(x % p), np.sort(y % p)
    _orbit_mins(y, e, p, closed="Y")
    reps, first = _distinct(_orbit_mins(x, e, p, closed="X"))
    counts = np.diff(np.flatnonzero(first), append=x.size)
    c = _orbit_mins(int(a) % p * (z % p) % p, e, p)
    orbits = _distinct(c)[0]
    pairs = orbits.size * reps.size
    check_length("trilinear orbit pairs |orbits of a*Z| * |orbits of X|", pairs)
    work += e.size * pairs + min(pairs, (p - 1) // e.size + 1) * y.size  # |U| at its bound
    _within_work_limit(work, "orbit products and phase terms")
    mins = _product_orbits(orbits, reps, e, p)
    u = _distinct(mins)[0]
    g = phase_sums(y, u, p, TRILINEAR_BLOCK)[0]
    inner = np.empty(orbits.size, dtype=np.complex128)
    step = max(1, TRILINEAR_BLOCK // reps.size)
    for i in range(0, orbits.size, step):
        terms = np.take(g, np.searchsorted(u, mins[i : i + step]))
        terms *= counts
        inner[i : i + step] = terms.sum(axis=1)
    return math.fsum(np.abs(inner)[np.searchsorted(orbits, c)].tolist())


def _degenerate(table: SumTable, a: int, delta: float, reason: str) -> TraceResult:
    return TraceResult(
        p=table.p,
        order=table.order,
        a=a,
        degenerate=True,
        reason=reason,
        cascade=None,
        sets=None,
        checks=[],
        reported={"delta": delta},
    )


def _stage(
    k, checks, H, values, mults, scale, floor, unit, mass, discard, prev_delta, energy, kind
) -> tuple[StageResult, np.ndarray]:
    """Stage k of the cascade on _slots arrays, appending its checks.

    mass is (name, right side, note) of the lower bound on the stage's total
    mass sum(mults * values); discard is (right side, note) of the bound on
    the mass above the floor.  unit is |X| at stage 2, whose values are sums
    over X, and 1 elsewhere: dyadic_stage buckets values / unit, and the
    discard and pigeonhole masses are multiplied back by it.  prev_delta,
    energy and kind go to the Cauchy-Schwarz cardinality check.  Returns the
    stage and the cosets of its bucket; a bucket holding only the residue 0
    raises EmptyTraceError, which build_trace returns as a degenerate trace.
    """
    name, rhs, note = mass
    checks.append(_check_ge(f"stage{k}_{name}", float(np.sum(mults * values)), rhs, note=note))
    st = dyadic_stage(values / unit, mults, scale, floor)
    rhs, note = discard
    checks.append(_check_ge(f"stage{k}_discard_mass", st.retained_mass * unit, rhs, note=note))
    checks.append(
        _check_ge(
            f"stage{k}_pigeonhole",
            scale * 2.0 ** (-st.i0) * st.weight * unit,
            st.retained_mass * unit / st.nonempty_buckets,
        )
    )
    checks.append(
        _check_le(f"stage{k}_bucket_count", st.nonempty_buckets, st.bucket_cap, exact=True)
    )
    cosets = st.lambdas[st.lambdas != 0] - 1
    if cosets.size == 0:
        raise EmptyTraceError(f"stage-{k} bucket holds only the zero residue")
    checks.append(
        check_energy_cardinality(H * cosets.size, st.weight, st.delta, prev_delta, energy, kind)
    )
    return st, cosets


def build_trace(
    table: SumTable,
    a: int | None = None,
    diffs: CosetProfile | None = None,
    r3: CosetProfile | None = None,
) -> TraceResult:
    """Run the full three-stage cascade for (p, subgroup, a) on the subgroup's
    sum table.

    Defaults: a is the smallest residue attaining max |S_a|; the difference
    profile (difference_counts, read by stage 3 at every H, its energy T_2)
    and the 3-fold representation profile r3 (read by stages 1 and 2, its
    energy T_3) are computed from the table's periods when the cascade needs
    them.
    Every outcome is a TraceResult.  The full group, |S_a| <= 1 and a stage
    that ends empty (its reason names the stage) come back with the
    degenerate flag set, delta in reported and no assertions.
    """
    p, H = table.p, table.order
    if a is None:
        a, _ = max_sum(table)
    a = int(a) % p
    if a == 0:
        raise InputError("a must be nonzero mod p")
    shift = int(table.sub.coset_of(a))  # a lies in coset `shift`
    mag_a = float(table.coset_magnitudes[shift])
    delta = mag_a / H
    if H == p - 1:
        return _degenerate(table, a, delta, "full group: every nonzero sum has magnitude 1")
    if mag_a <= 1.0:
        return _degenerate(table, a, delta, f"|S_a| = {mag_a:.6g} <= 1, no saving to trace")
    try:
        return _cascade(table, a, shift, mag_a, diffs, r3)
    except EmptyTraceError as exc:
        return _degenerate(table, a, delta, str(exc))


def _cascade(table, a, shift, mag_a, diffs, r3) -> TraceResult:
    """The three stages of build_trace for a with |S_a| = mag_a > 1 in coset shift."""
    p, H = table.p, table.order
    sub = table.sub
    delta = mag_a / H
    if diffs is None:
        diffs = difference_counts(table)
    if r3 is None:
        r3 = representation_counts(table, 3)

    # Every stage works on _slots arrays; multiplicities are H times the
    # per-coset counts.  On coset k, |S_{a*lam}| is the magnitude of coset shift + k.
    checks: list[CheckResult] = []
    mags = np.roll(table.coset_magnitudes, -shift)
    mags_at = _slots(float(H), mags)
    mults3 = _slots(r3.at_zero, H * r3.per_coset)

    # Stage 1: triples (x1,x2,x3), inner magnitude |S_{a*(x1+x2+x3)}|; xc: the cosets of X.
    st1, xc = _stage(
        1, checks, H, mags_at, mults3, float(H), 0.5 * H * delta**3, 1,
        ("triangle_mass", H * mag_a**3, "mass >= H^4 * Delta^3"),
        (0.5 * H * mag_a**3, "mass above floor >= H^4 * Delta^3 / 2"),
        delta, r3.energy, "triple-sum",
    )
    nx = H * xc.size
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
    # on coset k it is H * sum over the X-cosets j of mags[j + k], lag shift + k.
    lags2 = table.lags(xc, magnitudes=True).real
    val2 = _slots(float(H * nx), H * np.roll(lags2, -shift))
    st2, yc = _stage(
        2, checks, H, val2, mults3, float(H), 0.5 * H * delta1_meas**3, nx,
        ("triangle_mass", H * sum_sx3, "mass >= H * sum over X of |S_{ax}|^3"),
        (0.5 * H**4 * nx * delta1_meas**3, None),
        st1.delta, r3.energy, "triple-sum",
    )
    ny = H * yc.size
    delta2_meas = float(np.sum(val2[1 + yc])) / (nx * ny)  # H * that sum over H * |X||Y|

    # Stage 3: pairs (z1,z2), value |sum over X x Y of e(a*x*y*(z1-z2))|,
    # which depends only on the coset k of d = z1-z2.  Coset pairs (i, j)
    # of X x Y put H products on each residue of coset i + j, so the value is
    # H |sum over (i, j) of eta_{i + j + shift + k}|.  Each d weighs as many
    # pairs as the difference counts give it (energy T_2).
    lags3 = H * table.lags(xc, yc)
    scale3 = float(nx) * float(ny)
    v = _slots(scale3, np.roll(np.abs(lags3), -shift))
    mults2 = _slots(diffs.at_zero, H * diffs.per_coset)
    st3, zc = _stage(
        3, checks, H, v, mults2, scale3, 0.5 * scale3 * delta2_meas**2, 1,
        ("cauchy_schwarz_mass", (H * scale3 * delta2_meas) ** 2 / scale3,
         "mass >= H^2 |X||Y| delta2_meas^2"),
        (0.5 * H * H * scale3 * delta2_meas**2, None),
        st2.delta, diffs.energy, "difference",
    )
    nz = H * zc.size
    g1, g2, g3 = st1.weight, st2.weight, st3.weight

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
    x, y, z = sub.members(xc), sub.members(yc), sub.members(zc)
    try:
        tri_direct = measured = trilinear_eval(x, y, z, a, p, sub.elements)
    except ResourceError:
        tri_direct, measured = None, ts_spectral  # past the work limit
    else:
        note = "direct per-z evaluation vs spectral stage-3 values"
        checks.append(_check_close("trilinear_direct_agreement", tri_direct, ts_spectral, note=note))

    cascade = Cascade(
        delta=delta,
        delta1=st1.delta,
        delta2=st2.delta,
        delta3=st3.delta,
        i0=(st1.i0, st2.i0, st3.i0),
        delta1_meas=delta1_meas,
        delta2_meas=delta2_meas,
        delta3_meas=delta3_meas,
    )
    sets = TraceSets(x, y, z, g1, g2, g3)
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
        trilinear_bound_ratio=measured / trilinear_bound(nx, ny, nz, p),
    )


def moment_inequality_check(
    table: SumTable, a: int, m: int, t_m: int, j_prof: CosetProfile
) -> CheckResult:
    """S^{2m} <= (N^{2m-2}/H^2) * J * p * T_m with measured S, exact J, T_m.

    The right side combines a Hoelder step with Cauchy-Schwarz, so the
    inequality is a theorem; only the measured left side carries float error.
    t_m is the exact m-fold energy of the table's subgroup (for m = 2 the
    energy of its difference counts) and j_prof the collision profile of the
    interval with it, from which S, J and the interval length N are all read.
    """
    if m < 2:
        raise InputError(f"moment check needs m >= 2, got {m}")
    p, H = table.p, table.order
    s_val = interval_subgroup_sum(a, j_prof, table)
    n_len = int(j_prof.per_coset.sum()) + j_prof.at_zero // H
    rhs_exact = n_len ** (2 * m - 2) * j_prof.energy * p * t_m
    lhs = s_val ** (2 * m)
    rhs = rhs_exact / (H * H)
    return _check_le(
        f"moment_inequality_m{m}",
        lhs,
        rhs,
        note=f"S={s_val:.6g} N={n_len} J={j_prof.energy} T{m}={t_m}",
    )
