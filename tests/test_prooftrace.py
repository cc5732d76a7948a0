import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import (
    EmptyTraceError,
    InputError,
    Interval,
    ResourceError,
    all_sums,
    build_trace,
    check_energy_cardinality,
    divisors,
    dyadic_stage,
    is_prime,
    j_count,
    max_sum,
    moment_inequality_check,
    representation_counts,
    Subgroup,
    SumTable,
    subgroup_of_order,
    trilinear_eval,
)
from expsumlab import energy, expsum, prooftrace
from oracles import residue_level_trace, spread, subgroup_sum, tuple_level_trace
from test_acceptance import TRACE_ORDERS


class TestDyadicStage:
    def test_all_values_at_scale(self):
        mags = np.full(8, 16.0)
        mults = np.ones(8, dtype=np.int64)
        st = dyadic_stage(mags, mults, 16.0, 1.0)
        assert st.i0 == 0
        assert st.delta == 0.5
        assert list(st.lambdas) == list(range(8))
        assert st.weight == 8

    def test_top_bucket_wins_weighted_tie_breaker(self):
        # values 16 and 16/2 - eps with equal multiplicity: score 16*m beats 8*m
        mags = np.array([16.0, 7.9])
        mults = np.array([3, 3], dtype=np.int64)
        st = dyadic_stage(mags, mults, 16.0, 0.5)
        assert st.i0 == 0
        assert list(st.lambdas) == [0]

    def test_floor_discard(self):
        mags = np.array([10.0, 0.4, 3.0])
        mults = np.array([1, 5, 2], dtype=np.int64)
        st = dyadic_stage(mags, mults, 10.0, 1.0)
        assert st.retained_mass == pytest.approx(10.0 + 6.0)

    def test_empty_trace_error(self):
        with pytest.raises(EmptyTraceError):
            dyadic_stage(np.array([0.1, 0.2]), np.array([1, 1], dtype=np.int64), 10.0, 1.0)

    def test_bucket_count_cap(self):
        rng = np.random.default_rng(3)
        mags = rng.uniform(0.5, 32.0, size=200)
        mults = rng.integers(1, 5, size=200).astype(np.int64)
        st = dyadic_stage(mags, mults, 32.0, 0.5)
        assert st.nonempty_buckets <= st.bucket_cap == math.ceil(math.log2(64.0)) + 1

    def test_stage1_bucket_matches_triple_enumeration(self):
        # p = 13, subgroup {1,3,9}: the lam-weighted stage equals the literal
        # 27-triple bucketing
        p = 13
        sub = subgroup_of_order(p, 3)
        table = all_sums(sub)
        a, mx = max_sum(table)
        delta = mx / 3
        lam = np.arange(p, dtype=np.int64)
        r3 = representation_counts(table, 3)
        mags = spread(table.sub, table.coset_magnitudes, 3)
        counts = spread(r3.sub, r3.per_coset, r3.at_zero)
        st = dyadic_stage(mags[(a * lam) % p], counts, 3.0, 0.5 * 3 * delta**3)
        import itertools

        triples = [t for t in itertools.product([1, 3, 9], repeat=3)]
        vals = {t: abs(subgroup_sum(a * sum(t), [1, 3, 9], p)) for t in triples}
        floor = 0.5 * 3 * delta**3
        in_bucket = [
            t
            for t, v in vals.items()
            if v >= floor and max(0, math.floor(math.log2(3.0 / v))) == st.i0
        ]
        assert sorted({sum(t) % p for t in in_bucket}) == sorted(int(v) for v in st.lambdas)
        assert len(in_bucket) == st.weight


class TestEnergyCardinality:
    def test_trivial(self):
        c = check_energy_cardinality(1, 1, 0.5, 1.0, 1, "triple-sum")
        assert c.passed and c.exact

    def test_exact_inequality(self):
        c = check_energy_cardinality(5, 12, 0.25, 0.5, 30, "difference")
        assert c.lhs == 6 * 30 and c.rhs == 144
        assert c.passed

    def test_failure_detected(self):
        c = check_energy_cardinality(0, 12, 0.25, 0.5, 10, "difference")
        assert not c.passed


def _triple_loop(x, y, z, a, p):
    return sum(
        abs(sum(cmath.exp(2j * math.pi * ((a * xi * yi * zi) % p) / p) for xi in x for yi in y))
        for zi in z
    )


class TestTrilinearEval:
    def test_single_term(self):
        assert trilinear_eval([1], [1], [1], 1, 13) == pytest.approx(1.0, abs=1e-12)

    def test_zero_a_counts_terms(self):
        assert trilinear_eval([1, 2], [3, 4, 5], [6, 7], 0, 101) == pytest.approx(12.0, abs=1e-9)

    def test_budget(self, monkeypatch):
        """Without a subgroup: 301 products for the orbits of X, Y and a*Z,
        then 101 * 100 pair products and 100 phase terms for each of
        min(10100, p) orbits of U.  A limit one unit short of either part
        refuses before that part runs."""
        args = (range(100), range(100), range(101), 1, 1009)
        work = 301 + 101 * 100 + 1009 * 100

        def never(*_):
            raise AssertionError("ran past the work limit")

        with monkeypatch.context() as m:
            m.setattr(prooftrace, "TRILINEAR_WORK_LIMIT", 300)
            m.setattr(prooftrace, "_orbit_mins", never)
            with pytest.raises(ResourceError, match=r"orbits of X, Y and a\*Z = 301 exceeds the limit 300$"):
                trilinear_eval(*args)
        with monkeypatch.context() as m:
            m.setattr(prooftrace, "TRILINEAR_WORK_LIMIT", work - 1)
            m.setattr(prooftrace, "_product_orbits", never)
            with pytest.raises(ResourceError, match=f"phase terms = {work} exceeds the limit {work - 1}$"):
                trilinear_eval(*args)
        monkeypatch.setattr(prooftrace, "TRILINEAR_WORK_LIMIT", work)
        assert trilinear_eval(*args) > 0

    def test_orbit_pairs_above_length_limit(self, monkeypatch):
        """4000 orbits of a*Z by 4000 of X are 1.6e7 pairs: within the work
        limit, above the length limit, so refused before the product array."""

        def never(*_):
            raise AssertionError("the product array was built")

        monkeypatch.setattr(prooftrace, "_product_orbits", never)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="= 16000000 exceeds the length limit 10000000$"):
                trilinear_eval(range(4000), [1], range(4000), 1, 1000003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_refused_above_int64_products(self):
        # products of two residues mod p would wrap in int64
        with pytest.raises(ResourceError, match="int64"):
            trilinear_eval([1], [1], [1], 1, 4000000007)

    def test_matches_triple_loop(self):
        x, y, z = [1, 3, 9], [2, 5], [4, 7, 11]
        p, a = 13, 2
        assert trilinear_eval(x, y, z, a, p) == pytest.approx(
            _triple_loop(x, y, z, a, p), abs=1e-9
        )

    @settings(max_examples=60)
    @given(st.sampled_from([3, 5, 13, 31, 61]), st.data())
    def test_matches_triple_loop_property(self, p, data):
        """Repeated entries, zeros, a = 0 and entries at or above p, and sets
        that are unions of H-cosets, so that the distinct products c_z * x are
        fewer than |Z||X|."""
        a = data.draw(st.integers(0, 2 * p), label="a")
        h = data.draw(st.sampled_from(divisors(p - 1)), label="H")
        elems = [int(v) for v in subgroup_of_order(p, h).elements]

        def draw(name):
            if data.draw(st.booleans(), label=f"{name} is a union of cosets"):
                reps = data.draw(st.lists(st.integers(0, 2 * p), min_size=1, max_size=2), label=name)
                return [r * e for r in reps for e in elems]
            return data.draw(st.lists(st.integers(0, 3 * p), min_size=1, max_size=6), label=name)

        x, y, z = draw("x"), draw("y"), draw("z")
        assert trilinear_eval(x, y, z, a, p) == pytest.approx(
            _triple_loop(x, y, z, a, p), abs=1e-9
        )

    @settings(max_examples=80)
    @given(st.sampled_from([(13, 3), (13, 4), (31, 5), (31, 6), (37, 9), (37, 12), (61, 15), (61, 4)]), st.data())
    def test_subgroup_orbits_match_triple_loop_property(self, case, data):
        """Given the subgroup, on unions of its cosets: repeated orbits, whole
        cosets of 0 and lone zeros, entries at or above p, a = 0 and a >= p,
        odd and even H; Z is any list."""
        p, h = case
        elements = subgroup_of_order(p, h).elements
        a = data.draw(st.integers(0, 2 * p), label="a")

        def draw(name):
            reps = data.draw(st.lists(st.integers(0, 3 * p), min_size=1, max_size=3), label=name)
            zeros = data.draw(st.lists(st.sampled_from([0, p, 2 * p]), max_size=2), label=f"{name} zeros")
            return [r * int(e) for r in reps for e in elements] + zeros

        x, y = draw("x"), draw("y")
        z = data.draw(st.lists(st.integers(0, 3 * p), min_size=1, max_size=5), label="z")
        assert trilinear_eval(x, y, z, a, p, subgroup=elements) == pytest.approx(
            _triple_loop(x, y, z, a, p), abs=1e-9
        )

    @pytest.mark.parametrize("broken", ["X", "Y"])
    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_sets_not_closed_under_the_subgroup(self, broken, change):
        """A set that misses one member of a coset, or holds one twice (still
        closed as a set, not as a multiset), is refused."""
        p = 1009
        elements = subgroup_of_order(p, 16).elements
        coset = [3 * int(e) % p for e in elements] + [5 * int(e) % p for e in elements]
        sets = {"X": list(coset), "Y": list(coset)}
        sets[broken] = coset[1:] if change == "drop" else coset + coset[:1]
        with pytest.raises(InputError, match=f"{broken} is not a union of orbits"):
            trilinear_eval(sets["X"], sets["Y"], [1, 2], 7, p, subgroup=elements)
        assert trilinear_eval(sets["X"], sets["Y"], [1, 2], 7, p) == pytest.approx(
            _triple_loop(sets["X"], sets["Y"], [1, 2], 7, p), abs=1e-9
        )

    def test_g_once_per_orbit_without_the_spectral_path(self, monkeypatch):
        """G is evaluated once, at one member of each distinct orbit of the
        products, the products are formed for one c per orbit of a*Z (Z holds
        repeated orbits and is closed under nothing), and the check never
        reaches an FFT, the coset index, the sum table or the pair counts."""
        p = 1009
        sub = subgroup_of_order(p, 16)
        elements = [int(e) for e in sub.elements]

        def orbit(r):
            return frozenset(r * e % p for e in elements)

        x = [r * e for r in (3, 3, 11) for e in elements] + [0]
        y = [r * e for r in (5, 7) for e in elements]
        # z of one coset give distinct products in one orbit
        z, a = [4, 4 * elements[1], 7, 7 * elements[5], 11, 12, 3 * p, 1000], 2
        want = _triple_loop(x, y, z, a, p)

        def refuse(*args, **kwargs):
            raise AssertionError("the literal check reached the spectral path")

        class Refused:
            def __getattr__(self, name):
                refuse()

        for target, name, stub in [
            (np, "fft", Refused()),
            (expsum, "all_sums", refuse),
            (SumTable, "correlate", refuse),
            (SumTable, "spectrum", property(refuse)),
            (SumTable, "lags", refuse),
            (expsum, "_pair_sums", refuse),
            (expsum, "_shifted_sums", refuse),
            (Subgroup, "coset_of", refuse),
            (Subgroup, "members", refuse),
            (Subgroup, "reps", property(refuse)),
        ]:
            monkeypatch.setattr(target, name, stub)
        evaluated = []
        real = prooftrace.phase_sums

        def recorded(y_sorted, u, q, block):
            # the columns are the orbits U of the products, G their sums
            evaluated.extend(int(w) for w in u)
            return real(y_sorted, u, q, block)

        monkeypatch.setattr(prooftrace, "phase_sums", recorded)
        multiplied = []
        real_products = prooftrace._product_orbits

        def products(c, *args):
            multiplied.extend(int(w) for w in c)
            return real_products(c, *args)

        monkeypatch.setattr(prooftrace, "_product_orbits", products)
        assert trilinear_eval(x, y, z, a, p, subgroup=sub.elements) == pytest.approx(want, abs=1e-9)
        orbits = {orbit(a * zi * xi % p) for zi in z for xi in x}
        assert len(evaluated) == len(orbits)
        assert {orbit(w) for w in evaluated} == orbits
        z_orbits = {orbit(a * zi % p) for zi in z}
        assert len(multiplied) == len(z_orbits) < len(z)
        assert {orbit(c) for c in multiplied} == z_orbits

    def test_peak_memory(self):
        """At p near 10^6 the check holds nothing of length p: 4 bytes per
        product and per distinct product (27173 here: without a subgroup every
        orbit is one residue), 16 bytes per G value, two phase tables of 1024
        entries and blocks of TRILINEAR_BLOCK entries stay below p bytes."""
        p = 1000003
        x, y, z = np.arange(1, 301), np.arange(1, 201), np.arange(1, 101) ** 3
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            value = trilinear_eval(x, y, z, 5, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < value <= x.size * y.size * z.size
        assert peak < p


class TestShiftedSums:
    """The two routes of SumTable.lags, each forced by direct_is_cheaper, on
    seeded sets of cosets X and Y: shifted sums against the table's
    transform.  The two differ by at most the transform's error,
    2 * FFT_ERROR * (log2 n + 1) * u * |f|_2 |v|_1 + u |f|_2 |v|_2 (derived in
    energy.representation_counts) for the counts f of X or of X + Y, plus
    that of the shifted adds, at most (|X| + |Y|) * u * |f|_1 * max |v|."""

    @staticmethod
    def tolerance(table, f, v, rows):
        u, n = 2.0**-53, table.padded_length
        norm_f = float(np.linalg.norm(f))
        fft = 2 * energy.FFT_ERROR * (math.log2(n) + 1) * u * norm_f * float(np.sum(np.abs(v)))
        fft += u * norm_f * float(np.linalg.norm(v))
        return fft + rows * u * float(np.sum(np.abs(f))) * float(np.max(np.abs(v)))

    @pytest.mark.parametrize(
        "p,h", [(1429, 17), (16111, 18), (35311, 15), (36697, 22), (9999991, 90)]
    )
    def test_lags_match_the_table_correlation(self, p, h, monkeypatch):
        table = all_sums(subgroup_of_order(p, h))
        m = table.sub.cosets
        rng = np.random.default_rng(p)
        xc, yc = (np.sort(rng.choice(m, size, replace=False)) for size in (20, 13))
        asked = []
        routes = {}
        for direct in (True, False):

            def forced(self, lookups=0, adds=0, _direct=direct):
                asked.append(adds)
                return _direct

            monkeypatch.setattr(SumTable, "direct_is_cheaper", forced)
            routes[direct] = table.lags(xc, magnitudes=True), table.lags(xc, yc)
        # adds count floats: two per complex period (odd H), one per real one
        floats = 1 if h % 2 == 0 else 2
        assert asked == [xc.size * m, (xc.size + yc.size) * m * floats] * 2
        (shifted2, shifted3), (spectral2, spectral3) = routes[True], routes[False]
        assert shifted2.dtype == np.float64 and shifted3.dtype == table.eta.dtype
        mags, in_x = table.coset_magnitudes, np.bincount(xc, minlength=m)
        assert np.max(np.abs(shifted2 - spectral2)) <= self.tolerance(table, in_x, mags, xc.size)
        w = expsum._pair_sums(xc, yc, m)
        assert w.sum() == xc.size * yc.size
        rows = xc.size + yc.size
        assert np.max(np.abs(shifted3 - spectral3)) <= self.tolerance(table, w, table.eta, rows)


class TestBuildTrace:
    def test_full_group_degenerate(self):
        tr = build_trace(all_sums(subgroup_of_order(13, 12)))
        assert tr.degenerate
        assert "full group" in tr.reason
        assert tr.checks == []

    def test_p13_h3_all_checks_pass(self):
        tr = build_trace(all_sums(subgroup_of_order(13, 3)))
        assert not tr.degenerate
        assert tr.all_passed
        assert len(tr.checks) >= 17

    def test_p13_h3_matches_tuple_level_oracle(self):
        sub = subgroup_of_order(13, 3)
        tr = build_trace(all_sums(sub))
        oracle = tuple_level_trace(13, sub.elements, tr.a)
        assert [int(v) for v in tr.sets.x] == oracle["x"]
        assert [int(v) for v in tr.sets.y] == oracle["y"]
        assert [int(v) for v in tr.sets.z] == oracle["z"]
        assert tr.cascade.i0 == oracle["i0"]
        assert (tr.cascade.delta1, tr.cascade.delta2, tr.cascade.delta3) == oracle["deltas"]
        assert (tr.sets.g1, tr.sets.g2, tr.sets.g3) == oracle["g_sizes"]
        assert tr.cascade.delta == pytest.approx(oracle["delta"], abs=1e-12)
        assert tr.cascade.delta1_meas == pytest.approx(oracle["delta_meas"][0], abs=1e-9)
        assert tr.cascade.delta2_meas == pytest.approx(oracle["delta_meas"][1], abs=1e-9)

    def test_p1009_h48_out_of_range_but_traceable(self):
        # 48 > sqrt(1009): outside the headline window, the machinery still runs
        tr = build_trace(all_sums(subgroup_of_order(1009, 48)))
        assert not tr.degenerate
        assert tr.all_passed

    def test_trilinear_direct_agreement_small(self):
        tr = build_trace(all_sums(subgroup_of_order(13, 3)))
        assert tr.trilinear_direct is not None
        assert tr.trilinear_direct == pytest.approx(tr.trilinear_sum, rel=1e-9)

    def test_zero_excluded_from_sets(self):
        tr = build_trace(all_sums(subgroup_of_order(1009, 16)))
        for arr in (tr.sets.x, tr.sets.y, tr.sets.z):
            assert 0 not in arr

    def test_reported_ratios_finite(self):
        tr = build_trace(all_sums(subgroup_of_order(1009, 16)))
        for key, value in tr.reported.items():
            assert np.isfinite(value), key


def _trace_or_empty_stage(sub):
    """(trace, None), or (trace, k) when stage k leaves no nonzero residue and
    the trace is degenerate with the stage in its reason."""
    tr = build_trace(all_sums(sub))
    if not tr.degenerate:
        return tr, None
    return tr, int(re.search(r"stage-(\d)", tr.reason).group(1))


# every p < 240 and every order 2 <= H <= 8 below the full group
SWEEP = [
    (p, h) for p in range(3, 240) if is_prime(p) for h in range(2, min(9, p - 1)) if (p - 1) % h == 0
]


def test_tuple_level_oracle_sweep():
    """Every p < 240 and 2 <= H <= 8: the coset-coordinate cascade against
    literal tuple enumeration, traced cases and empty ones alike."""
    traced = 0
    for p, h in SWEEP:
        sub = subgroup_of_order(p, h)
        tr, empty = _trace_or_empty_stage(sub)
        oracle = tuple_level_trace(p, sub.elements, tr.a)
        assert empty == oracle["empty_stage"], (p, h)
        if empty is not None:
            assert tr.cascade is None and tr.sets is None and not tr.checks, (p, h)
            continue
        traced += 1
        assert [int(v) for v in tr.sets.x] == oracle["x"], (p, h)
        assert [int(v) for v in tr.sets.y] == oracle["y"], (p, h)
        assert [int(v) for v in tr.sets.z] == oracle["z"], (p, h)
        assert tr.cascade.i0 == oracle["i0"], (p, h)
        assert (tr.sets.g1, tr.sets.g2, tr.sets.g3) == oracle["g_sizes"], (p, h)
        assert tr.cascade.delta2_meas == pytest.approx(oracle["delta_meas"][1], rel=1e-9)
    assert traced and traced < len(SWEEP)


@pytest.mark.parametrize(
    "p,h", [(p, h) for p, orders in TRACE_ORDERS.items() for h in orders] + [(16111, 18), (1429, 17)]
)
def test_residue_level_oracle(p, h):
    """The coset stages against the per-residue stage 2 (one x at a time) and
    stage 3 (X x Y products and a length-p FFT)."""
    sub = subgroup_of_order(p, h)
    tr = build_trace(all_sums(sub))
    oracle = residue_level_trace(p, sub.elements, tr.a)
    assert tr.sets.x.tolist() == oracle["x"]
    assert tr.sets.y.tolist() == oracle["y"]
    assert tr.sets.z.tolist() == oracle["z"]
    assert tr.cascade.i0 == oracle["i0"]
    assert (tr.sets.g1, tr.sets.g2, tr.sets.g3) == oracle["g_sizes"]
    assert tr.cascade.delta == pytest.approx(oracle["delta"], rel=1e-9)
    assert tr.cascade.delta1_meas == pytest.approx(oracle["delta_meas"][0], rel=1e-9)
    assert tr.cascade.delta2_meas == pytest.approx(oracle["delta_meas"][1], rel=1e-9)


def test_residue_level_oracle_empty_stage3():
    sub = subgroup_of_order(36697, 22)
    tr, empty = _trace_or_empty_stage(sub)
    assert empty == 3
    assert tr.reason == "stage-3 bucket holds only the zero residue"
    assert tr.reported == {"delta": max_sum(all_sums(sub))[1] / 22}
    assert residue_level_trace(36697, sub.elements, tr.a)["empty_stage"] == 3


def test_trilinear_direct_check_within_work_limit(monkeypatch):
    """The check's work at (16111, 18): 18 products per member of X, Y and Z,
    18 per pair of orbits (of a*Z and of X) and |Y| phase terms for each of
    min(pairs, M + 1) product orbits.  With that limit the literal check runs
    and gives the value of the trace under the default limit; one unit below
    it no check runs, and the spectral values stand alone."""
    table = all_sums(subgroup_of_order(16111, 18))
    full = build_trace(table)
    assert full.trilinear_direct is not None
    nx, ny, nz = full.sets.x.size, full.sets.y.size, full.sets.z.size
    pairs = (nz // 18) * (nx // 18)
    work = 18 * (nx + ny + nz) + 18 * pairs + min(pairs, 16110 // 18 + 1) * ny
    assert work == 42876
    monkeypatch.setattr(prooftrace, "TRILINEAR_WORK_LIMIT", work)
    tr = build_trace(table)
    assert tr.all_passed and tr.trilinear_direct == full.trilinear_direct
    assert tr.checks[-1].name == "trilinear_direct_agreement"
    monkeypatch.setattr(prooftrace, "TRILINEAR_WORK_LIMIT", work - 1)
    below = build_trace(table)
    assert below.trilinear_direct is None and below.all_passed
    assert "trilinear_direct_agreement" not in [c.name for c in below.checks]
    assert below.trilinear_sum == full.trilinear_sum


def _moment_check(interval, sub, a, m):
    table = all_sums(sub)
    t_m = representation_counts(table, m).energy
    return moment_inequality_check(table, a, m, t_m, j_count(interval, table))


class TestMomentInequality:
    def test_trivial_subgroup(self):
        sub = subgroup_of_order(101, 1)
        for m in (2, 3):
            c = _moment_check(Interval(0, 10), sub, 1, m)
            assert c.passed

    @pytest.mark.parametrize("m", [2, 3])
    def test_p101_interval(self, m):
        sub = subgroup_of_order(101, 10)
        c = _moment_check(Interval(0, 10), sub, 1, m)
        assert c.passed
        assert c.lhs <= c.rhs * (1 + 1e-6)

    def test_needs_m_at_least_two(self):
        from expsumlab import InputError

        with pytest.raises(InputError):
            _moment_check(Interval(0, 10), subgroup_of_order(101, 10), 1, 1)
