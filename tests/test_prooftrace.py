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
    Interval,
    ResourceError,
    all_sums,
    build_trace,
    check_energy_cardinality,
    divisors,
    dyadic_stage,
    is_prime,
    max_sum,
    moment_inequality_check,
    representation_counts,
    subgroup_of_order,
    trilinear_eval,
)
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
        assert st.total_mass == pytest.approx(10.0 + 2.0 + 6.0)

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
        a, mx = max_sum(sub)
        delta = mx / 3
        table = all_sums(sub)
        lam = np.arange(p, dtype=np.int64)
        r3 = representation_counts(sub, 3)
        mags = spread(table.index, table.coset_magnitudes, 3)
        counts = spread(r3.index, r3.per_coset, r3.at_zero)
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

    def test_budget(self):
        with pytest.raises(ResourceError):
            trilinear_eval(range(100), range(100), range(101), 1, 1009, budget=10**6)

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

    def test_peak_memory(self):
        """At p near 10^6 the check holds its 16p-byte phase table (after
        its p-byte mark is freed), block buffers and 24 bytes per distinct
        product (27173 here): within 17p bytes plus 4 MB."""
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
        assert peak <= 17 * p + 4 * 2**20


class TestBuildTrace:
    def test_full_group_degenerate(self):
        tr = build_trace(subgroup_of_order(13, 12))
        assert tr.degenerate
        assert "full group" in tr.reason
        assert tr.checks == []

    def test_p13_h3_all_checks_pass(self):
        tr = build_trace(subgroup_of_order(13, 3))
        assert not tr.degenerate
        assert tr.all_passed
        assert len(tr.checks) >= 17

    def test_p13_h3_matches_tuple_level_oracle(self):
        sub = subgroup_of_order(13, 3)
        tr = build_trace(sub)
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
        tr = build_trace(subgroup_of_order(1009, 48))
        assert not tr.degenerate
        assert tr.all_passed

    def test_trilinear_direct_agreement_small(self):
        tr = build_trace(subgroup_of_order(13, 3))
        assert tr.trilinear_direct is not None
        assert tr.trilinear_direct == pytest.approx(tr.trilinear_sum, rel=1e-9)

    def test_x_weights_are_representation_counts(self):
        sub = subgroup_of_order(1009, 16)
        tr = build_trace(sub)
        r3 = representation_counts(sub, 3)
        assert np.array_equal(tr.sets.x_weights, spread(r3.index, r3.per_coset, r3.at_zero)[tr.sets.x])

    def test_zero_excluded_from_sets(self):
        tr = build_trace(subgroup_of_order(1009, 16))
        for arr in (tr.sets.x, tr.sets.y, tr.sets.z):
            assert 0 not in arr

    def test_reported_ratios_finite(self):
        tr = build_trace(subgroup_of_order(1009, 16))
        for key, value in tr.reported.items():
            assert np.isfinite(value), key


def _trace_or_empty_stage(sub):
    """(trace, None), or (None, k) when stage k leaves no nonzero residue."""
    try:
        return build_trace(sub), None
    except EmptyTraceError as exc:
        return None, int(re.search(r"stage-(\d)", str(exc)).group(1))


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
        a = tr.a if tr is not None else max_sum(sub)[0]
        oracle = tuple_level_trace(p, sub.elements, a)
        assert empty == oracle["empty_stage"], (p, h)
        if tr is None:
            continue
        traced += 1
        assert not tr.degenerate, (p, h)
        assert [int(v) for v in tr.sets.x] == oracle["x"], (p, h)
        assert [int(v) for v in tr.sets.y] == oracle["y"], (p, h)
        assert [int(v) for v in tr.sets.z] == oracle["z"], (p, h)
        assert tr.cascade.i0 == oracle["i0"], (p, h)
        assert (tr.sets.g1, tr.sets.g2, tr.sets.g3) == oracle["g_sizes"], (p, h)
        assert tr.cascade.delta2_meas == pytest.approx(oracle["delta_meas"][1], rel=1e-9)
    assert traced and traced < len(SWEEP)


@pytest.mark.parametrize(
    "p,h", [(p, h) for p, orders in TRACE_ORDERS.items() for h in orders] + [(16111, 18)]
)
def test_residue_level_oracle(p, h):
    """The coset stages against the per-residue stage 2 (one x at a time) and
    stage 3 (X x Y products and a length-p FFT)."""
    sub = subgroup_of_order(p, h)
    tr = build_trace(sub)
    oracle = residue_level_trace(p, sub.elements, tr.a)
    assert tr.sets.x.tolist() == oracle["x"]
    assert tr.sets.x_weights.tolist() == oracle["x_weights"]
    assert tr.sets.y.tolist() == oracle["y"]
    assert tr.sets.z.tolist() == oracle["z"]
    assert tr.cascade.i0 == oracle["i0"]
    assert (tr.sets.g1, tr.sets.g2, tr.sets.g3) == oracle["g_sizes"]
    assert tr.cascade.delta == pytest.approx(oracle["delta"], rel=1e-9)
    assert tr.cascade.delta1_meas == pytest.approx(oracle["delta_meas"][0], rel=1e-9)
    assert tr.cascade.delta2_meas == pytest.approx(oracle["delta_meas"][1], rel=1e-9)


def test_residue_level_oracle_empty_stage3():
    sub = subgroup_of_order(36697, 22)
    assert _trace_or_empty_stage(sub)[1] == 3
    assert residue_level_trace(36697, sub.elements, max_sum(sub)[0])["empty_stage"] == 3


def test_trilinear_coset_check_above_literal_budget():
    """|X||Y||Z| above the budget but |X||Y||Z|/H within it: the literal sum
    at one z per Z-coset, times H, stands in for the direct check."""
    sub = subgroup_of_order(16111, 18)
    full = build_trace(sub)
    terms = full.sets.x.size * full.sets.y.size * full.sets.z.size
    tr = build_trace(sub, trilinear_budget=terms // 18 + 1)
    assert tr.trilinear_direct is None
    assert tr.all_passed
    check = tr.checks[-1]
    assert check.name == "trilinear_coset_agreement"
    assert check.rhs == tr.trilinear_sum == full.trilinear_sum
    assert check.lhs == pytest.approx(full.trilinear_direct, rel=1e-9)
    assert "trilinear_direct_agreement" not in [c.name for c in tr.checks]
    below = build_trace(sub, trilinear_budget=terms // 18 - 1)
    assert below.trilinear_direct is None and below.all_passed
    assert "trilinear_coset_agreement" not in [c.name for c in below.checks]


class TestMomentInequality:
    def test_trivial_subgroup(self):
        sub = subgroup_of_order(101, 1)
        for m in (2, 3):
            c = moment_inequality_check(Interval(0, 10), sub, 1, m)
            assert c.passed

    @pytest.mark.parametrize("m", [2, 3])
    def test_p101_interval(self, m):
        sub = subgroup_of_order(101, 10)
        c = moment_inequality_check(Interval(0, 10), sub, 1, m)
        assert c.passed
        assert c.lhs <= c.rhs * (1 + 1e-6)

    def test_needs_m_at_least_two(self):
        from expsumlab import InputError

        with pytest.raises(InputError):
            moment_inequality_check(Interval(0, 10), subgroup_of_order(101, 10), 1, 1)
