from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import (
    Interval,
    ResourceError,
    all_sums,
    difference_counts,
    divisors,
    energy_via_moments,
    j_count,
    moment_error_bound,
    representation_counts,
    subgroup_of_order,
)
from expsumlab.expsum import PHASE_ERROR, phase_tables
from oracles import brute_force_T, indicator, quadruple_loop_j, spread, tuple_count_T


def counts(prof):
    """The profile's count at every residue, spread from its per-coset counts."""
    return spread(prof.index, prof.per_coset, prof.at_zero)


class TestRepresentationCounts:
    def test_m1_is_indicator(self):
        sub = subgroup_of_order(13, 3)
        prof = representation_counts(sub, 1)
        assert np.array_equal(counts(prof), indicator(sub))
        assert prof.energy == 3

    def test_pair_subgroup_m2(self):
        # H = {1, p-1}: r2(2) = 1, r2(0) = 2, r2(p-2) = 1, T2 = 6
        sub = subgroup_of_order(13, 2)
        prof = representation_counts(sub, 2)
        expected = np.zeros(13, dtype=np.int64)
        expected[2], expected[0], expected[11] = 1, 2, 1
        assert np.array_equal(counts(prof), expected)
        assert prof.energy == 6

    def test_trivial_subgroup(self):
        assert representation_counts(subgroup_of_order(13, 1), 2).energy == 1

    @pytest.mark.parametrize("p,h,m", [(13, 3, 2), (13, 3, 3), (31, 6, 2), (101, 10, 3)])
    def test_count_sums_and_invariance(self, p, h, m):
        sub = subgroup_of_order(p, h)
        prof = representation_counts(sub, m)
        rm = counts(prof)
        assert int(rm.sum()) == h**m
        # multiplicative invariance r_m(h * lam) = r_m(lam), all lam, all h
        lam = np.arange(p, dtype=np.int64)
        for x in sub.elements:
            assert np.array_equal(rm[(int(x) * lam) % p], rm)

    def test_energy_bounds(self):
        sub = subgroup_of_order(101, 10)
        for m in (1, 2, 3):
            t = representation_counts(sub, m).energy
            assert 10**m <= t <= 10 ** (2 * m)
            assert t >= 10 ** (2 * m) // 101

    def test_overflow_guard(self):
        sub = subgroup_of_order(13, 2)
        with pytest.raises(ResourceError):
            representation_counts(sub, 70)  # 2^140 > 2^127


class TestDifferenceCounts:
    @pytest.mark.parametrize("p,h", [(13, 3), (101, 10), (1009, 48)])
    def test_square_sum_is_t2(self, p, h):
        sub = subgroup_of_order(p, h)
        prof = difference_counts(sub)
        rd = counts(prof)
        assert int(rd.sum()) == h * h
        assert rd[0] == prof.at_zero == h
        r2 = representation_counts(sub, 2)
        assert int(np.dot(rd, rd)) == prof.energy == r2.energy
        # -1 lies in a subgroup of even order, so h1 - h2 runs over the sums h1 + h2
        assert np.array_equal(counts(r2), rd) == (h % 2 == 0)


class TestMoments:
    def test_m1_restates_parseval(self):
        sub = subgroup_of_order(101, 10)
        assert energy_via_moments(all_sums(sub), 1) == pytest.approx(10.0, rel=1e-9)

    def test_pair_subgroup_rounds_to_six(self):
        sub = subgroup_of_order(13, 2)
        assert round(energy_via_moments(all_sums(sub), 2)) == 6

    def test_m3_matches_convolution(self):
        sub = subgroup_of_order(13, 3)
        moment = energy_via_moments(all_sums(sub), 3)
        assert abs(moment - representation_counts(sub, 3).energy) < 0.5


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an extended long double")
@pytest.mark.parametrize("p", [3, 5, 13, 1009, 9999991])
def test_phase_error_within_stated_constant(p):
    # every residue below 10^4, else 10^6 drawn ones and the last of the range
    if p < 10**4:
        x = np.arange(p, dtype=np.int64)
    else:
        x = np.append(np.random.default_rng(p).integers(0, p, 10**6), p - 1)
    b, hi, lo = phase_tables(p)
    got = hi[x // b] * lo[x % b]
    # reference angle within a few 2^-64 of 2*pi*x/p, cosine and sine within an ulp of it
    angle = 8 * np.arctan(np.longdouble(1)) * x.astype(np.longdouble) / p
    err = np.hypot(got.real - np.cos(angle), got.imag - np.sin(angle))
    assert float(err.max()) <= PHASE_ERROR * 2.0**-53


class TestMomentErrorBound:
    @pytest.mark.parametrize("p", [13, 101, 257, 1009])
    def test_bound_holds_and_keeps_the_rounding_verdict(self, p):
        # the bound is rigorous, and below 1/2 it accepts exactly what rounding did
        for h in divisors(p - 1):
            sub = subgroup_of_order(p, h)
            table = all_sums(sub)
            for m in (1, 2, 3):
                t_m = representation_counts(sub, m).energy
                moment, bound = energy_via_moments(table, m), moment_error_bound(table, m)
                assert abs(Fraction(moment) - t_m) <= bound, (p, h, m)
                if bound < 0.5:
                    for guess in (t_m - 1, t_m, t_m + 1):
                        within = abs(Fraction(moment) - guess) <= bound
                        assert within == (round(moment) == guess), (p, h, m, guess)

    def test_bound_grows_past_float_spacing(self):
        # p * T_2 > 2^53: rounding cannot confirm T_2, the bound still covers it
        sub = subgroup_of_order(1000003, 500001)
        table = all_sums(sub)
        t_2 = representation_counts(sub, 2).energy
        moment, bound = energy_via_moments(table, 2), moment_error_bound(table, 2)
        assert round(moment) != t_2
        assert 0.5 < abs(Fraction(moment) - t_2) <= bound < 1e-10 * t_2


class TestBruteForce:
    def test_trivial_cases(self):
        assert brute_force_T(subgroup_of_order(13, 3), 1) == 3
        assert brute_force_T(subgroup_of_order(13, 1), 3) == 1

    def test_matches_convolution(self):
        sub = subgroup_of_order(13, 3)
        assert brute_force_T(sub, 2) == representation_counts(sub, 2).energy
        assert brute_force_T(sub, 3) == representation_counts(sub, 3).energy

    def test_matches_independent_counter(self):
        sub = subgroup_of_order(31, 6)
        assert brute_force_T(sub, 2) == tuple_count_T(sub.elements, 31, 2)

    def test_budget(self):
        with pytest.raises(ResourceError):
            brute_force_T(subgroup_of_order(1009, 1008), 3)


class TestJCount:
    def test_single_residue_interval(self):
        sub = subgroup_of_order(13, 3)
        assert j_count(Interval(0, 1), sub).energy == 3

    def test_trivial_subgroup(self):
        sub = subgroup_of_order(13, 1)
        for n in (1, 5, 13):
            assert j_count(Interval(0, n), sub).energy == n

    def test_counts_sum(self):
        sub = subgroup_of_order(101, 10)
        prof = j_count(Interval(3, 17), sub)
        assert int(counts(prof).sum()) == 17 * 10
        assert prof.energy >= 17 * 10

    def test_quadruple_loop_oracle(self):
        sub = subgroup_of_order(101, 10)
        iv = Interval(0, 10)
        expected = quadruple_loop_j([int(v) for v in iv.residues(101)], [int(v) for v in sub.elements], 101)
        assert j_count(iv, sub).energy == expected


@settings(max_examples=30)
@given(st.sampled_from([13, 31, 61, 101]), st.data())
def test_three_way_agreement_property(p, data):
    h = data.draw(st.sampled_from([d for d in divisors(p - 1) if d <= 10]))
    m = data.draw(st.sampled_from([2, 3]))
    sub = subgroup_of_order(p, h)
    t_conv = representation_counts(sub, m).energy
    assert brute_force_T(sub, m) == t_conv
    assert round(energy_via_moments(all_sums(sub), m)) == t_conv


def test_three_way_agreement_exhaustive_small_primes():
    from expsumlab import is_prime

    # every subgroup with H <= 12, every odd prime p <= 200
    for p in range(3, 201, 2):
        if not is_prime(p):
            continue
        for h in (d for d in divisors(p - 1) if d <= 12):
            sub = subgroup_of_order(p, h)
            table = all_sums(sub)
            for m in (2, 3):
                t_conv = representation_counts(sub, m).energy
                assert brute_force_T(sub, m) == t_conv, (p, h, m)
                assert round(energy_via_moments(table, m)) == t_conv, (p, h, m)
