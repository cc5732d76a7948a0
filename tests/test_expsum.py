import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import (
    InputError,
    Interval,
    ResourceError,
    all_sums,
    divisors,
    interval_subgroup_sum,
    max_sum,
    single_sum,
    subgroup_of_order,
)
from oracles import indicator, naive_dft, parseval_defect, spread, subgroup_sum


def fft_sums(sub):
    """S_a for every a from numpy's FFT of the indicator: S_a = conj(fft)[a]."""
    return np.conj(np.fft.fft(indicator(sub).astype(np.float64)))


def magnitudes(table):
    """|S_a| at every residue a, spread from the table's coset magnitudes."""
    return spread(table.index, table.coset_magnitudes, table.order)


def values(table):
    """S_a at every residue a, spread from the table's Gaussian periods."""
    return spread(table.index, table.eta, table.order)


def mp_magnitude(a, elements, p):
    with mpmath.workdps(50):
        s = mpmath.fsum(mpmath.expjpi(mpmath.mpf(2 * ((a * int(x)) % p)) / p) for x in elements)
        return float(mpmath.fabs(s))


class TestSingleSum:
    def test_a_zero_gives_order(self):
        sub = subgroup_of_order(101, 10)
        assert single_sum(0, sub) == pytest.approx(10 + 0j, abs=1e-12)

    def test_full_group_complete_sum(self):
        sub = subgroup_of_order(7, 6)
        assert abs(single_sum(1, sub) - (-1 + 0j)) < 1e-9

    def test_cubic_subgroup_against_high_precision(self):
        sub = subgroup_of_order(13, 3)
        for a in range(13):
            expected = mp_magnitude(a, sub.elements, 13)
            assert abs(abs(single_sum(a, sub)) - expected) < 1e-12

    def test_absolute_error_budget(self):
        sub = subgroup_of_order(1009, 504)
        for a in (1, 7, 500):
            expected = mp_magnitude(a, sub.elements, 1009)
            assert abs(abs(single_sum(a, sub)) - expected) <= 1e-8 * sub.order


class TestDft:
    # the cascade's stage 3 and the table oracle read np.fft.fft as
    # sum_j x_j exp(-2*pi*i*jk/n) at every length, prime lengths included
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 13, 31, 64, 100, 101])
    def test_matches_naive_dft(self, n):
        rng = np.random.default_rng(12345 + n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        expected = np.array(naive_dft(list(x)))
        assert np.max(np.abs(np.fft.fft(x) - expected)) < 1e-9 * max(1.0, np.abs(expected).max())

    def test_prime_length_indicator(self):
        # the table is the prime-length DFT of the indicator, conjugated
        sub = subgroup_of_order(257, 16)
        table = all_sums(sub)
        spectrum = np.fft.fft(indicator(sub).astype(np.complex128))
        for a in (0, 1, 100, 256):
            expected = complex(subgroup_sum(-a, sub.elements, 257))
            assert abs(spectrum[a] - expected) < 1e-9
            assert abs(np.conj(values(table)[a]) - expected) < 1e-9


class TestAllSums:
    @pytest.mark.parametrize("route", ["direct", "transform"])
    def test_invariants(self, route):
        # "direct": the per-coset table; "transform": the FFT reference
        sub = subgroup_of_order(1009, 48)
        table = all_sums(sub)
        fft_mags = np.abs(fft_sums(sub))
        mags = magnitudes(table) if route == "direct" else fft_mags
        assert mags[0] == 48.0
        assert np.all(mags <= 48 + 1e-9)
        assert abs(float(np.sum(mags**2)) - 1009 * 48) < 1e-6 * 1009 * 48
        assert np.max(np.abs(magnitudes(table) - fft_mags)) <= 1e-9 * 48

    def test_full_group_all_ones(self):
        table = all_sums(subgroup_of_order(101, 100))
        assert np.max(np.abs(magnitudes(table)[1:] - 1.0)) < 1e-9

    def test_distinct_magnitudes_bounded_by_coset_count(self):
        table = all_sums(subgroup_of_order(13, 3))
        assert len(set(np.round(magnitudes(table)[1:], 9))) <= 4

    def test_coset_invariance(self):
        sub = subgroup_of_order(101, 10)
        mags = magnitudes(all_sums(sub))
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = int(rng.integers(1, 101))
            h = int(rng.choice(sub.elements))
            assert abs(mags[a] - mags[(a * h) % 101]) <= 1e-6 * 10

    @pytest.mark.parametrize("p,h", [(13, 3), (101, 10), (257, 16), (1009, 48), (12289, 4096)])
    def test_strategy_equivalence_every_a(self, p, h):
        # the per-coset table against the transform of the indicator, every a
        sub = subgroup_of_order(p, h)
        table = all_sums(sub)
        assert np.max(np.abs(values(table) - fft_sums(sub))) <= 1e-6 * h
        assert np.max(np.abs(magnitudes(table) - np.abs(fft_sums(sub)))) <= 1e-6 * h
        for a in (1, p // 2, p - 1):
            assert abs(values(table)[a] - subgroup_sum(a, sub.elements, p)) <= 1e-6 * h

    def test_table_matches_single_sum(self):
        sub = subgroup_of_order(1009, 48)
        vals = values(all_sums(sub))
        rng = np.random.default_rng(11)
        for a in rng.integers(0, 1009, size=40):
            assert abs(vals[a] - single_sum(int(a), sub)) < 1e-9

    def test_dense_limit(self):
        with pytest.raises(ResourceError):
            all_sums(subgroup_of_order(1009, 48), dense_limit=100)

    def test_dense_limit_holds_after_the_index_is_built(self):
        sub = subgroup_of_order(1009, 48)
        all_sums(sub)
        with pytest.raises(ResourceError):
            all_sums(sub, dense_limit=100)

    def test_gauss_identity_half_order(self):
        # H = (p-1)/2 is the quadratic-residue subgroup: |2 S_a + 1| = sqrt(p)
        for p in (13, 101, 1009):
            sub = subgroup_of_order(p, (p - 1) // 2)
            table = all_sums(sub)
            dev = np.abs(np.abs(2.0 * values(table)[1:] + 1.0) - math.sqrt(p))
            assert float(dev.max()) < 1e-6

    @settings(max_examples=40)
    @given(st.sampled_from([13, 31, 61, 101, 181, 257]), st.data())
    def test_parseval_property(self, p, data):
        h = data.draw(st.sampled_from(divisors(p - 1)))
        table = all_sums(subgroup_of_order(p, h))
        assert parseval_defect(magnitudes(table), p, h) < 1e-6


class TestMaxSum:
    def test_full_group(self):
        a_star, value = max_sum(subgroup_of_order(13, 12))
        assert a_star == 1
        assert abs(value - 1.0) < 1e-9

    def test_quadratic_residues_p13(self):
        a_star, value = max_sum(subgroup_of_order(13, 6))
        # the maximum is (sqrt(13)+1)/2, attained at the non-residues
        assert abs(abs(2 * value - 1) - math.sqrt(13)) < 1e-9 or abs(
            abs(2 * value + 1) - math.sqrt(13)
        ) < 1e-9
        assert a_star == 2  # smallest quadratic non-residue mod 13

    def test_brute_force_small(self):
        sub = subgroup_of_order(13, 3)
        mags = [abs(subgroup_sum(a, sub.elements, 13)) for a in range(1, 13)]
        a_star, value = max_sum(sub)
        assert value == pytest.approx(max(mags), abs=1e-12)
        # magnitudes are exactly equal on cosets, so the smallest attaining
        # residue must be compared up to the oracle's last-ulp noise
        smallest_attaining = next(i + 1 for i, m in enumerate(mags) if m >= max(mags) - 1e-9)
        assert a_star == smallest_attaining

    def test_parseval_pigeonhole_lower_bound(self):
        p, h = 1009, 48
        _, value = max_sum(subgroup_of_order(p, h))
        assert value >= math.sqrt((p * h - h * h) / (p - 1))


class TestInterval:
    def test_residues(self):
        assert list(Interval(0, 3).residues(13)) == [1, 2, 3]
        assert list(Interval(11, 3).residues(13)) == [12, 0, 1]

    def test_huge_start_reduced_mod_p(self):
        huge = 99999999999999999999
        for p in (13, 101):
            expected = list(Interval(huge % p, 5).residues(p))
            assert list(Interval(huge, 5).residues(p)) == expected
            assert list(Interval(-huge, 5).residues(p)) == list(Interval(-huge % p, 5).residues(p))

    def test_length_validation(self):
        with pytest.raises(InputError):
            Interval(0, 0).residues(13)
        with pytest.raises(InputError):
            Interval(0, 14).residues(13)


class TestIntervalSubgroupSum:
    def test_zero_hit_gives_order(self):
        sub = subgroup_of_order(13, 3)
        # interval {13} == {0 mod p}
        assert interval_subgroup_sum(5, Interval(12, 1), sub) == pytest.approx(3.0, abs=1e-9)

    def test_full_interval_full_group(self):
        sub = subgroup_of_order(13, 12)
        value = interval_subgroup_sum(1, Interval(0, 12), sub)
        assert value == pytest.approx(12.0, abs=1e-8)

    def test_rejects_zero_a(self):
        with pytest.raises(InputError):
            interval_subgroup_sum(13, Interval(0, 3), subgroup_of_order(13, 3))

    def test_table_equals_magnitude_prefix_sum(self):
        sub = subgroup_of_order(101, 10)
        table = all_sums(sub)
        value = interval_subgroup_sum(1, Interval(0, 10), sub, table=table)
        assert value == pytest.approx(float(np.sum(magnitudes(table)[1:11])), abs=1e-9)

    def test_table_and_direct_agree(self):
        sub = subgroup_of_order(101, 10)
        table = all_sums(sub)
        for a, start, length in [(1, 0, 10), (7, 50, 33), (100, 90, 20)]:
            iv = Interval(start, length)
            via_table = interval_subgroup_sum(a, iv, sub, table=table)
            direct = math.fsum(abs(subgroup_sum(a * int(n), sub.elements, 101)) for n in iv.residues(101))
            assert abs(via_table - direct) <= 1e-5 * max(direct, 1.0)

    def test_builds_its_table_when_none_is_given(self):
        sub = subgroup_of_order(101, 10)
        iv = Interval(7, 33)
        assert interval_subgroup_sum(3, iv, sub) == interval_subgroup_sum(3, iv, sub, table=all_sums(sub))


def test_max_sum_allocates_nothing_of_length_p():
    """The sum maximum at p ~ 10^7 holds O(M + sqrt(p)) memory: no per-residue
    array, and the coset labels (4p bytes) are never written."""
    p, h = 9999991, 99
    tracemalloc.start()
    try:
        sub = subgroup_of_order(p, h)
        max_sum(sub)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * ((p - 1) // h) + 2**21
    assert "labels" not in vars(sub.coset_index())
