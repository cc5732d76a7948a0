import dataclasses
import math
import time
import tracemalloc
from types import SimpleNamespace

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
    difference_counts,
    divisors,
    interval_subgroup_sum,
    j_count,
    max_sum,
    representation_counts,
    single_sum,
    subgroup_of_order,
)
from expsumlab.expsum import SumTable, phase_sums, phase_tables
from expsumlab.expsum import TABLE_BLOCK
from oracles import indicator, naive_dft, parseval_defect, spread, subgroup_sum


def fft_sums(sub):
    """S_a for every a from numpy's FFT of the indicator: S_a = conj(fft)[a]."""
    return np.conj(np.fft.fft(indicator(sub).astype(np.float64)))


def magnitudes(table):
    """|S_a| at every residue a, spread from the table's coset magnitudes."""
    return spread(table.sub, table.coset_magnitudes, table.order)


def values(table):
    """S_a at every residue a, spread from the table's Gaussian periods."""
    return spread(table.sub, table.eta, table.order)


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

    def test_coset_limit(self):
        # M = (p-1)/2 = 10000001: refused before any index array is built
        sub = subgroup_of_order(20000003, 2)
        start = time.monotonic()
        with pytest.raises(ResourceError, match=r"M = \(p-1\)/H = 10000001 exceeds the length limit"):
            all_sums(sub)
        assert time.monotonic() - start < 1.0
        assert not {"reps", "_power_keys"} & vars(sub).keys()

    def test_coset_limit_holds_for_every_index_lookup(self):
        # direct library lookups are refused too, and a refused index caches
        # nothing, so the table is refused again afterwards
        sub = subgroup_of_order(20000003, 2)
        start = time.monotonic()
        lookups = (lambda: sub.reps, lambda: sub.coset_of(3), lambda: sub.members([0]), lambda: all_sums(sub))
        for lookup in lookups:
            with pytest.raises(ResourceError, match=r"M = \(p-1\)/H = 10000001 exceeds the length limit"):
                lookup()
        assert time.monotonic() - start < 1.0
        assert not {"reps", "_power_keys"} & vars(sub).keys()

    def test_table_above_ten_million(self):
        # p = 20000003 > 10^7 with M = 1818182 cosets: the table answers, and
        # matches single_sum at seeded random a and at the reported a*
        p, h = 20000003, 11
        sub = subgroup_of_order(p, h)
        table = all_sums(sub)
        rng = np.random.default_rng(20000003)
        a = rng.integers(1, p, size=200)
        got = table.eta[sub.coset_of(a)]
        want = np.array([single_sum(int(x), sub) for x in a])
        assert np.max(np.abs(got - want)) <= 1e-9 * h
        a_star, value = max_sum(table)
        assert abs(value - abs(single_sum(a_star, sub))) <= 1e-9 * h

    def test_interval_above_length_limit(self):
        # N = 10^7 + 1 <= p is refused before its residues are listed, by
        # j_count, the one library call that lists them
        p, h = 20000003, 11
        table = SimpleNamespace(p=p, order=h, sub=subgroup_of_order(p, h))
        interval = Interval(start=0, length=10**7 + 1)
        for call in (lambda: interval.residues(p), lambda: j_count(interval, table)):
            with pytest.raises(ResourceError, match="interval length N = 10000001 exceeds the length limit"):
                call()

    def test_gauss_identity_half_order(self):
        # H = (p-1)/2 is the quadratic-residue subgroup: |2 S_a + 1| = sqrt(p)
        for p in (13, 101, 1009):
            sub = subgroup_of_order(p, (p - 1) // 2)
            table = all_sums(sub)
            dev = np.abs(np.abs(2.0 * values(table)[1:] + 1.0) - math.sqrt(p))
            assert float(dev.max()) < 1e-6

    @pytest.mark.parametrize("h", [3, 6])
    def test_single_row_blocks_against_fft(self, h):
        # M/2 and M exceed TABLE_BLOCK, so at the production block size every
        # block of the kernel is one row, added to the periods as it is
        p = 1000003
        sub = subgroup_of_order(p, h)
        assert ((p - 1) // h) // (2 if h % 2 else 1) >= TABLE_BLOCK
        table = all_sums(sub)
        fft = fft_sums(sub)
        fft_mags = np.abs(fft)
        assert np.max(np.abs(values(table) - fft)) <= 1e-6 * h
        assert np.max(np.abs(magnitudes(table) - fft_mags)) <= 1e-6 * h
        a_star, best = max_sum(table)
        top = fft_mags[1:].max()
        assert abs(best - top) <= 1e-6 * h
        assert a_star == 1 + np.flatnonzero(fft_mags[1:] >= top - 2 * table.period_error)[0]

    @settings(max_examples=40)
    @given(st.sampled_from([13, 31, 61, 101, 181, 257]), st.data())
    def test_parseval_property(self, p, data):
        h = data.draw(st.sampled_from(divisors(p - 1)))
        table = all_sums(subgroup_of_order(p, h))
        assert parseval_defect(magnitudes(table), p, h) < 1e-6


@pytest.mark.parametrize("p", [3, 5, 13, 1009, 9999991, 2**31 - 1])
def test_phase_tables_split(p):
    # B = 2^k > isqrt(p - 1), and every hi entry has qB < p: the premise of
    # the phase error derivation in energy_via_moments
    b, hi, lo = phase_tables(p)
    assert b & (b - 1) == 0 and b > math.isqrt(p - 1)
    assert lo.size == b and b * (hi.size - 1) <= p - 1 < b * hi.size


# (rows, cols, block, rows a block sums, block sums added into column 0)
PHASE_GRIDS = [
    (30, 5, 1, 1, 30),  # one entry a block
    (30, 5, 7, 1, 30),  # one row of 5 columns a block
    (30, 5, 64, 12, 3),  # 12 rows of 5 columns, the last block 6 rows
    (30, 100, 64, 1, 30),  # one row of 64 columns a block, then of 36
    (1, 9, 7, 1, 1),
    (0, 5, 7, 1, 0),  # no rows: every sum is 0
    (30, 0, 7, 1, 0),  # no columns: no sums
]


@pytest.mark.parametrize("p", [1009, 9999991])
@pytest.mark.parametrize("nr,nc,block,height,adds", PHASE_GRIDS)
def test_phase_sums_against_np_exp(p, nr, nc, block, height, adds):
    rng = np.random.default_rng(nr * nc + block)
    rows, cols = (rng.integers(0, p, size=n, dtype=np.int64) for n in (nr, nc))
    sums, got_height, got_adds = phase_sums(rows, cols, p, block)
    want = np.exp(2j * np.pi * (rows[:, None] * cols % p) / p).sum(axis=0)
    assert sums.shape == (nc,) and (got_height, got_adds) == (height, adds)
    assert np.all(np.abs(sums - want) <= 1e-13 * max(nr, 1))


class TestMaxSum:
    def test_full_group(self):
        a_star, value = max_sum(all_sums(subgroup_of_order(13, 12)))
        assert a_star == 1
        assert abs(value - 1.0) < 1e-9

    def test_quadratic_residues_p13(self):
        a_star, value = max_sum(all_sums(subgroup_of_order(13, 6)))
        # the maximum is (sqrt(13)+1)/2, attained at the non-residues
        assert abs(abs(2 * value - 1) - math.sqrt(13)) < 1e-9 or abs(
            abs(2 * value + 1) - math.sqrt(13)
        ) < 1e-9
        assert a_star == 2  # smallest quadratic non-residue mod 13

    def test_brute_force_small(self):
        sub = subgroup_of_order(13, 3)
        mags = [abs(subgroup_sum(a, sub.elements, 13)) for a in range(1, 13)]
        a_star, value = max_sum(all_sums(sub))
        assert value == pytest.approx(max(mags), abs=1e-12)
        # magnitudes are exactly equal on cosets, so the smallest attaining
        # residue must be compared up to the oracle's last-ulp noise
        smallest_attaining = next(i + 1 for i, m in enumerate(mags) if m >= max(mags) - 1e-9)
        assert a_star == smallest_attaining

    def test_parseval_pigeonhole_lower_bound(self):
        p, h = 1009, 48
        _, value = max_sum(all_sums(subgroup_of_order(p, h)))
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


def interval_sum(a, interval, table):
    """The double sum over the interval at a, from the interval's profile."""
    return interval_subgroup_sum(a, j_count(interval, table), table)


class TestIntervalSubgroupSum:
    def test_zero_hit_gives_order(self):
        sub = subgroup_of_order(13, 3)
        # interval {13} == {0 mod p}
        assert interval_sum(5, Interval(12, 1), all_sums(sub)) == pytest.approx(3.0, abs=1e-9)

    def test_full_interval_full_group(self):
        sub = subgroup_of_order(13, 12)
        value = interval_sum(1, Interval(0, 12), all_sums(sub))
        assert value == pytest.approx(12.0, abs=1e-8)

    def test_rejects_zero_a(self):
        with pytest.raises(InputError):
            interval_sum(13, Interval(0, 3), all_sums(subgroup_of_order(13, 3)))

    def test_table_equals_magnitude_prefix_sum(self):
        sub = subgroup_of_order(101, 10)
        table = all_sums(sub)
        value = interval_sum(1, Interval(0, 10), table)
        assert value == pytest.approx(float(np.sum(magnitudes(table)[1:11])), abs=1e-9)

    def test_table_and_direct_agree(self):
        sub = subgroup_of_order(101, 10)
        table = all_sums(sub)
        for a, start, length in [(1, 0, 10), (7, 50, 33), (100, 90, 20)]:
            iv = Interval(start, length)
            via_table = interval_sum(a, iv, table)
            direct = math.fsum(abs(subgroup_sum(a * int(n), sub.elements, 101)) for n in iv.residues(101))
            assert abs(via_table - direct) <= 1e-5 * max(direct, 1.0)


class TestCorrelate:
    # M = 1, 2, 3 and 17, just above 2^4: 2M - 1 = 33 pads to n = 64
    @pytest.mark.parametrize("p,h", [(13, 12), (13, 6), (13, 4), (103, 6)])
    @pytest.mark.parametrize("magnitudes", [False, True])
    def test_against_direct_correlation(self, p, h, magnitudes):
        table = all_sums(subgroup_of_order(p, h))
        m = table.eta.size
        assert m == (p - 1) // h
        assert table.padded_length == 1 << math.ceil(math.log2(2 * m - 1))
        rng = np.random.default_rng(m)
        f = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = table.coset_magnitudes if magnitudes else table.eta
        # the O(M^2) sum over j of conj(f[j]) * v[(j + k) mod M]
        direct = [sum(f[j].conjugate() * v[(j + k) % m] for j in range(m)) for k in range(m)]
        got = table.correlate(f, magnitudes=magnitudes)
        assert got.shape == (m,)
        assert np.max(np.abs(got - direct)) <= 1e-13 * h * float(np.sum(np.abs(f)))
        # the periods' spectrum is kept; the magnitudes' is not
        assert ("spectrum" in vars(table)) != magnitudes
        if not magnitudes:
            spectrum = table.spectrum
            table.correlate(f)
            assert table.spectrum is spectrum and spectrum.size == table.padded_length


@pytest.mark.parametrize("p,h", [(101, 10), (16111, 18), (9999991, 90)])
def test_real_periods_give_the_bits_of_complex_ones(p, h, monkeypatch):
    """A complex128 copy of the real periods of an even H gives the same
    spectrum, correlation and counts, bit for bit, on both count routes: the
    transform casts a real input to complex with zero imaginary parts, and
    the product of two real periods is the real part of their complex one."""
    real = all_sums(subgroup_of_order(p, h))
    assert real.eta.dtype == np.float64
    copy = dataclasses.replace(real, eta=real.eta.astype(np.complex128))
    assert real.spectrum.tobytes() == copy.spectrum.tobytes()
    squares = (t.correlate(t.eta * t.eta) for t in (real, copy))
    assert next(squares).tobytes() == next(squares).tobytes()
    for lookups in (True, False):
        monkeypatch.setattr(SumTable, "direct_is_cheaper", lambda self, *a, _l=lookups, **k: _l)
        for m in (2, 3, None):
            got = [difference_counts(t) if m is None else representation_counts(t, m) for t in (real, copy)]
            assert got[0].per_coset.tobytes() == got[1].per_coset.tobytes()
            assert got[0].at_zero == got[1].at_zero


# (p, H, lookups, adds, whether the direct route is cheaper), each timed both ways
COST_RULE_CASES = [
    (200029, 158, 158**2, 0, False),  # r_3: 5.2 ms by lookups, 0.52 ms by transform
    (9999991, 99, 99**2, 0, True),  # r_3: 2.6 ms against 13 ms
    (9999991, 1111110, 1111110, 0, False),  # differences: 175 ms against 0.04 ms
    (20000003, 22, 22**2, 0, True),  # r_3: 1.8 ms against 282 ms
    (20000003, 22, 0, 81 * 909091, True),  # stage 2, |X| = 81: 49 ms against 326 ms
    (20000003, 22, 0, 600 * 909091, False),  # stage 3 at |X| = |Y| = 300: 361 ms against 221 ms
]


@pytest.mark.parametrize("p,h,lookups,adds,direct", COST_RULE_CASES)
def test_cost_rule_picks_the_faster_route(p, h, lookups, adds, direct):
    # the rule reads only the number of cosets of the table and the work it is given
    m = (p - 1) // h
    table = SumTable(p, h, np.zeros(m), np.zeros(m, dtype=np.complex128), None, 0.0)
    assert table.direct_is_cheaper(lookups=lookups, adds=adds) == direct


def test_max_sum_allocates_nothing_of_length_p():
    """The sum maximum at p ~ 10^7 holds O(M + sqrt(p)) memory: no per-residue
    array."""
    p, h = 9999991, 99
    tracemalloc.start()
    try:
        sub = subgroup_of_order(p, h)
        max_sum(all_sums(sub))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * ((p - 1) // h) + 2**21


@pytest.mark.parametrize("p,h", [(2800001, 1400000), (9999991, 1111110)])
def test_periods_within_the_stored_error(p, h):
    """The first and last periods lie within the table's period_error of S_a.
    single_sum is itself within 30*u*H of S_a: each angle carries three
    roundings (at most 6*pi*u), its cosine and sine an ulp, and math.fsum
    rounds once."""
    sub = subgroup_of_order(p, h)
    table = all_sums(sub)
    tol = table.period_error + 30 * 2.0**-53 * h
    for j in (0, sub.cosets - 1):
        s = single_sum(int(sub.reps[j]), sub)
        assert abs(table.eta[j] - s) <= tol, j
        assert abs(table.coset_magnitudes[j] - abs(s)) <= tol, j
