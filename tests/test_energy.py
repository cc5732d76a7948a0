import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import (
    CosetProfile,
    Interval,
    ResourceError,
    SumTable,
    all_sums,
    difference_counts,
    divisors,
    energy_via_moments,
    interval_subgroup_sum,
    j_count,
    moment_error_bound,
    representation_counts,
    subgroup_of_order,
)
from expsumlab import energy, is_prime
from expsumlab.energy import _period_correlation, correlation_error_bound
from expsumlab.expsum import PHASE_ERROR, phase_tables
from expsumlab.cli import EXIT_BUDGET, main
from oracles import (
    brute_force_T,
    coset_labels,
    cyclotomic_counts,
    cyclotomic_r3,
    double_sum,
    fold_counts,
    indicator,
    quadruple_loop_j,
    spread,
    tuple_count_T,
)


def counts(prof):
    """The profile's count at every residue, spread from its per-coset counts."""
    return spread(prof.sub, prof.per_coset, prof.at_zero)


class TestCosetProfile:
    # the bound on size * max^2 below which the squares are summed in int64
    TOP = math.isqrt((2**63 - 1) // 4)

    @pytest.mark.parametrize(
        "per_coset, int64",
        [([TOP] * 4, True), ([TOP, 0, TOP - 1, 5], True), ([TOP + 1] * 4, False), ([3 * 10**9] * 4, False)],
    )
    def test_energy_exact_on_both_sides_of_the_int64_bound(self, monkeypatch, per_coset, int64):
        sub = subgroup_of_order(13, 3)  # 4 cosets of 3 residues
        dots = []
        real = np.dot

        def dot(*args):
            dots.append(args)
            return real(*args)

        monkeypatch.setattr(np, "dot", dot)
        prof = CosetProfile(np.array(per_coset, dtype=np.int64), 6, sub)
        assert prof.energy == 36 + 3 * sum(c * c for c in per_coset)
        assert len(dots) == int64
        assert (4 * max(per_coset) ** 2 < 2**63) == int64


class TestRepresentationCounts:
    def test_m1_is_indicator(self):
        sub = subgroup_of_order(13, 3)
        prof = representation_counts(all_sums(sub), 1)
        assert np.array_equal(counts(prof), indicator(sub))
        assert prof.energy == 3

    def test_pair_subgroup_m2(self):
        # H = {1, p-1}: r2(2) = 1, r2(0) = 2, r2(p-2) = 1, T2 = 6
        sub = subgroup_of_order(13, 2)
        prof = representation_counts(all_sums(sub), 2)
        expected = np.zeros(13, dtype=np.int64)
        expected[2], expected[0], expected[11] = 1, 2, 1
        assert np.array_equal(counts(prof), expected)
        assert prof.energy == 6

    def test_trivial_subgroup(self):
        assert representation_counts(all_sums(subgroup_of_order(13, 1)), 2).energy == 1

    @pytest.mark.parametrize("p,h,m", [(13, 3, 2), (13, 3, 3), (31, 6, 2), (101, 10, 3)])
    def test_count_sums_and_invariance(self, p, h, m):
        sub = subgroup_of_order(p, h)
        prof = representation_counts(all_sums(sub), m)
        rm = counts(prof)
        assert int(rm.sum()) == h**m
        # multiplicative invariance r_m(h * lam) = r_m(lam), all lam, all h
        lam = np.arange(p, dtype=np.int64)
        for x in sub.elements:
            assert np.array_equal(rm[(int(x) * lam) % p], rm)

    def test_energy_bounds(self):
        sub = subgroup_of_order(101, 10)
        for m in (1, 2, 3):
            t = representation_counts(all_sums(sub), m).energy
            assert 10**m <= t <= 10 ** (2 * m)
            assert t >= 10 ** (2 * m) // 101

    def test_overflow_guard(self):
        sub = subgroup_of_order(13, 2)
        with pytest.raises(ResourceError):
            representation_counts(all_sums(sub), 70)  # 2^140 > 2^127


class TestDifferenceCounts:
    @pytest.mark.parametrize("p,h", [(13, 3), (101, 10), (1009, 48)])
    def test_square_sum_is_t2(self, p, h):
        sub = subgroup_of_order(p, h)
        prof = difference_counts(all_sums(sub))
        rd = counts(prof)
        assert int(rd.sum()) == h * h
        assert rd[0] == prof.at_zero == h
        r2 = representation_counts(all_sums(sub), 2)
        assert int(np.dot(rd, rd)) == prof.energy == r2.energy
        # -1 lies in a subgroup of even order, so h1 - h2 runs over the sums h1 + h2
        assert np.array_equal(counts(r2), rd) == (h % 2 == 0)


def profiles(table):
    """(name, m, profile, f) for r_1, r_2, r_3 and the difference counts of
    the table, with f the powers of the periods their correlation runs on."""
    f = table.eta
    out = []
    for m in (1, 2, 3):
        out.append((f"r_{m}", m, representation_counts(table, m), f))
        f = f * table.eta
    return out + [("difference", 2, difference_counts(table), table.coset_magnitudes**2)]


class TestCorrelationRoute:
    def test_every_small_field_against_oracle_folds(self):
        # every prime p < 300 and every H | p - 1, odd H and H = 1, p - 1 included
        for p in (n for n in range(3, 300) if is_prime(n)):
            for h in divisors(p - 1):
                sub = subgroup_of_order(p, h)
                elems = [int(v) for v in sub.elements]
                for name, m, prof, _ in profiles(all_sums(sub)):
                    want = fold_counts(p, elems, m, -1 if name == "difference" else 1)
                    assert np.array_equal(counts(prof), want), (p, h, name)
                    assert prof.energy == int(np.dot(want, want)), (p, h, name)
                    if name == "difference":
                        continue
                    if h**m <= 20000:
                        assert prof.energy == tuple_count_T(elems, p, m), (p, h, m)
                    if h ** (2 * m) <= 10**6:
                        assert prof.energy == brute_force_T(sub, m), (p, h, m)

    def test_lookup_and_transform_routes_agree_every_small_field(self):
        # each route called directly, at every prime p < 300 and every H | p - 1:
        # r_2, r_3 and the difference counts equal the cyclotomic oracles, whose
        # coset labels are their own, and so each other, energies included
        for p in (n for n in range(3, 300) if is_prime(n)):
            for h in divisors(p - 1):
                sub = subgroup_of_order(p, h)
                table = all_sums(sub)
                root, elems = sub.root, sub.elements
                for m, sign, want in (
                    (2, 1, cyclotomic_counts(p, root, elems)),
                    (2, -1, cyclotomic_counts(p, root, elems, -1)),
                    (3, 1, cyclotomic_r3(p, root, elems)),
                ):
                    energies = set()
                    for route in (energy._lookup_counts, energy._transform_counts):
                        per_coset, at_zero = route(table, m, sign)
                        assert np.array_equal(np.append(per_coset, at_zero), want), (
                            p, h, m, sign, route.__name__
                        )
                        energies.add(CosetProfile(per_coset, at_zero, sub).energy)
                    assert len(energies) == 1, (p, h, m, sign)

    @pytest.mark.parametrize("p,h", [(1009, 21), (1009, 48), (4003, 23), (13, 12)])
    def test_refused_where_the_bound_is_not_below_one_half(self, monkeypatch, capsys, p, h):
        # a bound at 1/2 certifies no rounding: the transform route, and the energy
        # command, whose r_3 takes it at these orders, refuse with the bound in the
        # message, and no T_m is printed
        table = all_sums(subgroup_of_order(p, h))
        assert not table.direct_is_cheaper(lookups=h * h)
        monkeypatch.setattr(energy, "correlation_error_bound", lambda table, m: 0.5)
        for m, sign in ((1, 1), (2, 1), (3, 1), (2, -1)):
            with pytest.raises(ResourceError, match="within 0.5"):
                energy._transform_counts(table, m, sign)
        assert main(["energy", "--prime", str(p), "--order", str(h), "--m", "3"]) == EXIT_BUDGET
        out, err = capsys.readouterr()
        assert "within 0.5" in err and "T_" not in out

    def test_cyclotomic_oracle_against_folds_every_small_field(self):
        for p in (n for n in range(3, 120) if is_prime(n)):
            for h in divisors(p - 1):
                sub = subgroup_of_order(p, h)
                root, elems = sub.root, [int(v) for v in sub.elements]
                labels = coset_labels(p, root, h)
                for sign in (1, -1):
                    want = fold_counts(p, elems, 2, sign)
                    assert np.array_equal(cyclotomic_counts(p, root, elems, sign)[labels], want)
                want = fold_counts(p, elems, 3)
                assert np.array_equal(cyclotomic_r3(p, root, elems)[labels], want), (p, h)

    def test_large_order_against_the_cyclotomic_oracle(self):
        # H = 1400000, M = 2: the certified correlation answers r_2, r_3 and the
        # difference counts, and each equals the cyclotomic oracle
        p, h = 2800001, 1400000
        sub = subgroup_of_order(p, h)
        table = all_sums(sub)
        root = sub.root
        assert correlation_error_bound(table, 3) < 0.5
        for prof, want in (
            (representation_counts(table, 2), cyclotomic_counts(p, root, sub.elements)),
            (difference_counts(table), cyclotomic_counts(p, root, sub.elements, -1)),
            (representation_counts(table, 3), cyclotomic_r3(p, root, sub.elements)),
        ):
            assert np.array_equal(np.append(prof.per_coset, prof.at_zero), want)


class TestCorrelationErrorBound:
    # the largest observed distance over these fields is 0.0144 of the bound
    FRACTION = 0.05

    @pytest.mark.parametrize("p", [13, 101, 257, 1009, 16111])
    def test_observed_distance_within_a_fraction_of_the_bound(self, p):
        for h in divisors(p - 1):
            table = all_sums(subgroup_of_order(p, h))
            for name, m, prof, f in profiles(table):
                values, zero = _period_correlation(table, f, m)
                dist = max(np.max(np.abs(values - prof.per_coset)), abs(zero - prof.at_zero / h))
                bound = correlation_error_bound(table, m)
                assert bound < 0.5 and dist <= self.FRACTION * bound, (p, h, name, dist / bound)

    @pytest.mark.parametrize("cosets", [1, 2, 3, 17, 1000, 4097])
    def test_fft_term_covers_numpy_transforms(self, cosets):
        # integer inputs have an exact correlation; the padded FFT stays within
        # its stated term, 2 * FFT_ERROR * (log2 n + 1) * u * |f|_2 |g|_1 + u |f|_2 |g|_2
        a, b, c, d = np.random.default_rng(cosets).integers(-1000, 1001, (4, cosets))
        f, g = a + 1j * b, c + 1j * d
        table = SumTable(1, 0, np.abs(g), g, None, 0.0)  # H = 0 and p = 1 leave the bare correlation
        values, _ = _period_correlation(table, f, 1)
        # the real part of sum over j of f[j] * conj(g[j + k]), in int64
        exact = np.array([a @ np.roll(c, -k) + b @ np.roll(d, -k) for k in range(cosets)])
        n = 1 << (2 * cosets - 2).bit_length()
        u, norm_f = 2.0**-53, float(np.linalg.norm(f))
        term = 2 * energy.FFT_ERROR * (np.log2(n) + 1) * u * norm_f * float(np.sum(np.abs(g)))
        term += u * norm_f * float(np.linalg.norm(g))
        assert float(np.max(np.abs(values - exact))) <= term

    @pytest.mark.parametrize("p,h", [(9999991, 1999998), (9415837, 2353959)])
    def test_bound_below_one_half_at_the_largest_orders(self, p, h):
        assert correlation_error_bound(all_sums(subgroup_of_order(p, h)), 3) < 0.5

    @pytest.mark.parametrize("p,h", [(101, 10), (1009, 21), (16111, 18)])
    def test_period_perturbed_past_the_bound_is_refused(self, p, h):
        # moving one period by 4p times the bound moves the count at 0 by 4 bounds
        table = all_sums(subgroup_of_order(p, h))
        exact = representation_counts(table, 1)
        eta = table.eta.copy()
        eta[0] += 4 * p * correlation_error_bound(table, 1)
        bad = dataclasses.replace(table, eta=eta, coset_magnitudes=np.abs(eta))
        values, zero = _period_correlation(bad, bad.eta, 1)
        dist = max(np.max(np.abs(values - exact.per_coset)), abs(zero - exact.at_zero / h))
        assert dist > correlation_error_bound(bad, 1)


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
        assert abs(moment - representation_counts(all_sums(sub), 3).energy) < 0.5


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
                t_m = representation_counts(table, m).energy
                moment = energy_via_moments(table, m)
                bound = moment_error_bound(table, m, moment)
                assert abs(Fraction(moment) - t_m) <= bound, (p, h, m)
                if bound < 0.5:
                    for guess in (t_m - 1, t_m, t_m + 1):
                        within = abs(Fraction(moment) - guess) <= bound
                        assert within == (round(moment) == guess), (p, h, m, guess)

    def test_bound_grows_past_float_spacing(self):
        # p * T_2 > 2^53: rounding cannot confirm T_2, the bound still covers it
        sub = subgroup_of_order(1000003, 500001)
        table = all_sums(sub)
        t_2 = representation_counts(table, 2).energy
        moment = energy_via_moments(table, 2)
        bound = moment_error_bound(table, 2, moment)
        assert round(moment) != t_2
        assert 0.5 < abs(Fraction(moment) - t_2) <= bound < 1e-10 * t_2

    def test_bound_holds_above_a_million_cosets(self):
        # M = 1000001 cosets: the bound covers np.sum's pairwise sum of a million powers
        sub = subgroup_of_order(2000003, 2)
        table = all_sums(sub)
        assert table.coset_magnitudes.size == 1000001
        for m, t_m in ((2, 6), (3, 20)):
            moment = energy_via_moments(table, m)
            bound = moment_error_bound(table, m, moment)
            assert abs(Fraction(moment) - t_m) <= bound, m


class TestBruteForce:
    def test_trivial_cases(self):
        assert brute_force_T(subgroup_of_order(13, 3), 1) == 3
        assert brute_force_T(subgroup_of_order(13, 1), 3) == 1

    def test_matches_convolution(self):
        sub = subgroup_of_order(13, 3)
        assert brute_force_T(sub, 2) == representation_counts(all_sums(sub), 2).energy
        assert brute_force_T(sub, 3) == representation_counts(all_sums(sub), 3).energy

    def test_matches_independent_counter(self):
        sub = subgroup_of_order(31, 6)
        assert brute_force_T(sub, 2) == tuple_count_T(sub.elements, 31, 2)

    def test_budget(self):
        with pytest.raises(ResourceError):
            brute_force_T(subgroup_of_order(1009, 1008), 3)


class TestJCount:
    def test_single_residue_interval(self):
        sub = subgroup_of_order(13, 3)
        assert j_count(Interval(0, 1), all_sums(sub)).energy == 3

    def test_trivial_subgroup(self):
        sub = subgroup_of_order(13, 1)
        for n in (1, 5, 13):
            assert j_count(Interval(0, n), all_sums(sub)).energy == n

    def test_counts_sum(self):
        sub = subgroup_of_order(101, 10)
        prof = j_count(Interval(3, 17), all_sums(sub))
        assert int(counts(prof).sum()) == 17 * 10
        assert prof.energy >= 17 * 10

    def test_quadruple_loop_oracle(self):
        sub = subgroup_of_order(101, 10)
        iv = Interval(0, 10)
        expected = quadruple_loop_j([int(v) for v in iv.residues(101)], [int(v) for v in sub.elements], 101)
        assert j_count(iv, all_sums(sub)).energy == expected


def test_interval_sum_matches_the_double_sum_oracle():
    """At one a of every coset, for every p < 300 and every H, the dot product
    of the interval's profile with the magnitudes is the O(NH) double sum, on
    two seeded intervals per case, the second containing 0."""
    rng = np.random.default_rng(299)
    for p in (q for q in range(3, 300, 2) if is_prime(q)):
        for h in divisors(p - 1):
            sub = subgroup_of_order(p, h)
            table = all_sums(sub)
            n_len = int(rng.integers(1, min(p, 16) + 1))
            for start in (int(rng.integers(p)), p - int(rng.integers(1, n_len + 1))):
                prof = j_count(Interval(start, n_len), table)
                for a in map(int, sub.reps):
                    got = interval_subgroup_sum(a, prof, table)
                    want = double_sum(a, start, n_len, sub.elements, p)
                    assert abs(got - want) <= 1e-9 * n_len * h, (p, h, start, n_len, a)


@settings(max_examples=30)
@given(st.sampled_from([13, 31, 61, 101]), st.data())
def test_three_way_agreement_property(p, data):
    h = data.draw(st.sampled_from([d for d in divisors(p - 1) if d <= 10]))
    m = data.draw(st.sampled_from([2, 3]))
    sub = subgroup_of_order(p, h)
    t_conv = representation_counts(all_sums(sub), m).energy
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
                t_conv = representation_counts(table, m).energy
                assert brute_force_T(sub, m) == t_conv, (p, h, m)
                assert round(energy_via_moments(table, m)) == t_conv, (p, h, m)
