import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsumlab import InputError
from expsumlab.bounds import (
    BoundParams,
    exponent_identity_suite,
    gamma,
    t2_energy_bound,
    t3_energy_bound,
    thm1_bound,
    thm1_in_range,
    thm2_bound,
    thm3_bound,
    trilinear_bound,
)


def mp_gamma(p, N, H):
    with mpmath.workdps(40):
        v = 1 + mpmath.mpf(H) / N + mpmath.mpf(N) * H / p + mpmath.mpf(H) ** mpmath.mpf(
            "0.75"
        ) / mpmath.mpf(p) ** mpmath.mpf("0.25")
        return float(v)


class TestGamma:
    def test_small_case_against_high_precision(self):
        assert gamma(101, 10, 10) == pytest.approx(mp_gamma(101, 10, 10), rel=1e-12)
        assert gamma(101, 10, 10) == pytest.approx(4.764, abs=5e-3)

    def test_large_p_limit(self):
        v = gamma(10**12, 10**3, 10**3)
        assert v == pytest.approx(mp_gamma(10**12, 10**3, 10**3), rel=1e-12)
        assert 2.0 < v < 2.2  # 1 + H/N = 2 dominates

    def test_equal_n_h_second_term_is_one(self):
        p, n = 10**9, 777
        assert gamma(p, n, n) == pytest.approx(1 + 1 + n * n / p + n**0.75 / p**0.25, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            gamma(0, 1, 1)

    @settings(max_examples=100)
    @given(
        st.floats(min_value=2, max_value=1e12),
        st.floats(min_value=1, max_value=1e6),
        st.floats(min_value=1, max_value=1e6),
    )
    def test_at_least_one(self, p, n, h):
        assert gamma(p, n, h) >= 1.0


class TestClosedFormBounds:
    def test_thm1_value(self):
        with mpmath.workdps(40):
            expected = float(
                mpmath.mpf(48) ** (mpmath.mpf(2689) / 2880) * mpmath.mpf(1009) ** (mpmath.mpf(1) / 72)
            )
        assert thm1_bound(1009, 48) == pytest.approx(expected, rel=1e-12)
        assert thm1_bound(1009, 48) > 0

    def test_thm1_range_flag(self):
        assert thm1_in_range(1009, 16)
        assert not thm1_in_range(1009, 5)
        assert not thm1_in_range(1009, 48)

    def test_thm1_reduction_at_quarter_exponent(self):
        # H = p^{1/4}: the bound collapses to H^{1 - 31/2880}
        p = 104729
        h = p**0.25
        assert thm1_bound(p, h) == pytest.approx(h ** float(1 - Fraction(31, 2880)), rel=1e-9)

    def test_thm2_value_and_triviality(self):
        v = thm2_bound(101, 10, 10)
        params = BoundParams.compute(101, 10, 10)
        expected = 100 * min(params.delta1 ** 0.25, params.delta2 ** (1 / 6))
        assert v == pytest.approx(expected, rel=1e-12)
        # N * H^3 < p makes the bound trivial (>= N*H)
        p, n, h = 10**8, 10, 10
        assert n * h**3 < p
        assert thm2_bound(p, n, h) >= n * h

    def test_thm3_value(self):
        params = BoundParams.compute(101, 10, 10)
        assert thm3_bound(101, 10, 10) == pytest.approx(
            100 * params.delta ** float(Fraction(1, 24)), rel=1e-12
        )

    def test_thm3_reduction_at_quarter(self):
        # N = H = p^{1/4} with gamma forced to 1: exponent 2 - 31/960
        p = 10**8
        h = p**0.25
        delta = p / (h * h ** float(3 + Fraction(31, 40)))
        bound = h * h * delta ** float(Fraction(1, 24))
        assert bound == pytest.approx(h ** float(2 - Fraction(31, 960)), rel=1e-9)

    def test_monotone_in_p(self):
        grid = [10**k for k in range(3, 13)]
        for n, h in [(10, 10), (100, 31), (1000, 17)]:
            t1 = [thm1_bound(p, h) for p in grid]
            t2 = [thm2_bound(p, n, h) for p in grid]
            t3 = [thm3_bound(p, n, h) for p in grid]
            g = [gamma(p, n, h) for p in grid]
            assert all(a <= b for a, b in zip(t1, t1[1:]))
            assert all(a <= b for a, b in zip(t2, t2[1:]))
            assert all(a <= b for a, b in zip(t3, t3[1:]))
            assert all(a >= b for a, b in zip(g, g[1:]))

    def test_rejects_nonpositive(self):
        for fn in (lambda: thm1_bound(-1, 3), lambda: thm2_bound(101, 0, 3), lambda: thm3_bound(101, 10, 0)):
            with pytest.raises(InputError):
                fn()


class TestLemmaBounds:
    def test_h2_log_entry(self):
        assert t3_energy_bound(2) == pytest.approx(16 * math.log(2), rel=1e-12)

    def test_h_below_two_not_applicable(self):
        assert t2_energy_bound(1) is None and t3_energy_bound(1) is None


class TestTrilinearBound:
    def test_unit_sizes(self):
        assert trilinear_bound(1, 1, 1, 81) == pytest.approx(81**0.25, rel=1e-12)

    def test_spec_example(self):
        assert trilinear_bound(16, 16, 16, 81) == pytest.approx(3 * 8 * 8 * 16**0.875, rel=1e-12)

    def test_zero_size(self):
        assert trilinear_bound(0, 5, 7, 101) == 0.0


class TestIdentitySuite:
    def test_all_pass(self):
        suite = exponent_identity_suite()
        assert all(c.passed for c in suite)

    def test_expected_names_present(self):
        names = {c.name for c in exponent_identity_suite()}
        assert {
            "single_sum_exponent_at_p_quarter",
            "cascade_double_sum_exponent_at_p_quarter",
            "energy_double_sum_exponent_at_p_third",
            "saving_ordering",
        } <= names

    def test_single_sum_reduction_detail(self):
        # (1/4)*(2689/2880) + 1/72 must reduce to (1/4)*(2849/2880) exactly
        assert Fraction(1, 4) * Fraction(2689, 2880) + Fraction(1, 72) == Fraction(2849, 11520)
        assert 1 - Fraction(31, 2880) == Fraction(2849, 2880)
