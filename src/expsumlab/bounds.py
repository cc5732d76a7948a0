"""Closed-form theoretical bounds and exact rational exponent identities.

All exponents are carried as `fractions.Fraction` and only converted to a
float for the final power call, so no rounding accumulates in the exponent
arithmetic.  Implied constants are never modeled: callers get raw bound
values and report empirical/theoretical ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

# Exponents of the single-sum bound max|S_a| <= H^u * p^v and its savings.
SINGLE_SUM_H_EXP = Fraction(2689, 2880)
SINGLE_SUM_P_EXP = Fraction(1, 72)
SINGLE_SUM_SAVING = Fraction(31, 2880)
PREVIOUS_SAVING = Fraction(175, 9437184)
INTERVAL_SAVING = Fraction(31, 960)

# H-exponents in the Delta factors of the two double-sum bounds.
DOUBLE_SUM_D1_H_EXP = 2 + Fraction(11, 20)
DOUBLE_SUM_D2_H_EXP = Fraction(3)
DOUBLE_SUM_CASCADE_H_EXP = 3 + Fraction(31, 40)

# Exponents of the energy lemmas T_2 <~ H^{49/20} log^{1/5} H, T_3 <~ H^4 log H.
T2_H_EXP = Fraction(49, 20)
T3_H_EXP = Fraction(4)

# N >= p^{89/480} is where the cascade double-sum bound starts beating
# N * (single-sum bound) at H ~ p^{1/4}.
IMPROVEMENT_THRESHOLD = Fraction(89, 480)

_THREE_QUARTERS = Fraction(3, 4)
_ONE_QUARTER = Fraction(1, 4)


def _powf(base: float, exp: Fraction | float) -> float:
    return float(base) ** float(exp)

def _require_positive(**kwargs: float) -> None:
    for name, value in kwargs.items():
        if not value > 0:
            raise InputError(f"{name} must be positive, got {value}")


def gamma(p: float, N: float, H: float) -> float:
    """1 + H/N + N*H/p + H^{3/4}/p^{1/4}."""
    _require_positive(p=p, N=N, H=H)
    return 1.0 + H / N + N * H / p + _powf(H, _THREE_QUARTERS) / _powf(p, _ONE_QUARTER)


@dataclass(frozen=True)
class BoundParams:
    """Gamma and the Delta factors entering the double-sum bounds."""

    p: float
    N: float
    H: float
    gamma: float
    delta1: float  # p * Gamma / (N * H^{2 + 11/20})
    delta2: float  # p * Gamma / (N * H^3)
    delta: float   # p * Gamma / (N * H^{3 + 31/40})

    @classmethod
    def compute(cls, p: float, N: float, H: float) -> "BoundParams":
        g = gamma(p, N, H)
        base = p * g / N
        return cls(
            p=p,
            N=N,
            H=H,
            gamma=g,
            delta1=base / _powf(H, DOUBLE_SUM_D1_H_EXP),
            delta2=base / _powf(H, DOUBLE_SUM_D2_H_EXP),
            delta=base / _powf(H, DOUBLE_SUM_CASCADE_H_EXP),
        )


def thm1_bound(p: float, H: float) -> float:
    """Single-sum bound H^{2689/2880} * p^{1/72} on max over a of |S_a|."""
    _require_positive(p=p, H=H)
    return _powf(H, SINGLE_SUM_H_EXP) * _powf(p, SINGLE_SUM_P_EXP)


def thm1_in_range(p: float, H: float) -> bool:
    """Whether p^{1/4} < H < p^{1/2}, the range the single-sum bound targets."""
    return _powf(p, Fraction(1, 4)) < H < _powf(p, Fraction(1, 2))


def thm2_bound(p: float, N: float, H: float) -> float:
    """Energy-route double-sum bound N*H * min(Delta1^{1/4}, Delta2^{1/6})."""
    params = BoundParams.compute(p, N, H)
    return N * H * min(
        _powf(params.delta1, Fraction(1, 4)), _powf(params.delta2, Fraction(1, 6))
    )


def thm3_bound(p: float, N: float, H: float) -> float:
    """Cascade-route double-sum bound N*H * Delta^{1/24}."""
    params = BoundParams.compute(p, N, H)
    return N * H * _powf(params.delta, Fraction(1, 24))


def t2_energy_bound(H: float) -> float | None:
    """H^{49/20} * log^{1/5} H; None when H < 2 (log term not meaningful)."""
    if H < 2:
        return None
    return _powf(H, T2_H_EXP) * _powf(math.log(H), Fraction(1, 5))


def t3_energy_bound(H: float) -> float | None:
    """H^4 * log H; None when H < 2."""
    if H < 2:
        return None
    return _powf(H, T3_H_EXP) * math.log(H)


def trilinear_bound(size_x: float, size_y: float, size_z: float, p: float) -> float:
    """p^{1/4} * |X|^{3/4} * |Y|^{3/4} * |Z|^{7/8}."""
    if min(size_x, size_y, size_z) < 0:
        raise InputError("set sizes must be non-negative")
    _require_positive(p=p)
    return (
        _powf(p, _ONE_QUARTER)
        * _powf(size_x, _THREE_QUARTERS)
        * _powf(size_y, _THREE_QUARTERS)
        * _powf(size_z, Fraction(7, 8))
    )


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str


def _single_sum_identity() -> IdentityCheck:
    # At H = p^{1/4} the p-exponent of the single-sum bound collapses to
    # (1/4) * (1 - 31/2880), i.e. the bound is H^{1 - 31/2880}.
    h = Fraction(1, 4)
    total = h * SINGLE_SUM_H_EXP + SINGLE_SUM_P_EXP
    expected = h * (1 - SINGLE_SUM_SAVING)
    return IdentityCheck(
        "single_sum_exponent_at_p_quarter",
        total == expected,
        f"(1/4)*(2689/2880) + 1/72 = {total} vs (1/4)*(1 - 31/2880) = {expected}",
    )


def _cascade_double_sum_identity() -> IdentityCheck:
    # N = H = p^{1/4}, gamma -> 1: exponent of the cascade bound is 2 - 31/960
    # in N.
    nu = Fraction(1, 4)
    delta_exp = 1 - nu - nu * DOUBLE_SUM_CASCADE_H_EXP
    total = 2 * nu + delta_exp * Fraction(1, 24)
    expected = nu * (2 - INTERVAL_SAVING)
    return IdentityCheck(
        "cascade_double_sum_exponent_at_p_quarter",
        total == expected,
        f"p-exponent {total} vs (1/4)*(2 - 31/960) = {expected}",
    )


def _energy_double_sum_identity() -> IdentityCheck:
    # N = H = p^{1/3}, gamma -> 1: the min picks the Delta2 branch and the
    # exponent is 2 - 1/6 in N.
    nu = Fraction(1, 3)
    d1 = (1 - nu - nu * DOUBLE_SUM_D1_H_EXP) * Fraction(1, 4)
    d2 = (1 - nu - nu * DOUBLE_SUM_D2_H_EXP) * Fraction(1, 6)
    total = 2 * nu + min(d1, d2)
    expected = nu * (2 - Fraction(1, 6))
    return IdentityCheck(
        "energy_double_sum_exponent_at_p_third",
        total == expected and d2 < d1,
        f"p-exponent {total} vs (1/3)*(2 - 1/6) = {expected}; min from Delta2 branch: {d2 < d1}",
    )


def _saving_order_identity() -> IdentityCheck:
    ok = INTERVAL_SAVING > SINGLE_SUM_SAVING > PREVIOUS_SAVING
    return IdentityCheck(
        "saving_ordering",
        ok,
        f"31/960 = {float(INTERVAL_SAVING):.3e} > 31/2880 = "
        f"{float(SINGLE_SUM_SAVING):.3e} > 175/9437184 = {float(PREVIOUS_SAVING):.3e}",
    )


def _improvement_threshold_identity() -> IdentityCheck:
    # With H = p^{1/4} and N = p^nu (nu < 1/4, so gamma ~ H/N), the cascade
    # bound matches N * H^{1 - 31/2880} exactly at nu = 89/480.  The
    # difference of the two p-exponents is linear in nu; solve via two points.
    h = Fraction(1, 4)

    def diff(nu: Fraction) -> Fraction:
        gamma_exp = h - nu
        delta_exp = 1 + gamma_exp - nu - h * DOUBLE_SUM_CASCADE_H_EXP
        cascade = nu + h + delta_exp * Fraction(1, 24)
        baseline = nu + h * (1 - SINGLE_SUM_SAVING)
        return cascade - baseline

    n0, n1 = Fraction(0), Fraction(1, 4)
    root = n0 - diff(n0) * (n1 - n0) / (diff(n1) - diff(n0))
    return IdentityCheck(
        "cascade_improvement_threshold",
        root == IMPROVEMENT_THRESHOLD,
        f"crossover at N = p^{root} vs expected p^{IMPROVEMENT_THRESHOLD}",
    )


def exponent_identity_suite() -> list[IdentityCheck]:
    """All exponent identities, verified in exact rational arithmetic."""
    return [
        _single_sum_identity(),
        _cascade_double_sum_identity(),
        _energy_double_sum_identity(),
        _saving_order_identity(),
        _improvement_threshold_identity(),
    ]
