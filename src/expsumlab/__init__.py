"""Verification and exploration laboratory for exponential sums over
multiplicative subgroups of prime fields.

Computes S_a over a subgroup (one Gaussian period per multiplicative coset,
read off a single discrete-log coset index), interval-weighted double sums,
exact additive energies and product-collision counts evaluated once per
coset, every closed-form bound with exact rational exponents, and the
dyadic pigeonhole cascade with its deterministic inequality chain.
"""

from . import bounds
from .energy import (
    DifferenceProfile,
    EnergyProfile,
    IntervalProductProfile,
    brute_force_T,
    difference_counts,
    energy_via_moments,
    j_count,
    moment_error_bound,
    representation_counts,
)
from .errors import InputError, ResourceError
from .expsum import (
    Interval,
    SumTable,
    all_sums,
    interval_subgroup_sum,
    max_sum,
    single_sum,
)
from .field import PrimeModulus, divisors, factorize, is_prime, mod_pow, primitive_root
from .prooftrace import (
    Cascade,
    CheckResult,
    EmptyTraceError,
    StageResult,
    TraceResult,
    TraceSets,
    build_trace,
    check_energy_cardinality,
    dyadic_stage,
    moment_inequality_check,
    trilinear_eval,
)
from .subgroup import CosetIndex, Subgroup, subgroup_of_order

__version__ = "0.1.0"

__all__ = [
    "bounds",
    "DifferenceProfile",
    "EnergyProfile",
    "IntervalProductProfile",
    "brute_force_T",
    "difference_counts",
    "energy_via_moments",
    "j_count",
    "moment_error_bound",
    "representation_counts",
    "InputError",
    "ResourceError",
    "Interval",
    "SumTable",
    "all_sums",
    "interval_subgroup_sum",
    "max_sum",
    "single_sum",
    "PrimeModulus",
    "divisors",
    "factorize",
    "is_prime",
    "mod_pow",
    "primitive_root",
    "Cascade",
    "CheckResult",
    "EmptyTraceError",
    "StageResult",
    "TraceResult",
    "TraceSets",
    "build_trace",
    "check_energy_cardinality",
    "dyadic_stage",
    "moment_inequality_check",
    "trilinear_eval",
    "CosetIndex",
    "Subgroup",
    "subgroup_of_order",
]
