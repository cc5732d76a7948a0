"""Verification and exploration laboratory for exponential sums over
multiplicative subgroups of prime fields.

Computes S_a over a subgroup (one Gaussian period per multiplicative coset,
read off the subgroup's own discrete-log coset index), interval-weighted
double sums, exact additive energies and product-collision counts evaluated
once per coset, every closed-form bound with exact rational exponents, and the
dyadic pigeonhole cascade with its deterministic inequality chain.
"""

import importlib

# Public names by the module that defines them.  They are imported on first
# access (PEP 562), so `import expsumlab` loads no submodule and no numpy:
# `import expsumlab.cli` runs cli.py, which sets the BLAS thread default,
# before numpy is first imported.
_EXPORTS = {
    "energy": (
        "CosetProfile",
        "difference_counts",
        "energy_via_moments",
        "interval_subgroup_sum",
        "j_count",
        "moment_error_bound",
        "representation_counts",
    ),
    "errors": ("InputError", "ResourceError"),
    "expsum": (
        "Interval",
        "SumTable",
        "all_sums",
        "max_sum",
        "single_sum",
    ),
    "field": ("PrimeModulus", "divisors", "factorize", "is_prime", "primitive_root"),
    "prooftrace": (
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
    ),
    "subgroup": ("Subgroup", "subgroup_of_order"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = ["bounds", *_MODULE_OF]


def __getattr__(name: str):
    if name == "bounds":
        return importlib.import_module(".bounds", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
