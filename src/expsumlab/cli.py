"""Command line interface: sums, energies, case scans, traces, identities.

Exit codes: 0 success, 1 identity/assertion failure, 2 bad input,
3 resource budget exceeded.  A command refuses --prime first, then its own
arguments, then --order, so a bad argument builds no subgroup or table.
Primary output is byte-identical for the same inputs regardless of --threads
(independent per-case work, sorted emission, fixed summation orders).
"""

from __future__ import annotations

import argparse
import io
import json
import locale  # noqa: F401  every command's argparse parser needs it, through gettext
import math
import os
import statistics
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

# numpy's OpenBLAS starts a worker thread when numpy is imported, and it
# busy-waits beside the main thread through the import and into the command.
# expsumlab calls BLAS only for dot products of length-M vectors, which need
# no second thread, so a CLI process runs OpenBLAS on one thread unless the
# user has set the variable.
# This must run before numpy is first imported: the package __init__ imports
# nothing eagerly.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import bounds
from .energy import (
    difference_counts,
    energy_via_moments,
    interval_subgroup_sum,
    j_count,
    moment_error_bound,
    representation_counts,
)
from .errors import InputError, ResourceError
from .expsum import Interval, all_sums, max_sum, single_sum
from .field import PrimeModulus, divisors, is_prime
from .prooftrace import CheckResult, TraceResult, build_trace, moment_inequality_check
from .subgroup import subgroup_of_order

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3

CSV_HEADER = "p,H,N,L,a_star,max_abs_sum,thm1,thm2,thm3,ratio1,ratio2,ratio3,T2,T3,J,gamma"
CSV_FIELDS = CSV_HEADER.split(",")

JSON_SCHEMA_VERSION = 1

# Most odd p a scan window may hold: each is tested for primality and each
# prime's p - 1 factorized (about 10 us a candidate below 10^6).
SCAN_CANDIDATE_LIMIT = 10**6


@dataclass
class ScanConfig:
    """Case enumeration and budgets for the scan harness."""

    p_min: int
    p_max: int
    alpha_lo: float = 0.25
    alpha_hi: float = 0.5
    interval_start: int | None = None
    interval_length: int | None = None
    interval_power: float | None = None
    moments: tuple[int, ...] = ()
    threads: int = 1

    def __post_init__(self) -> None:
        if self.interval_start is not None and self.interval_length is self.interval_power is None:
            raise InputError("--interval-start needs --interval-length or --interval-power")
        if self.p_min > self.p_max:
            raise InputError(f"p_min {self.p_min} exceeds p_max {self.p_max}")
        if not 0 < self.alpha_lo <= self.alpha_hi <= 1:
            raise InputError("window must satisfy 0 < alpha_lo <= alpha_hi <= 1")
        if self.interval_length is not None and self.interval_length < 1:
            raise InputError(f"interval length must be in [1, p], got {self.interval_length}")
        if self.interval_length is not None and self.interval_power is not None:
            raise InputError("give --interval-length or --interval-power, not both")
        if self.interval_power is not None and not math.isfinite(self.interval_power):
            raise InputError(f"interval power must be finite, got {self.interval_power}")
        if self.threads < 1:
            raise InputError("thread count must be >= 1")
        for m in self.moments:
            if m not in (2, 3):
                raise InputError(f"moments must be 2 and/or 3, got {m}")


@dataclass
class FitResult:
    """Least-squares fit of log(max|S_a|/H) = -delta_hat * log H + intercept."""

    band: str
    delta_hat: float
    intercept: float
    residual_norm: float
    cases: int


def _enumerate_cases(config: ScanConfig) -> list[tuple[int, int]]:
    lo = max(3, config.p_min if config.p_min % 2 else config.p_min + 1)
    candidates = max(0, (config.p_max - lo) // 2 + 1)
    if candidates > SCAN_CANDIDATE_LIMIT:
        raise ResourceError(
            f"the window holds {candidates} odd p, above the scan limit {SCAN_CANDIDATE_LIMIT}"
        )
    cases = []
    for p in range(lo, config.p_max + 1, 2):
        if not is_prime(p):
            continue
        logp = math.log(p)
        for h in divisors(p - 1):
            if h < 2:
                continue
            ratio = math.log(h) / logp
            if config.alpha_lo <= ratio <= config.alpha_hi:
                cases.append((p, h))
    return cases


def _resolve_interval(config: ScanConfig, p: int) -> Interval | None:
    length = config.interval_length
    if config.interval_power is not None:
        # a power of 1 already gives the whole field; capping it keeps p^power finite
        length = max(1, round(p ** min(config.interval_power, 1.0)))
    if length is None:
        return None
    return Interval(start=config.interval_start or 0, length=length)


def _moment_check(table, m: int, energy: int) -> tuple[float, float, bool]:
    """The moment identity's value, its error bound, and whether the exact
    energy lies within that bound of it (the difference taken exactly)."""
    moment = energy_via_moments(table, m)
    bound = moment_error_bound(table, m, moment)
    return moment, bound, abs(Fraction(moment) - energy) <= bound


def _scan_case(args: tuple[int, int, ScanConfig]) -> dict:
    p, h, config = args
    row: dict = {key: None for key in CSV_FIELDS}
    row["p"], row["H"] = p, h
    row["error"] = None
    try:
        interval = _resolve_interval(config, p)
        if interval is not None:
            # an interval above p, or too long to list, is refused before the table is built
            interval.check_length(p)
        pm = PrimeModulus.from_int(p)
        sub = subgroup_of_order(pm, h)
        table = all_sums(sub)
        a_star, mx = max_sum(table)
        row["a_star"] = a_star
        row["max_abs_sum"] = mx
        t1 = bounds.thm1_bound(p, h)
        row["thm1"] = t1
        row["ratio1"] = mx / t1
        if interval is not None:
            n_len = interval.length
            row["N"], row["L"] = n_len, interval.start
            row["gamma"] = bounds.gamma(p, n_len, h)
            row["thm2"] = bounds.thm2_bound(p, n_len, h)
            row["thm3"] = bounds.thm3_bound(p, n_len, h)
            j_prof = j_count(interval, table)
            s_int = interval_subgroup_sum(a_star, j_prof, table)
            row["ratio2"] = s_int / row["thm2"]
            row["ratio3"] = s_int / row["thm3"]
            row["J"] = j_prof.energy
        for m in config.moments:
            prof = representation_counts(table, m)
            row[f"T{m}"] = prof.energy
            moment, bound, agrees = _moment_check(table, m, prof.energy)
            if not agrees:
                row["error"] = (
                    f"moment identity mismatch for m={m}: {moment!r} vs {prof.energy}"
                    f" (bound {bound:.3g})"
                )
    except (InputError, ResourceError) as exc:
        row["error"] = str(exc)
    return row


def _fit_band(rows: list[dict], band: str) -> FitResult | None:
    xs = [math.log(r["H"]) for r in rows]
    ys = [math.log(r["max_abs_sum"] / r["H"]) for r in rows]
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    slope, intercept = statistics.linear_regression(xs, ys)
    resid = math.sqrt(sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)))
    return FitResult(band, -slope, intercept, resid, len(xs))


def fit_scan_rows(rows: list[dict]) -> list[FitResult]:
    """Per-band and overall decay fits of the scan's maxima."""
    usable = [r for r in rows if r.get("max_abs_sum") and r["max_abs_sum"] > 0]
    fits = []
    bands: dict[int, list[dict]] = {}
    for r in usable:
        bands.setdefault(r["p"].bit_length() - 1, []).append(r)
    for k in sorted(bands):
        fit = _fit_band(bands[k], f"2^{k}<=p<2^{k + 1}")
        if fit is not None:
            fits.append(fit)
    overall = _fit_band(usable, "all")
    if overall is not None:
        fits.append(overall)
    return fits


def run_scan(config: ScanConfig) -> tuple[list[dict], list[FitResult]]:
    """Compute all scan rows (sorted by (p, H)) plus the exponent fits."""
    cases = _enumerate_cases(config)
    work = [(p, h, config) for p, h in cases]
    # the pool starts all its workers at the first submit: no more than cases
    workers = min(config.threads, len(work))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool pays for its import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(work) // (4 * workers))
            rows = list(pool.map(_scan_case, work, chunksize=chunk))
    else:
        rows = [_scan_case(item) for item in work]
    rows.sort(key=lambda r: (r["p"], r["H"]))
    return rows, fit_scan_rows(rows)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_scan_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(",".join(_format_cell(row[f]) for f in CSV_FIELDS) + "\n")
    return out.getvalue()


def render_scan_json(rows: list[dict], fits: list[FitResult]) -> str:
    doc = {
        "schema": JSON_SCHEMA_VERSION,
        "rows": [{k: row[k] for k in CSV_FIELDS + ["error"]} for row in rows],
        "fits": [vars(f) for f in fits],
    }
    return json.dumps(doc, indent=1) + "\n"


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_entry(c: CheckResult, exact: bool = True) -> dict:
    """A check as a trace document lists it; moment checks omit "exact"."""
    entry = {"name": c.name, "relation": c.relation, "lhs": c.lhs, "rhs": c.rhs}
    if exact:
        entry["exact"] = c.exact
    return entry | {"pass": c.passed, "note": c.note}


def trace_document(trace: TraceResult, moment_checks=()) -> dict:
    doc: dict = {
        "schema": JSON_SCHEMA_VERSION,
        "p": trace.p,
        "H": trace.order,
        "a": trace.a,
        "degenerate": trace.degenerate,
        "reason": trace.reason,
    }
    if trace.cascade is not None:
        doc["cascade"] = asdict(trace.cascade)
    if trace.sets is not None:
        s = trace.sets
        doc["sets"] = {
            "x_size": int(s.x.size),
            "y_size": int(s.y.size),
            "z_size": int(s.z.size),
            "g1": s.g1,
            "g2": s.g2,
            "g3": s.g3,
        }
    doc["checks"] = [_check_entry(c) for c in trace.checks]
    doc["reported"] = {k: v for k, v in trace.reported.items()}
    doc["trilinear"] = {
        "spectral_sum": trace.trilinear_sum,
        "direct_sum": trace.trilinear_direct,
        "bound_ratio": trace.trilinear_bound_ratio,
    }
    if moment_checks:
        doc["moment_checks"] = [_check_entry(c, exact=False) for c in moment_checks]
    return doc


def cmd_sum(args) -> int:
    sub = subgroup_of_order(PrimeModulus.from_int(args.prime), args.order)
    p, h = sub.p, sub.order
    if args.a is not None:
        a = args.a % p
        label = f"|S_{a}|"
        value = abs(single_sum(a, sub))
    else:
        a, value = max_sum(all_sums(sub))
        label = f"max over a of |S_a| (a* = {a})"
    t1 = bounds.thm1_bound(p, h)
    marker = "in-range" if bounds.thm1_in_range(p, h) else "out-of-range"
    print(f"p = {p}  H = {h}")
    print(f"{label} = {value!r}")
    print(f"thm1 = {t1!r}  ratio = {value / t1!r}  ({marker}: p^(1/4) < H < p^(1/2))")
    return EXIT_OK


def cmd_energy(args) -> int:
    pm = PrimeModulus.from_int(args.prime)
    if args.m not in (1, 2, 3):
        raise InputError(f"m must be 1, 2 or 3, got {args.m}")
    sub = subgroup_of_order(pm, args.order)
    p, h = sub.p, sub.order
    table = all_sums(sub)
    prof = representation_counts(table, args.m)
    moment, bound, agrees = _moment_check(table, args.m, prof.energy)
    print(f"p = {p}  H = {h}  m = {args.m}")
    print(f"T_{args.m} = {prof.energy}")
    print(
        f"moment identity p^-1 * sum |S_a|^(2m) = {moment!r}  "
        f"within {bound:.3g} of T_{args.m}: {agrees}"
    )
    if args.m in (2, 3):
        b = bounds.t2_energy_bound(h) if args.m == 2 else bounds.t3_energy_bound(h)
        label = "H^(49/20) log^(1/5) H" if args.m == 2 else "H^4 log H"
        # the energy bound assumes H < sqrt(p); log ratios below 1 only distort
        applicable = b is not None and math.log(h) >= 1.0 and h * h < p
        ratio = prof.energy / b if applicable else None
        print(f"ratio T_{args.m} / ({label}) = {_format_cell(ratio) or 'n/a'}")
    return EXIT_OK if agrees else EXIT_CHECK_FAILED


def cmd_scan(args) -> int:
    try:
        moments = tuple(int(v) for v in args.m.split(",") if v)
    except ValueError:
        raise InputError(f"--m must be a comma list of integers, got {args.m!r}") from None
    config = ScanConfig(
        p_min=args.p_min,
        p_max=args.p_max,
        alpha_lo=args.alpha_lo,
        alpha_hi=args.alpha_hi,
        interval_start=args.interval_start,
        interval_length=args.interval_length,
        interval_power=args.interval_power,
        moments=moments,
        threads=args.threads,
    )
    rows, fits = run_scan(config)
    if not rows:
        print("warning: no (p, H) case matches the window", file=sys.stderr)
    if args.format == "csv":
        _write_output(render_scan_csv(rows), args.output)
        for f in fits:
            print(
                f"# fit band={f.band} delta_hat={f.delta_hat!r} intercept={f.intercept!r} "
                f"residual={f.residual_norm!r} cases={f.cases}",
                file=sys.stderr,
            )
    else:
        _write_output(render_scan_json(rows, fits), args.output)
    failures = [r for r in rows if r["error"]]
    for r in failures:
        print(f"warning: case p={r['p']} H={r['H']}: {r['error']}", file=sys.stderr)
    if rows and len(failures) == len(rows):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_trace(args) -> int:
    pm = PrimeModulus.from_int(args.prime)
    if args.a is not None and args.a % pm.p == 0:
        raise InputError("a must be nonzero mod p")
    interval = diffs = r3 = j_prof = None
    if args.interval_length is not None:
        interval = Interval(start=args.interval_start or 0, length=args.interval_length)
        interval.check_length(pm.p)
    elif args.interval_start is not None:
        raise InputError("--interval-start needs --interval-length")
    table = all_sums(subgroup_of_order(pm, args.order))
    if interval is not None:
        j_prof = j_count(interval, table)
        diffs = difference_counts(table)
        r3 = representation_counts(table, 3)
    # the table goes positionally: perfbench/layers.py reads p from the first argument
    trace = build_trace(table, a=args.a, diffs=diffs, r3=r3)
    moment_checks = []
    if interval is not None:
        for m, r_m in ((2, diffs), (3, r3)):
            moment_checks.append(moment_inequality_check(table, trace.a, m, r_m.energy, j_prof))
    doc = trace_document(trace, moment_checks)
    _write_output(json.dumps(doc, indent=1) + "\n", args.output)
    ok = trace.degenerate or (trace.all_passed and all(c.passed for c in moment_checks))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_identities(args) -> int:
    suite = bounds.exponent_identity_suite()
    width = max(len(c.name) for c in suite)
    for c in suite:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name:<{width}}  {c.detail}")
    return EXIT_OK if all(c.passed for c in suite) else EXIT_CHECK_FAILED


def _add_common(sp):
    sp.add_argument("--prime", type=int, required=True, help="odd prime modulus p")
    sp.add_argument("--order", type=int, required=True, help="subgroup order H (must divide p-1)")


def _sum_arguments(sp):
    _add_common(sp)
    sp.add_argument("--a", type=int, default=None, help="residue a (default: maximize)")


def _energy_arguments(sp):
    _add_common(sp)
    sp.add_argument("--m", type=int, default=2, help="fold count m in {1,2,3}")


def _scan_arguments(sp):
    sp.add_argument("--p-min", type=int, required=True)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--alpha-lo", type=float, default=0.25, help="window: log H / log p >= alpha-lo")
    sp.add_argument("--alpha-hi", type=float, default=0.5, help="window: log H / log p <= alpha-hi")
    sp.add_argument("--m", type=str, default="", help="comma list of moments to compute (2,3)")
    sp.add_argument("--interval-start", type=int, default=None)
    sp.add_argument("--interval-length", type=int, default=None)
    sp.add_argument("--interval-power", type=float, default=None, help="N = round(p^power)")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--output", type=str, default=None)


def _trace_arguments(sp):
    _add_common(sp)
    sp.add_argument("--a", type=int, default=None, help="residue a (default: maximize)")
    sp.add_argument("--interval-start", type=int, default=None)
    sp.add_argument("--interval-length", type=int, default=None)
    sp.add_argument("--output", type=str, default=None)


# name: (help, command, the function adding its arguments)
COMMANDS = {
    "sum": ("single or maximal |S_a| plus the closed-form bound", cmd_sum, _sum_arguments),
    "energy": ("exact T_m with the moment-identity cross-check", cmd_energy, _energy_arguments),
    "scan": ("sweep (p, H) cases and emit CSV/JSON rows plus fits", cmd_scan, _scan_arguments),
    "trace": ("run the dyadic cascade and report every check", cmd_trace, _trace_arguments),
    "identities": ("verify the exact rational exponent identities", cmd_identities, None),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for argv.  Every command is listed with its help, but when
    argv starts with a command only that command gets its arguments, as
    adding them is most of the parser's build time; with argv None, or not
    starting with a command (no command, --help, a typo), every command does.
    Either way argv parses, and every usage, help and error reads, the same."""
    parser = argparse.ArgumentParser(
        prog="expsumlab",
        description="exponential sums over multiplicative subgroups of prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argv[0] if argv and argv[0] in COMMANDS else None
    for name, (help_text, func, add_arguments) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if add_arguments is not None and named in (None, name):
            add_arguments(sp)
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
