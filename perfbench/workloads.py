"""The benchmark's workloads: seeded operations drawn from stated pools, and their checks.

An operation is one CLI command.  When the command exits 0, or exits with
another of its answer codes and writes output without a traceback, its check
receives the command's stdout and stderr and returns None when the output is
right, or a description of what is wrong.  References are computed when a workload is
built, before anything is timed.  See README.md for why each pool is what it
is.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable

import reference as ref

Check = Callable[[str, str], "str | None"]


@dataclass
class Op:
    argv: list[str]
    check: Check
    # exit codes that still come with an answer to check; `scan` and `trace`
    # exit 1 with their whole output when every row errs or a check fails
    answer_codes: tuple[int, ...] = (0,)


def _tol(order: int) -> float:
    return ref.TOL_PER_H * order


def _close(got: float, want: float, order: int) -> bool:
    return abs(got - want) <= _tol(order)


# ---------------------------------------------------------------- scan-energy

SCAN_RANGE = (200_000, 205_000)
SCAN_ALPHA = (0.4, 0.5)
SCAN_CASES_PER_PRIME = 2
SCAN_OPS_PER_ROUND = 10


def scan_pool() -> list[tuple[int, int]]:
    """Windows (q + 1, p) around the primes p of SCAN_RANGE, q the prime before p,
    whose p - 1 has exactly SCAN_CASES_PER_PRIME orders in the alpha window."""
    lo, hi = SCAN_RANGE
    primes = [n for n in range(lo - 200, hi) if ref.is_prime(n)]
    return [
        (q + 1, p)
        for q, p in zip(primes, primes[1:])
        if p >= lo and len(ref.orders_in_window(p, *SCAN_ALPHA)) == SCAN_CASES_PER_PRIME
    ]


def _scan_expected(p: int) -> dict[int, dict]:
    n_len = max(1, min(p, round(p**0.5)))
    out = {}
    for h in ref.orders_in_window(p, *SCAN_ALPHA):
        elems = ref.subgroup_elements(p, h)
        spec = ref.indicator_spectrum(p, elems)
        t2, t3 = ref.energies(p, spec)
        out[h] = {
            "spec": spec,
            "max": ref.max_magnitude(spec),
            "T2": t2,
            "T3": t3,
            "J": ref.j_count(p, h, 0, n_len),
            "N": n_len,
        }
    return out


def _scan_check(p: int, expected: dict[int, dict]) -> Check:
    def check(out: str, err: str) -> str | None:
        if "warning:" in err:
            return "row errors: " + " | ".join(l for l in err.splitlines() if "warning:" in l)
        rows = list(csv.DictReader(io.StringIO(out)))
        got = sorted((int(r["p"]), int(r["H"])) for r in rows)
        if got != [(p, h) for h in sorted(expected)]:
            return f"cases {got}, expected p={p} H={sorted(expected)}"
        for r in rows:
            h, e = int(r["H"]), expected[int(r["H"])]
            mx, a_star = float(r["max_abs_sum"]), int(r["a_star"])
            where = f"p={p} H={h}"
            if not math.sqrt((p * h - h * h) / (p - 1)) - _tol(h) <= mx <= h + _tol(h):
                return f"{where}: max_abs_sum {mx} outside [sqrt((pH-H^2)/(p-1)), H]"
            if not _close(mx, e["max"], h):
                return f"{where}: max_abs_sum {mx}, FFT gives {e['max']}"
            if not _close(ref.magnitude_at(e["spec"], p, a_star), e["max"], h):
                return f"{where}: a_star {a_star} does not attain the FFT maximum"
            for key in ("T2", "T3", "J", "N"):
                if int(r[key]) != e[key]:
                    return f"{where}: {key} = {r[key]}, independent count {e[key]}"
        return None

    return check


def scan_energy(seed: int) -> list[Op]:
    windows = random.Random(seed).sample(scan_pool(), SCAN_OPS_PER_ROUND)
    ops = []
    for lo, p in windows:
        argv = ["scan", "--p-min", str(lo), "--p-max", str(p), "--alpha-lo", str(SCAN_ALPHA[0]),
                "--m", "2,3", "--interval-power", "0.5"]
        ops.append(Op(argv, _scan_check(p, _scan_expected(p)), answer_codes=(0, 1)))
    return ops


# ---------------------------------------------------------------------- trace

# Cases sorted into two kinds by their outcome on the seed program.  Within a
# kind the op times lie in a narrow band, and the degenerate cases have
# |X|*|Y| within 1.92-2.08 million, so that every seed's picks cost about the
# same time and memory; `PYTHONPATH=src python3 perfbench/survey.py` prints them.
TRACE_COMPLETE = tuple((p, 18) for p in (
    16111, 16363, 16453, 16921, 17047, 17191, 17299, 17749,
    17839, 18181, 18397, 18451, 18757, 18793, 18919, 19207,
))
TRACE_DEGENERATE = tuple((p, 22) for p in (
    36697, 37357, 38303, 38611, 39799, 40283, 41647, 41669,
    42967, 43913, 45673, 47279, 47741, 48533, 49193, 49633,
))
TRACE_PICKS = (8, 4)  # complete and degenerate cases per round; the pools share no prime


def _trace_check(p: int, h: int, spec) -> Check:
    fft_max = ref.max_magnitude(spec)

    def check(out: str, err: str) -> str | None:
        doc = json.loads(out)
        if (doc["p"], doc["H"]) != (p, h):
            return f"document for p={doc['p']} H={doc['H']}"
        failed = [c["name"] for c in doc["checks"] + doc.get("moment_checks", []) if not c["pass"]]
        if failed:
            return f"failed checks {failed}"
        if not _close(ref.magnitude_at(spec, p, doc["a"]), fft_max, h):
            return f"a = {doc['a']} does not maximize |S_a| (FFT maximum {fft_max})"
        if doc["degenerate"]:
            return None
        sizes = doc["sets"]
        if any(sizes[k] % h for k in ("x_size", "y_size", "z_size")):
            return f"set sizes {sizes} are not unions of H-cosets"
        tri = doc["trilinear"]
        direct, spectral = tri["direct_sum"], tri["spectral_sum"]
        if direct is None or abs(direct - spectral) > 1e-6 * max(abs(spectral), 1.0):
            return f"trilinear sums disagree: direct {direct}, spectral {spectral}"
        return None

    return check


def trace(seed: int) -> list[Op]:
    rng = random.Random(seed)
    complete, degenerate = TRACE_PICKS
    ops = []
    for p, h in rng.sample(TRACE_COMPLETE, complete) + rng.sample(TRACE_DEGENERATE, degenerate):
        spec = ref.indicator_spectrum(p, ref.subgroup_elements(p, h))
        argv = ["trace", "--prime", str(p), "--order", str(h)]
        ops.append(Op(argv, _trace_check(p, h, spec), answer_codes=(0, 1)))
    rng.shuffle(ops)
    return ops


# -------------------------------------------------------------------- sum-bigp

BIGP_RANGE = (9_600_000, 10_000_000)  # up to the dense limit 10^7
DIRECT_ORDER = 99  # p * H <= 10^9: the direct per-coset table
TRANSFORM_ORDER = 105  # p * H > 10^9: the Bluestein transform table
# Refused every time (exit 3) because `sum --a` builds the dense table even
# though one |S_a| is O(H); the same for every seed, so the failed share is fixed.
REFUSED = ["sum", "--prime", "1000000007", "--order", "2", "--a", "123456789"]

_MAX_LINE = re.compile(r"^max over a of \|S_a\| \(a\* = (\d+)\) = (\S+)$", re.M)
_ONE_LINE = re.compile(r"^\|S_(\d+)\| = (\S+)$", re.M)


def _bigp_prime(rng: random.Random, order: int, taken: set[int]) -> int:
    """A prime p = 1 (mod order) in BIGP_RANGE not drawn before."""
    lo, hi = BIGP_RANGE
    while True:
        p = order * rng.randrange(lo // order + 1, (hi - 1) // order) + 1
        if p not in taken and ref.is_prime(p):
            taken.add(p)
            return p


def _sum_max_check(p: int, h: int) -> Check:
    elems = ref.subgroup_elements(p, h)
    spec = ref.indicator_spectrum(p, elems)
    fft_max = ref.max_magnitude(spec)
    del spec  # 80 MB at p = 10^7; only a few magnitudes are needed below

    def check(out: str, err: str) -> str | None:
        m = _MAX_LINE.search(out)
        if m is None:
            return "no maximum line in the output"
        a_star, value = int(m.group(1)), float(m.group(2))
        if not _close(value, fft_max, h):
            return f"maximum {value}, FFT gives {fft_max}"
        direct = ref.direct_sum(p, elems, a_star)
        if not _close(value, direct, h):
            return f"maximum {value} at a*={a_star}, direct sum gives {direct}"
        return None

    return check


def _sum_one_check(p: int, h: int, a: int) -> Check:
    want = ref.direct_sum(p, ref.subgroup_elements(p, h), a)

    def check(out: str, err: str) -> str | None:
        m = _ONE_LINE.search(out)
        if m is None or int(m.group(1)) != a % p:
            return f"no |S_{a % p}| line in the output"
        if not _close(float(m.group(2)), want, h):
            return f"|S_{a}| = {m.group(2)}, direct sum gives {want}"
        return None

    return check


def sum_bigp(seed: int) -> list[Op]:
    rng = random.Random(seed)
    taken: set[int] = set()
    p_direct = _bigp_prime(rng, DIRECT_ORDER, taken)
    p_transform = _bigp_prime(rng, TRANSFORM_ORDER, taken)
    p_one = _bigp_prime(rng, TRANSFORM_ORDER, taken)
    a = rng.randrange(1, p_one)
    refused_p, refused_h, refused_a = (int(REFUSED[i]) for i in (2, 4, 6))

    def cmd(p: int, h: int) -> list[str]:
        return ["sum", "--prime", str(p), "--order", str(h)]

    ops = [
        Op(cmd(p_transform, TRANSFORM_ORDER), _sum_max_check(p_transform, TRANSFORM_ORDER)),
        Op(cmd(p_one, TRANSFORM_ORDER) + ["--a", str(a)], _sum_one_check(p_one, TRANSFORM_ORDER, a)),
        Op(cmd(p_direct, DIRECT_ORDER), _sum_max_check(p_direct, DIRECT_ORDER)),
        Op(list(REFUSED), _sum_one_check(refused_p, refused_h, refused_a)),
    ]
    return ops


# Each builds one round of operations from a seed; every run repeats whole rounds.
WORKLOADS = {"scan-energy": scan_energy, "trace": trace, "sum-bigp": sum_bigp}
