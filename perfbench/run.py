"""The expsumlab benchmark: checked CLI operations per workload, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.  Each
operation is one `expsumlab.cli.main` command in a fresh interpreter
(perfbench/child.py), one child at a time, with no `--threads`.  A run repeats
whole rounds of its workload's operations while the next round is expected to
end within S seconds, and always runs at least one; import-only starts fill
the rest of the S seconds, for setup_s.  References for the checks
are computed before the first round.  Every run leaves its raw samples in
perfbench/out/run-<workload>-<seed>.json.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 every operation runs untraced and then traced, and the
object holds the per-layer metrics (means per traced operation) plus the
tracing overhead.  The traced run's per-operation totals go to
perfbench/out/trace-<workload>-<seed>.json.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from layers import COUNT_METRICS, TIME_METRICS
from workloads import WORKLOADS, Op

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")
OP_TIMEOUT_S = 120
TAIL_PERCENTILE = 75  # nearest rank; README.md says where it is a tail
TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Sample:
    setup_s: float
    op_ms: float
    rc: int | None
    rss_mb: float
    out: str
    err: str
    layers: dict | None


class Child:
    """Starts one child interpreter at a time and reads back its record."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.record = os.path.join(OUT_DIR, f"record-{os.getpid()}.json")
        self.env = dict(os.environ)
        self.env.pop("EXPSUM_THREADS", None)  # operations run without --threads
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, argv: list[str], trace: bool = False) -> Sample:
        if os.path.exists(self.record):
            os.remove(self.record)
        cmd = [sys.executable, CHILD, self.record, "1" if trace else "0", *argv]
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=OP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return Sample(math.nan, 1000.0 * (time.monotonic() - spawn), None, 0.0,
                          "", f"timed out after {OP_TIMEOUT_S} s", None)
        wall_ms = 1000.0 * (time.monotonic() - spawn)
        if not os.path.exists(self.record):  # the child died before writing it
            return Sample(math.nan, wall_ms, proc.returncode, 0.0, proc.stdout, proc.stderr, None)
        with open(self.record, encoding="utf-8") as fh:
            rec = json.load(fh)
        os.remove(self.record)
        return Sample(
            setup_s=rec["ready"] - spawn,
            op_ms=1000.0 * (rec["end"] - rec["start"]),
            rc=proc.returncode,
            rss_mb=rec["rss_kib"] / 1024.0,
            out=proc.stdout,
            err=proc.stderr,
            layers=rec.get("layers"),
        )


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class Tally:
    """Outcome of every attempted operation of one kind (untraced or traced)."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self.ok_ms: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.failures: dict[str, tuple[int, str]] = {}

    def add(self, op: Op, s: Sample) -> None:
        self.samples.append(s)
        if s.rc == 0 or (s.rc in op.answer_codes and s.out.strip() and TRACEBACK not in s.err):
            try:
                problem = op.check(s.out, s.err)
            except Exception as exc:  # output in a shape the check cannot read
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is None and s.rc != 0:
                problem = f"exit {s.rc} although the output passes every check"
            if problem is None:
                self.ok_ms.append(s.op_ms)
                return
            self.wrong += 1
        else:
            lines = s.err.strip().splitlines()
            problem = f"exit {s.rc}: {lines[-1] if lines else 'no message'}"
        self.failed += 1
        key = " ".join(op.argv)
        count, _ = self.failures.get(key, (0, ""))
        self.failures[key] = (count + 1, problem)

    @property
    def total_ms(self) -> float:
        return sum(s.op_ms for s in self.samples)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "expsumlab", "cli.py")):
        raise SystemExit("perfbench: no src/expsumlab here; run from the root of a checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    ops = WORKLOADS[workload_name](seed)
    child = Child(root)
    # Unmeasured warm-up: the byte-code and page caches, and on sum-bigp the
    # first touch of 3 GB, which made a run's first transform 0-30% slower.
    child.run(ops[0].argv)
    plain, traced = Tally(), Tally()
    setups: list[float] = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for op in ops:
            s = child.run(op.argv)
            plain.add(op, s)
            setups.append(s.setup_s)
            if trace:
                traced.add(op, child.run(op.argv, trace=True))
        took = time.monotonic() - round_start
        if time.monotonic() - start + took > seconds:
            break
    # The time left after the last whole round goes to import-only starts:
    # more samples for setup_s, above all on sum-bigp with its four operations.
    while time.monotonic() - start < seconds:
        setups.append(child.run([]).setup_s)

    with open(os.path.join(OUT_DIR, f"run-{workload_name}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"ops": [op.argv for op in ops], "setup_s": setups,
                   "op_ms": [s.op_ms for s in plain.samples],
                   "rss_mb": [s.rss_mb for s in plain.samples],
                   "rc": [s.rc for s in plain.samples]}, fh, indent=1)
    tallies = (plain, traced) if trace else (plain,)
    for tally in tallies:
        for argv, (count, problem) in sorted(tally.failures.items()):
            print(f"failed {count}x: expsumlab {argv}: {problem}")
    attempted = sum(len(t.samples) for t in tallies)
    failed = sum(t.failed for t in tallies)
    result = {
        "correct": all(t.wrong == 0 for t in tallies),
        "attempted": attempted,
        "failed": failed,
    }
    if not plain.ok_ms and not plain.wrong:
        raise SystemExit("perfbench: no operation succeeded; no metrics to report")
    # When every answer was wrong, the times of all attempted operations stand
    # in, so that the run still prints its result with correct: false.
    ok_ms = plain.ok_ms or [s.op_ms for s in plain.samples]
    if not trace:
        metrics = {
            "cases_per_s": (len(plain.ok_ms) / (plain.total_ms / 1000.0), "1/s"),
            "case_p50_ms": (statistics.median(ok_ms), "ms"),
            "case_tail_ms": (nearest_rank(ok_ms, TAIL_PERCENTILE), "ms"),
            "peak_rss_mb": (max(s.rss_mb for s in plain.samples), "MB"),
            "setup_s": (statistics.median(v for v in setups if not math.isnan(v)), "s"),
        }
    else:
        per_op = [s.layers for s in traced.samples if s.layers is not None]
        metrics = {
            name: (sum(layers[name] for layers in per_op) / len(per_op),
                   "ms" if name in TIME_METRICS else "count")
            for name in TIME_METRICS + COUNT_METRICS
        }
        overhead = 100.0 * (traced.total_ms - plain.total_ms) / plain.total_ms
        metrics["trace.overhead_pct"] = (overhead, "%")
        dump = os.path.join(OUT_DIR, f"trace-{workload_name}-{seed}.json")
        with open(dump, "w", encoding="utf-8") as fh:
            json.dump({"ops": [op.argv for op in ops], "per_op": per_op,
                       "untraced_ms": [s.op_ms for s in plain.samples],
                       "traced_ms": [s.op_ms for s in traced.samples]}, fh, indent=1)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
