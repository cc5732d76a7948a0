"""Print the outcome and op time of every case in the trace workload's pools.

    PYTHONPATH=src python3 perfbench/survey.py

Run from the root of a checkout.  Each case runs `expsumlab trace` in this
process three times; the table gives the kind the pool expects, the outcome
the program reports (complete or degenerate), the cascade set sizes and the
fastest of the three times.  README.md holds the table for the seed program.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

from expsumlab.cli import main
from workloads import TRACE_COMPLETE, TRACE_DEGENERATE


def survey(p: int, h: int) -> tuple[str, str, float]:
    best = float("inf")
    for _ in range(3):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = main(["trace", "--prime", str(p), "--order", str(h)])
        best = min(best, time.perf_counter() - start)
    doc = json.loads(buf.getvalue())
    if rc != 0:
        outcome = f"exit {rc}"
    else:
        outcome = "degenerate" if doc["degenerate"] else "complete"
    sets = doc.get("sets")
    sizes = "-" if sets is None else f"{sets['x_size']}x{sets['y_size']}x{sets['z_size']}"
    return outcome, sizes, 1000.0 * best


if __name__ == "__main__":
    print("| p | H | pool | outcome | X, Y, Z sizes | ms |")
    print("|---|---|------|---------|---------------|----|")
    for pool, cases in (("complete", TRACE_COMPLETE), ("degenerate", TRACE_DEGENERATE)):
        for p, h in cases:
            outcome, sizes, ms = survey(p, h)
            print(f"| {p} | {h} | {pool} | {outcome} | {sizes} | {ms:.0f} |", flush=True)
