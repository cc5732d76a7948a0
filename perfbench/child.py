"""Run one expsumlab command in this fresh interpreter and record how it went.

Usage: python3 perfbench/child.py RECORD TRACE [CLI ARGUMENT ...]

The command is `expsumlab.cli.main(ARGUMENTS)`, the same call the installed
`expsumlab` entry point makes.  At exit the child writes RECORD, a JSON object
with the CLOCK_MONOTONIC readings when `expsumlab.cli` was imported and ready
(`ready`), when the command started and when it returned with its output
flushed (`start`, `end`), the exit code, the peak resident set of this process
in KiB and, with TRACE=1, the per-layer totals of the command (see layers.py).
With no CLI arguments the child only imports the CLI: a set-up sample.

Only `sys` and `time` are imported before the CLI, so `ready` minus the
parent's spawn time is the interpreter start plus the CLI import.
"""

import sys
import time

import expsumlab.cli as cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run(record_path: str, trace: bool, argv: list[str]) -> int:
    record: dict = {"ready": READY}
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    rc = 0
    if argv:
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            # what the interpreter would print and return for an uncaught error
            traceback.print_exc()
            rc = 1
    sys.stdout.flush()
    end = time.monotonic()
    record.update(start=start, end=end, rc=rc)
    record["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        record["layers"] = tracer.totals_ms(1000.0 * (end - start))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
