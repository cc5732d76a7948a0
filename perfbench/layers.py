"""Per-layer time and work counts of one CLI command, recorded from outside the program.

The tracer wraps the public functions of each layer of `src/expsumlab/` in
the namespaces that call them: `cli` and `prooftrace` bind them at import, so
the wrappers replace those bindings; `PrimeModulus` is wrapped through
`from_int`, and `bounds` is wrapped on the module because `cli` calls it as
`bounds.<name>`.  Calls a module makes to its own functions are not seen.

Every wrapped call is a span.  A `*_ms` total adds the spans of its functions,
except those nested in a span of the same total (a recursion counts once),
so the totals of different layers overlap: `subgroup.build_ms` includes the
`primitive_root` time that `field.ms` also counts.  The two `self_ms` totals
subtract the directly nested spans: `cli.self_ms` is the command's time minus
every outermost span, and `prooftrace.self_ms` is `build_trace` minus the
spans called from it (the stage-1/2 loops and the X x Y product count).
Work counts are computed from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import inspect
import time

TIME_METRICS = (
    "field.ms",
    "subgroup.build_ms",
    "expsum.all_sums_ms",
    "expsum.max_sum_ms",
    "expsum.interval_sum_ms",
    "expsum.single_sum_ms",
    "energy.rep_counts_ms",
    "energy.moments_ms",
    "energy.diff_counts_ms",
    "energy.j_count_ms",
    "prooftrace.build_trace_ms",
    "prooftrace.self_ms",
    "prooftrace.dyadic_stage_ms",
    "prooftrace.dft_ms",
    "prooftrace.trilinear_ms",
    "prooftrace.moment_check_ms",
    "bounds.ms",
    "cli.self_ms",
)
COUNT_METRICS = (
    "subgroup.dense_bytes",
    "expsum.direct_tables",
    "expsum.transform_tables",
    "expsum.cosets",
    "expsum.fft_points",
    "energy.conv_passes",
    "energy.j_products",
    "prooftrace.stage2_lookups",
    "prooftrace.xy_products",
    "prooftrace.trilinear_terms",
    "prooftrace.complete",
    "prooftrace.degenerate",
)


def bluestein_length(n: int) -> int:
    """The power-of-two convolution length of the transform table for length n."""
    m = 1
    while m < 2 * n - 1:
        m *= 2
    return m


class Span:
    __slots__ = ("metric", "child_s", "stage_sizes")

    def __init__(self, metric: str) -> None:
        self.metric = metric
        self.child_s = 0.0  # time of the spans called directly from this one
        self.stage_sizes: list[int] = []  # nonzero residues per dyadic stage


class Tracer:
    """Span stack and totals for the one command this interpreter runs."""

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.top_s = 0.0  # time of the outermost spans
        self.totals = dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0.0)

    def wrap(self, owner, attr: str, metric: str, on_exit=None) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            span = Span(metric)
            tracer.stack.append(span)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                tracer.close(span, elapsed)
                if on_exit is not None:
                    on_exit(args, kwargs, result, exc, span, elapsed)

        setattr(owner, attr, staticmethod(wrapper) if inspect.isclass(owner) else wrapper)

    def close(self, span: Span, elapsed: float) -> None:
        if self.stack:
            self.stack[-1].child_s += elapsed
        else:
            self.top_s += elapsed
        if all(s.metric != span.metric for s in self.stack):
            self.totals[span.metric] += 1000.0 * elapsed

    def enclosing(self, metric: str) -> Span | None:
        for span in reversed(self.stack):
            if span.metric == metric:
                return span
        return None

    # work counts, from arguments and results

    def _subgroup(self, args, kwargs, result, exc, span, elapsed) -> None:
        if result is not None and result.indicator is not None:
            self.totals["subgroup.dense_bytes"] += result.indicator.nbytes

    def _all_sums(self, args, kwargs, result, exc, span, elapsed) -> None:
        if result is None:
            return
        if result.strategy == "direct":
            self.totals["expsum.direct_tables"] += 1
            self.totals["expsum.cosets"] += (result.p - 1) // result.order
        else:
            self.totals["expsum.transform_tables"] += 1
            self.totals["expsum.fft_points"] += bluestein_length(result.p)

    def _rep_counts(self, args, kwargs, result, exc, span, elapsed) -> None:
        sub = args[0] if args else kwargs["sub"]
        m = args[1] if len(args) > 1 else kwargs["m"]
        self.totals["energy.conv_passes"] += sub.order * (m - 1)

    def _j_count(self, args, kwargs, result, exc, span, elapsed) -> None:
        interval = args[0] if args else kwargs["interval"]
        sub = args[1] if len(args) > 1 else kwargs["sub"]
        self.totals["energy.j_products"] += interval.length * sub.order

    def _dyadic_stage(self, args, kwargs, result, exc, span, elapsed) -> None:
        trace = self.enclosing("prooftrace.build_trace_ms")
        if trace is not None and result is not None:
            trace.stage_sizes.append(int((result.lambdas != 0).sum()))

    def _trilinear(self, args, kwargs, result, exc, span, elapsed) -> None:
        x, y, z = args[:3]
        self.totals["prooftrace.trilinear_terms"] += len(x) * len(y) * len(z)

    def _build_trace(self, args, kwargs, result, exc, span, elapsed) -> None:
        p = (args[0] if args else kwargs["sub"]).p
        self.totals["prooftrace.self_ms"] += 1000.0 * (elapsed - span.child_s)
        sizes = span.stage_sizes
        if sizes and sizes[0]:
            self.totals["prooftrace.stage2_lookups"] += sizes[0] * p
            if len(sizes) > 1 and sizes[1]:
                self.totals["prooftrace.xy_products"] += sizes[0] * sizes[1]
        if isinstance(exc, self.empty_trace) or (result is not None and result.degenerate):
            self.totals["prooftrace.degenerate"] += 1
        elif exc is None:
            self.totals["prooftrace.complete"] += 1

    def install(self) -> None:
        # imported here so that the benchmark's parent process never imports the program
        from expsumlab import bounds, cli, field, prooftrace, subgroup

        self.empty_trace = prooftrace.EmptyTraceError
        callers = (cli, prooftrace)
        for name in ("is_prime", "divisors"):
            self.wrap(cli, name, "field.ms")
        self.wrap(field.PrimeModulus, "from_int", "field.ms")
        self.wrap(subgroup, "primitive_root", "field.ms")
        self.wrap(cli, "subgroup_of_order", "subgroup.build_ms", self._subgroup)
        for owner in callers:
            self.wrap(owner, "all_sums", "expsum.all_sums_ms", self._all_sums)
            self.wrap(owner, "max_sum", "expsum.max_sum_ms")
            self.wrap(owner, "interval_subgroup_sum", "expsum.interval_sum_ms")
            self.wrap(owner, "single_sum", "expsum.single_sum_ms")
            self.wrap(owner, "representation_counts", "energy.rep_counts_ms", self._rep_counts)
            self.wrap(owner, "energy_via_moments", "energy.moments_ms")
            self.wrap(owner, "difference_counts", "energy.diff_counts_ms")
            self.wrap(owner, "j_count", "energy.j_count_ms", self._j_count)
        self.wrap(cli, "build_trace", "prooftrace.build_trace_ms", self._build_trace)
        self.wrap(prooftrace, "dyadic_stage", "prooftrace.dyadic_stage_ms", self._dyadic_stage)
        self.wrap(prooftrace, "dft", "prooftrace.dft_ms")
        self.wrap(prooftrace, "trilinear_eval", "prooftrace.trilinear_ms", self._trilinear)
        self.wrap(cli, "moment_inequality_check", "prooftrace.moment_check_ms")
        for name, fn in inspect.getmembers(bounds, inspect.isfunction):
            if not name.startswith("_") and fn.__module__ == bounds.__name__:
                self.wrap(bounds, name, "bounds.ms")
        self.wrap(prooftrace, "trilinear_bound", "bounds.ms")

    def totals_ms(self, command_ms: float) -> dict[str, float]:
        """Every metric of this command; cli.self_ms needs the command's time."""
        out = dict(self.totals)
        out["cli.self_ms"] = command_ms - 1000.0 * self.top_s
        return out
