"""In-memory span tracer that wraps sqreadout's public functions from outside.

Tracing swaps module attributes: every binding of a wrapped function in any
loaded ``sqreadout`` module (including ``from .x import f`` copies) is replaced
by a wrapper that records a span (name, start, end, parent) and, for some
functions, a counter read from the return value.  Nothing in ``src/`` changes.
Self time is a span's duration minus the time its child spans cover; spans are
strictly nested because the program is single-threaded, so the children's
durations add up without overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, CHILD = range(5)


def _public_functions(module) -> list[str]:
    return sorted(n for n, v in vars(module).items()
                  if not n.startswith("_") and inspect.isfunction(v)
                  and v.__module__ == module.__name__)


class Tracer:
    """Collects spans and counters for the functions named in ``targets()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def targets(self):
        """(module, function name, span name, counter hook(span, result) or None)."""
        from sqreadout import cli, combined, figures, ics, ies, optimize, oracle, phasespace

        c = self.counters

        def optimum(_span, report):
            c["optimize.maximize_snr.evaluations"] += report.evaluations
            c["optimize.maximize_snr.converged"] += bool(report.converged)

        def steps(_span, result):
            c["oracle.steps"] += result.steps

        def verdict(_span, report):
            c["oracle.oracle_check.passed"] += bool(report["passed"])

        def rows(span, result):
            if span[PARENT] < 0:          # rows of nested builders are counted once
                c["figures.rows"] += len(result)

        out = [(combined, "solve_omega_sq", "combined.solve_omega_sq", None),
               (combined, "combined_moments", "combined.combined_moments", None),
               (optimize, "maximize_snr", "optimize.maximize_snr", optimum),
               (phasespace, "pointer_state", "phasespace.pointer_state", None),
               (phasespace, "ellipse", "phasespace.ellipse", None),
               (oracle, "oracle_check", "oracle.oracle_check", verdict),
               (oracle, "build_system", "oracle.build_system", None),
               (oracle, "oracle_moments", "oracle.oracle_moments", steps),
               (cli, "main", "cli.main", None),
               (cli, "run_parallel", "cli.run_parallel", None)]
        for module, prefix in ((ies, "ies"), (ics, "ics")):
            out += [(module, n, f"{prefix}.{n}", None) for n in _public_functions(module)]
        out += [(figures, n, f"figures.{n}", rows if n.endswith("_rows") else None)
                for n in _public_functions(figures)]
        return out

    def _wrap(self, name: str, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += span[END] - span[START]
            if hook is not None:
                hook(span, result)
            return result

        return wrapper

    def install(self) -> None:
        targets = self.targets()        # imports every traced module first
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sqreadout" or n.startswith("sqreadout."))]
        for module, fname, name, hook in targets:
            original = getattr(module, fname)
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds) since the last reset."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            entry = out[span[NAME]]
            entry[0] += 1
            entry[1] += span[END] - span[START] - span[CHILD]
        return {k: (v[0], v[1]) for k, v in out.items()}

    @staticmethod
    def write(path, spans: list[list]) -> None:
        """Spans as gzipped CSV: index, name, start, end, parent index (-1 for roots)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            t0 = spans[0][START] if spans else 0.0
            for i, s in enumerate(spans):
                fh.write(f"{i},{s[NAME]},{s[START] - t0:.9f},{s[END] - t0:.9f},{s[PARENT]}\n")
