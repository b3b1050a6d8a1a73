"""Run one morsespec CLI command with timing wrappers around the layer
functions that morsespec.cli imports.

    PYTHONPATH=src python3 perfbench/traced_cli.py certify --theorem 4

Stdout and the exit code are the CLI's own.  The aggregated spans go to
stderr as one line, 'PERFBENCH_TRACE <json>', written when the command
ends.  The wrapped functions are only ever called from morsespec.cli, so
the spans do not nest: the command's wall time is their sum plus the
command's self time.  Calls to `add` from morsespec.diagnostics are
counted, not timed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

TRACE_PREFIX = "PERFBENCH_TRACE "

# name imported by morsespec.cli -> span name
SPANS = {
    "build_context": "cocycle.build_context",
    "flatness_report": "charsums.flatness_report",
    "gauss_sum": "charsums.gauss_sum",
    "gauss_sum_all": "charsums.gauss_sum_all",
    "autocorrelation": "charsums.autocorrelation",
    "autocorrelation_closed_form": "charsums.autocorrelation_closed_form",
    "fourier_of_density_factor": "charsums.fourier_of_density_factor",
    "density_certificate": "spectral.density_certificate",
    "sbh_verdict": "spectral.sbh_verdict",
    "spectral_coefficients_cached": "spectral.coeff_exact",
    "spectral_coefficient_from_density": "spectral.coeff_density",
    "sbh_adversarial_search": "spectral.sbh_search",
    "name_separation": "diagnostics.name_separation",
    "at_ball_bound": "diagnostics.at_ball_bound",
    "enumerate_level_group": "odometer.enumerate_level_group",
    "render_report": "reporting.render_report",
}


class Tracer:
    """Per-span call count, seconds and errors, plus named counts."""

    def __init__(self) -> None:
        self.spans = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "errors": 0})
        self.counts = defaultdict(int)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "odometer.enumerate_level_group":
                    result = iter(list(result))  # time the enumeration, not the generator
            except BaseException:
                self._add(name, perf_counter() - start, errors=1)
                raise
            elapsed = perf_counter() - start
            self._add(self._count_result(name, args, result), elapsed)
            return result

        return traced

    def _add(self, name: str, seconds: float, errors: int = 0) -> None:
        span = self.spans[name]
        span["calls"] += 1
        span["seconds"] += seconds
        span["errors"] += errors

    def _count_result(self, name: str, args, result) -> str:
        """Record the counts a call's result carries; return its span name."""
        if name == "spectral.sbh_search":
            name = f"{name}.{result.mode}"
            self.counts[f"{name}.evaluations"] += result.evaluations
        elif name == "spectral.coeff_exact":
            self.counts["spectral.coeff_exact.elements"] += len(args[0])
        elif name == "diagnostics.name_separation":
            self.counts["diagnostics.name_count"] += result.name_count
            self.counts["diagnostics.pair_count"] += result.pair_count
        elif name == "reporting.render_report":
            self.counts["reporting.report_bytes"] += len(result.encode())
        return name

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def main(argv: list[str]) -> int:
    # imported here, so that run.py can import SPANS without morsespec
    import morsespec.cli as cli
    import morsespec.diagnostics as diagnostics

    tracer = Tracer()
    # A name the program no longer imports is skipped; its span reads 0.
    for attr, span in SPANS.items():
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.wrap(span, getattr(cli, attr)))
    if hasattr(diagnostics, "add"):
        diagnostics.add = tracer.count("odometer.add.calls", diagnostics.add)
    start = perf_counter()
    code = None
    try:
        code = cli.main(argv)
        return code
    finally:
        wall = perf_counter() - start
        sys.stdout.flush()
        trace = {
            "command": argv[0],
            "exit_code": code,
            "wall_s": wall,
            "spans": tracer.spans,
            "counts": tracer.counts,
        }
        sys.stderr.write(TRACE_PREFIX + json.dumps(trace) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
