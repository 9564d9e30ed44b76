"""Spans recorded around the benchmark's calls into kernelconnect, and the
per-layer metrics derived from them.

A span is (name, tag, start, end, parent, pass_id, per): `name` is
`<module>.<function>`, `tag` distinguishes kernel families or backends,
`parent` is the index of the enclosing span (the pass span is the root) and
`per` is the number of work units the call covered (RK4 steps for a
transport call), so a metric can be reported per unit.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict

# metric name -> (span name, tag, unit, scale from seconds)
TIMINGS = {
    "cli.startup_s": ("cli.main", "--help", "s", 1.0),
    "cli.import_s": ("cli.import", None, "s", 1.0),
    "verify.kernels_s": ("verify.run_suite", "kernels", "s", 1.0),
    "verify.rkhs_s": ("verify.run_suite", "rkhs", "s", 1.0),
    "verify.connections_s": ("verify.run_suite", "connections", "s", 1.0),
    "verify.grassmann_s": ("verify.run_suite", "grassmann", "s", 1.0),
    "verify.cpmaps_s": ("verify.run_suite", "cpmaps", "s", 1.0),
    "kernels.eval_us.disk": ("kernels.Kernel.__call__", "disk", "us", 1e6),
    "kernels.eval_us.halfplane": ("kernels.Kernel.__call__", "halfplane", "us", 1e6),
    "kernels.eval_us.fock": ("kernels.Kernel.__call__", "fock", "us", 1e6),
    "kernels.gram_ms": ("kernels.gram_matrix", None, "ms", 1e3),
    "kernels.positivity_ms": ("kernels.positivity_certificate", None, "ms", 1e3),
    "kernels.admissibility_ms": ("kernels.admissibility_report", None, "ms", 1e3),
    "rkhs.build_ms": ("rkhs.build_rkhs", None, "ms", 1e3),
    "rkhs.universality_ms": ("rkhs.universality_residual", None, "ms", 1e3),
    "rkhs.evaluate_us": ("rkhs.evaluate_element", None, "us", 1e6),
    "rkhs.project_us": ("rkhs.project_fiber", None, "us", 1e6),
    "connections.covderiv_us.closed-form":
        ("connections.covariant_derivative_closed_form", None, "us", 1e6),
    "connections.covderiv_us.direct":
        ("connections.covariant_derivative_direct", None, "us", 1e6),
    "connections.covderiv_us.sampled":
        ("connections.ConnectionEvaluator.__call__", "sampled", "us", 1e6),
    "connections.form_us": ("connections.connection_form", None, "us", 1e6),
    "connections.transport_step_us": ("connections.parallel_transport", None, "us", 1e6),
    "connections.leibniz_ms": ("connections.leibniz_residual", None, "ms", 1e3),
    "grassmann.universal_eval_us": ("kernels.Kernel.__call__", "universal", "us", 1e6),
    "grassmann.fiber_basis_us": ("grassmann.fiber_basis", None, "us", 1e6),
    "grassmann.covderiv_us.universal":
        ("grassmann.universal_covariant_derivative", None, "us", 1e6),
    "grassmann.covderiv_us.reductive":
        ("grassmann.reductive_covariant_derivative", None, "us", 1e6),
    "grassmann.covderiv_us.homogeneous":
        ("grassmann.homogeneous_covariant_derivative", None, "us", 1e6),
    "grassmann.agreement_ms": ("verify.grassmann_agreement", None, "ms", 1e3),
    "cpmaps.dilate_us": ("cpmaps.stinespring_dilate", None, "us", 1e6),
    "cpmaps.kernel_eval_us": ("kernels.Kernel.__call__", "cp", "us", 1e6),
    "cpmaps.covderiv_us": ("cpmaps.cp_covariant_derivative", None, "us", 1e6),
    "cpmaps.pullback_ms": ("cpmaps.pullback_identity_residual", None, "ms", 1e3),
    "numerics.csv_write_ms": ("numerics.matrix_to_csv_text", None, "ms", 1e3),
    "numerics.csv_read_ms": ("numerics.matrix_from_csv_text", None, "ms", 1e3),
}

# deterministic work counters, per pass
COUNTS = {
    "kernels.gram_entries": "count",  # (N*M)^2 per assembled Gram matrix
    "kernels.gram_bytes": "B",        # 16*(N*M)^2, computed from the array size
    "connections.rk4_stages": "count",  # 4 * steps per transport call
    "verify.checks": "count",         # checks per merged verify report
}

MODULES = ("cli", "verify", "kernels", "rkhs", "connections", "grassmann", "cpmaps",
           "numerics")

_BY_SPAN = {(span, tag): metric for metric, (span, tag, _, _) in TIMINGS.items()}


def metric_of(name: str, tag) -> str | None:
    return _BY_SPAN.get((name, tag)) or _BY_SPAN.get((name, None))


def tail_rank(n: int) -> int:
    """1-based rank of p99, or of the highest percentile with ten samples above it.

    With fewer than about twenty samples that percentile would fall below the
    median, so the median is reported in its place.
    """
    return max(min(math.ceil(0.99 * n), n - 10), math.ceil(n / 2))


def summarize(samples: list[float]) -> dict:
    ordered = sorted(samples)
    n = len(ordered)
    rank = tail_rank(n)
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "q1": statistics.quantiles(ordered, n=4)[0] if n > 1 else ordered[0],
        "q3": statistics.quantiles(ordered, n=4)[2] if n > 1 else ordered[0],
        "tail": ordered[rank - 1],
        "tail_level": rank / n,
    }


class Tracer:
    """Records one span per wrapped call while enabled; otherwise just calls."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: defaultdict = defaultdict(Counter)  # pass_id -> counter
        self._stack: list[int] = []
        self.pass_id = None

    def call(self, name, fn, *args, tag=None, per=1, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, tag, start, end, parent, self.pass_id, per)

    def count(self, name: str, amount: int) -> None:
        self.counts[self.pass_id][name] += amount

    def record(self, name, tag, seconds: float) -> None:
        """A sample measured elsewhere (a child process), kept as a span of that length."""
        now = time.perf_counter()
        self.spans.append((name, tag, now - seconds, now, None, self.pass_id, 1))


def layer_samples(spans) -> dict:
    """(metric, pass_id) -> list of (seconds, work units), one entry per span."""
    out = defaultdict(list)
    for name, tag, start, end, _, pass_id, per in spans:
        metric = metric_of(name, tag)
        if metric is not None:
            out[metric, pass_id].append((end - start, per))
    return out
