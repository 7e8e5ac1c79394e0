"""Spans and counts around the package's layer boundaries, from outside it.

The tracer replaces module attributes with timing wrappers; it adds no
code to the package.  ``quantifier`` imports the integrators, the channel
functions and ``wigner_negativity`` by name, so its bindings are the ones
replaced.  ``quadrature`` looks ``locate_sign_changes`` up at call time and
``fock`` looks ``backend.wigner_series`` up at call time, so one
replacement each covers every caller.

A span is (id, parent id, state id, name, start ns, end ns).  Spans stay
in memory until :meth:`Tracer.write_spans`.  A span's self time is its
duration minus the durations of its child spans (calls are single-threaded
and nested, so children never overlap).
"""

import itertools
from collections import Counter
from time import perf_counter_ns

import numpy as np

from phasenorm import backend, quadrature, quantifier

PLANE = "quadrature.plane"
RADIAL = "quadrature.radial"
SIGN_SCAN = "quadrature.sign_scan"
QUADRATURE_ERRORS = (quadrature.ToleranceNotReached, quadrature.RootBudgetExceeded)


class Tracer:
    """Records spans and per-layer counters while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.state_id = None
        self._stack = []  # open spans: [id, name, child ns]
        self._ids = itertools.count()
        self._patches = [
            (quantifier, "measure_m", "quantifier.measure_m", None),
            (quantifier, "wigner_negativity", "quantifier.witness", None),
            (quantifier, "baseline_with_error", "quantifier.baseline", None),
            (quantifier, "integrate_plane_abs_pow", PLANE, self._note_plane),
            (quantifier, "integrate_radial_abs_pow", RADIAL, None),
            (quantifier, "apply_channel_fock", "fock.channel", self._note_fock_channel),
            (quantifier, "apply_channel_gaussian", "gaussian.channel", None),
            (quadrature, "locate_sign_changes", SIGN_SCAN, self._note_sign_scan),
            (backend, "wigner_series", "kernel", self._note_kernel),
        ]
        self._originals = [getattr(module, attr) for module, attr, _, _ in self._patches]
        self._wrappers = [self._wrap(name, original, note)
                          for (_, _, name, note), original
                          in zip(self._patches, self._originals)]

    def install(self):
        for (module, attr, _, _), wrapper in zip(self._patches, self._wrappers):
            setattr(module, attr, wrapper)

    def uninstall(self):
        for (module, attr, _, _), original in zip(self._patches, self._originals):
            setattr(module, attr, original)

    def take_counts(self):
        """Counters since the last call, then reset them."""
        counts, self.counts = self.counts, Counter()
        return counts

    def _wrap(self, name, fn, note):
        stack = self._stack
        spans = self.spans
        ids = self._ids
        integrator = name in (PLANE, RADIAL)

        def wrapper(*args, **kwargs):
            if name == SIGN_SCAN:
                args = (self._counted(args[0]),) + args[1:]
            span_id = next(ids)
            parent = stack[-1] if stack else None
            frame = [span_id, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except QUADRATURE_ERRORS:
                if integrator:
                    self.counts["quadrature.failed"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                c = self.counts
                c[name + ".calls"] += 1
                c[name + ".ns"] += duration
                c[name + ".self_ns"] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                spans.append((span_id, parent[0] if parent else None,
                              self.state_id, name, start, end))
            if note is not None:
                note(args, result, parent)
            return result

        return wrapper

    def _counted(self, f):
        """The sign scan's integrand, counting evaluations and points."""
        def counted(x):
            self.counts[SIGN_SCAN + ".evals"] += 1
            self.counts[SIGN_SCAN + ".points"] += np.size(x)
            return f(x)
        return counted

    def _note_sign_scan(self, args, roots, parent):
        self.counts[SIGN_SCAN + ".roots"] += len(roots)
        if parent is not None and parent[1] == PLANE:
            self.counts["quadrature.rays"] += 1

    def _note_plane(self, args, estimate, parent):
        self.counts["quadrature.panels"] += estimate.subdivisions

    def _note_fock_channel(self, args, out, parent):
        self.counts["fock.out_cutoff.sum"] += out.cutoff

    def _note_kernel(self, args, out, parent):
        weights, _, u, _ = args
        self.counts["kernel.points"] += len(u)
        self.counts["kernel.term_points"] += len(weights) * len(u)

    def write_spans(self, path):
        """Write every recorded span as CSV (times in ns since an arbitrary origin)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,parent,state,name,start_ns,end_ns\n")
            for span_id, parent, state, name, start, end in self.spans:
                fh.write(f"{span_id},{'' if parent is None else parent},"
                         f"{'' if state is None else state},{name},{start},{end}\n")


def layer_metrics(counts):
    """Per-layer metric values (name -> value) from one pass's counters."""
    c = counts

    def ms(key):
        return c[key] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "quantifier.measure_m.ms": ms("quantifier.measure_m.ns"),
        "quadrature.sign_scan.calls": c[SIGN_SCAN + ".calls"],
        "quadrature.sign_scan.self_ms": ms(SIGN_SCAN + ".self_ns"),
        "quadrature.sign_scan.evals": c[SIGN_SCAN + ".evals"],
        "quadrature.sign_scan.points": c[SIGN_SCAN + ".points"],
        "quadrature.sign_scan.roots": c[SIGN_SCAN + ".roots"],
        "quadrature.sign_scan.evals_per_root":
            ratio(c[SIGN_SCAN + ".evals"], c[SIGN_SCAN + ".roots"]),
        "quadrature.plane.calls": c[PLANE + ".calls"],
        "quadrature.plane.self_ms": ms(PLANE + ".self_ns"),
        "quadrature.rays": c["quadrature.rays"],
        "quadrature.panels": c["quadrature.panels"],
        "quadrature.radial.calls": c[RADIAL + ".calls"],
        "quadrature.radial.self_ms": ms(RADIAL + ".self_ns"),
        "quadrature.failed": c["quadrature.failed"],
        "kernel.calls": c["kernel.calls"],
        "kernel.ms": ms("kernel.ns"),
        "kernel.points": c["kernel.points"],
        "kernel.points_per_call": ratio(c["kernel.points"], c["kernel.calls"]),
        "kernel.term_points": c["kernel.term_points"],
        "kernel.ns_per_term_point": ratio(c["kernel.ns"], c["kernel.term_points"]),
        "fock.channel.calls": c["fock.channel.calls"],
        "fock.channel.ms": ms("fock.channel.ns"),
        "fock.out_cutoff.mean": ratio(c["fock.out_cutoff.sum"], c["fock.channel.calls"]),
        "gaussian.channel.ms": ms("gaussian.channel.ns"),
        "quantifier.witness.ms": ms("quantifier.witness.ns"),
    }


# Counts: for one seed they repeat exactly from run to run.
COUNT_METRICS = (
    "quadrature.sign_scan.calls", "quadrature.sign_scan.evals",
    "quadrature.sign_scan.points", "quadrature.sign_scan.roots",
    "quadrature.plane.calls", "quadrature.rays", "quadrature.panels",
    "quadrature.radial.calls", "quadrature.failed", "kernel.calls",
    "kernel.points", "kernel.term_points", "fock.channel.calls",
)

# Unit of every per-layer metric a traced run reports: those of
# layer_metrics, the set-up baseline and the tracing overhead.
LAYER_UNITS = {
    **{name: "count" for name in COUNT_METRICS},
    "quantifier.measure_m.ms": "ms",
    "quadrature.sign_scan.self_ms": "ms",
    "quadrature.sign_scan.evals_per_root": "ratio",
    "quadrature.plane.self_ms": "ms",
    "quadrature.radial.self_ms": "ms",
    "kernel.ms": "ms",
    "kernel.points_per_call": "points/call",
    "kernel.ns_per_term_point": "ns",
    "fock.channel.ms": "ms",
    "fock.out_cutoff.mean": "photons",
    "gaussian.channel.ms": "ms",
    "quantifier.witness.ms": "ms",
    "quantifier.baseline.ms": "ms",
    "trace.overhead_pct": "%",
}
