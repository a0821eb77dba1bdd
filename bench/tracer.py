"""Spans around the public functions of each decals module, from outside.

Every function is replaced at the name its caller looks it up by (a module
attribute such as decals.covest.estimate_proportions or decals.qp.nearest_psd),
so the package itself is untouched. A span records its name, start, end and
the id of the span open when it started; spans stay in memory until the run
writes them out. Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import collections
import functools
import importlib
import os
import time

# span name -> decals modules whose attribute of that short name callers use
SITES = {
    "qp.solve_simplex_ls": ("qp",),
    "qp.solve_simplex_normal": ("qp",),
    "qp.nearest_psd": ("qp",),
    "deconv.estimate_proportions": ("covest",),
    "deconv.align_genes": ("cli",),
    "deconv.confidence_intervals": ("cli",),
    "covest.run_decals": ("cli", "simgen"),
    "covest.cross_validate_lambda": ("covest",),
    "covest.cts_covariance_raw_all": ("covest", "gls"),
    "covest.cts_covariance_corrected": ("covest",),
    "covest.scad_threshold": ("covest",),
    "gls.solve_gls": ("simgen",),
    "gls.gls_covariance": ("simgen",),
    "gls.run_gls_iterative": ("simgen",),
    "simgen.replicate_dataset": ("simgen",),
    "simgen.coverage_experiment": ("cli",),
    "downstream.sample_proportion_sets": ("cli",),
    "downstream.aggregate_calls": ("cli",),
    "io.read_signature_tsv": ("io",),
    "io.read_bulk_tsv": ("io",),
    "io.read_pvalues_csv": ("io",),
    "io.write_proportions_csv": ("io",),
    "io.write_covariances_json": ("io",),
    "io.write_intervals_csv": ("io",),
    "io.load_estimates": ("io",),
    "io.write_draws": ("io",),
    "cli.cmd_deconvolve": ("cli",),
    "cli.cmd_sample": ("cli",),
    "cli.cmd_aggregate": ("cli",),
    "cli.cmd_simulate": ("cli",),
}

# coverage_experiment spans are named per arm so each method gets its own time
ARM_PREFIX = "simgen.arm."
ARMS = ("ols", "decals", "decals_uncorrected", "gls_oracle", "gls_estimated",
        "decals_oracle")

# per-layer metrics that are counters recorded at a span boundary
COUNTERS = ("covest.run_decals.iterations", "covest.cts_covariance_corrected.failed",
            "covest.scad_threshold.entries", "io.read_signature_tsv.bytes",
            "io.read_bulk_tsv.bytes", "io.read_pvalues_csv.bytes",
            "io.write_draws.bytes", "simgen.failures")


def _count(name, counts, args, result, err):
    """Work counters measured at the same boundary as the span."""
    if name == "covest.run_decals" and err is None:
        counts["covest.run_decals.iterations"] += result.iterations
    elif name == "covest.cts_covariance_corrected" and err is not None:
        if type(err).__name__ == "SingularCorrectedMoment":
            counts["covest.cts_covariance_corrected.failed"] += 1
    elif name == "covest.scad_threshold":
        counts["covest.scad_threshold.entries"] += getattr(args[0], "size", 0)
    elif name in ("io.read_signature_tsv", "io.read_bulk_tsv",
                  "io.read_pvalues_csv") and err is None:
        counts[name + ".bytes"] += os.path.getsize(args[0])
    elif name == "io.write_draws" and err is None:
        out_dir = args[0]
        counts["io.write_draws.bytes"] += sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    elif name == "simgen.coverage_experiment" and err is None:
        counts["simgen.failures"] += len(result.failures)
        counts[f"simgen.replicates.{result.method}"] += len(result.replicate_seeds)


class Tracer:
    """In-memory span recorder. spans: [id, name, start, end, parent id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        tracer = self
        arm = name == "simgen.coverage_experiment"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = ARM_PREFIX + args[1] if arm else name
            rec = [len(tracer.spans), span_name, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(rec)
            tracer._stack.append(rec[0])
            result = err = None
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                err = exc
                raise
            finally:
                rec[3] = time.perf_counter()
                tracer._stack.pop()
                _count(name, tracer.counts, args, result, err)
        return traced

    def install(self, names=None):
        """Replace the traced functions; returns a callable that restores them.

        A site that no longer exists is skipped, so the affected metrics read
        zero calls instead of stopping the run."""
        saved = []
        for name in names or SITES:
            short = name.split(".")[-1]
            for mod_name in SITES[name]:
                mod = importlib.import_module("decals." + mod_name)
                fn = getattr(mod, short, None)
                if fn is None:
                    continue
                saved.append((mod, short, fn))
                setattr(mod, short, self.wrap(name, fn))

        def restore():
            for mod, short, fn in reversed(saved):
                setattr(mod, short, fn)
        return restore

    def totals(self):
        """{span name: (calls, seconds, self seconds)}."""
        child = collections.defaultdict(float)
        for sid, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, name, start, end, _ in self.spans:
            calls, s, self_s = out.get(name, (0, 0.0, 0.0))
            dur = end - start
            out[name] = (calls + 1, s + dur, self_s + dur - child[sid])
        return out

    def arm_seconds(self):
        """Seconds per simulate arm and replicates each arm ran."""
        tot = self.totals()
        return {arm: (tot.get(ARM_PREFIX + arm, (0, 0.0, 0.0))[1],
                      self.counts[f"simgen.replicates.{arm}"]) for arm in ARMS}


def layer_metrics(tracer: Tracer, names) -> dict:
    """Values of the declared per-layer metric names from one traced round.

    A name is '<span>.calls', '<span>.s', '<span>.self_s' or one of the
    counters recorded at a span boundary; covest.corrected_ratio is the share
    of run_decals iterations whose corrected moment regression succeeded."""
    tot = tracer.totals()
    counts = tracer.counts
    out = {}
    for metric in names:
        if metric == "covest.corrected_ratio":
            corrected = tot.get("covest.cts_covariance_corrected", (0,))[0]
            ok = corrected - counts["covest.cts_covariance_corrected.failed"]
            iters = counts["covest.run_decals.iterations"]
            out[metric] = ok / iters if iters else 0.0
            continue
        if metric in COUNTERS:
            out[metric] = counts[metric]
            continue
        span, _, field = metric.rpartition(".")
        calls, s, self_s = tot.get(span, (0, 0.0, 0.0))
        if field == "calls":
            out[metric] = calls
        elif field == "s":
            out[metric] = s
        elif field == "self_s":
            out[metric] = self_s
    return out
