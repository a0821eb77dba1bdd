"""One workload in a fresh process: import decals, warm up, time rounds.

run.py starts this script with the environment it pins (import path, BLAS
threads, no DECALS_WORKERS) and reads the JSON file named by --result. Each
round runs the workload's decals commands in process through cli.main and
checks every output outside the timed region. The process pins itself to one
core and times a speed probe before and after each command, which turns the
command's wall time into reference seconds (see probe). With --trace 1
untraced and traced rounds alternate: the traced ones give the per-layer
metrics and each pair's difference the tracing overhead.
"""

import time

T0 = time.perf_counter()      # setup_s counts from here: imports + warm-up

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics

DRAWS = 100                   # pipeline_samples: sample --draws / aggregate --draws
ALPHA = 0.05
SIM_PRESETS = ("fig1", "fig2", "fig4")
SIM_REPLICATES = 3
TINY_SIM_REPLICATES = 1


def load_decals(root):
    import decals
    src = os.path.join(os.path.realpath(root), "src")
    if not os.path.realpath(decals.__file__).startswith(src + os.sep):
        raise SystemExit(f"decals was imported from {decals.__file__}, not {src}")
    return decals


PROBE_SUBS = 7               # timed pieces per speed probe, each 5 eigh of 150 x 150
PROBE_REF_S = 0.0136         # median piece time on the reference host
_PROBE = []


def probe():
    """Median seconds of a fixed piece of numpy work that involves no decals code.

    The speed of a shared host's core swings by up to 2x within seconds and
    drifts from minute to minute, and decals slows down with it. A probe runs
    right before and right after every timed command, on the same pinned
    core; the command's wall time scaled by PROBE_REF_S over the mean of the
    two is its time in reference seconds, on a core as fast as the reference
    one. The median of several pieces drops a piece that a preemption
    stretched."""
    import numpy as np
    if not _PROBE:
        a = np.random.default_rng(0).standard_normal((150, 150))
        _PROBE.append(a + a.T)
    gc.collect()
    pieces = []
    for _ in range(PROBE_SUBS):
        t = time.perf_counter()
        for _ in range(5):
            np.linalg.eigh(_PROBE[0])
        pieces.append(time.perf_counter() - t)
    return statistics.median(pieces)


def run_cli(argv):
    """One decals command in this process: (seconds, exit code)."""
    from decals import cli
    t = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:           # argparse rejects its arguments
        code = exc.code
    return time.perf_counter() - t, code


class Round:
    """Timings, operation counts and coverage of one pass of a workload."""

    def __init__(self):
        self.times = {}
        self.attempted = 0
        self.failures = []
        self.coverage = None
        self.probes = []
        self.ref_s = 0.0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def checks(self, triples):
        for name, ok, detail in triples:
            self.op(ok, f"check {name} {detail}".strip())

    def command(self, metric, argv):
        before = probe()
        gc.collect()
        s, code = run_cli(argv)
        after = probe()
        self.probes.append((before, after))
        self.times[metric] = self.times.get(metric, 0.0) + s
        self.ref_s += s * PROBE_REF_S / (0.5 * (before + after))
        self.op(code == 0, f"{argv[0]} exited {code}")
        return code == 0

    def to_dict(self):
        return {"times": self.times, "attempted": self.attempted,
                "failures": self.failures, "coverage": self.coverage,
                "probes": self.probes}


class Context:
    def __init__(self, args):
        import numpy as np
        self.args = args
        self.inputs = os.path.join(args.work, "inputs")
        self.files = {name: os.path.join(self.inputs, f)
                      for name, f in (("signature", "signature.tsv"),
                                      ("bulk", "bulk.tsv"),
                                      ("pvalues", "pvalues.csv"))}
        truth_path = os.path.join(self.inputs, "truth.npz")
        self.truth = dict(np.load(truth_path)) if os.path.exists(truth_path) else {}
        self.rounds_dir = os.path.join(args.work, "rounds")

    def fresh_dir(self, name):
        path = os.path.join(self.rounds_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def deconvolve_step(ctx, rnd, out):
    import checks
    ok = rnd.command("deconvolve_s", [
        "deconvolve", "--signature", ctx.files["signature"],
        "--bulk", ctx.files["bulk"], "--out", out])
    if ok:
        triples, rnd.coverage = checks.check_deconvolve(out, ctx.truth)
        rnd.checks(triples)
    return ok


def round_fit_genes(ctx, rnd, tracer):
    deconvolve_step(ctx, rnd, ctx.fresh_dir("results"))


def round_pipeline_samples(ctx, rnd, tracer):
    import checks
    results = ctx.fresh_dir("results")
    if deconvolve_step(ctx, rnd, results):
        draws = os.path.join(ctx.fresh_dir("draws"), "out")
        if rnd.command("sample_s", ["sample", "--results", results,
                                    "--draws", str(DRAWS),
                                    "--seed", str(ctx.args.seed),
                                    "--out", draws]):
            rnd.checks(checks.check_draws(draws, results, DRAWS))
    pv = ctx.truth["pvalues"]
    units, K, draws_n = pv.shape
    calls = os.path.join(ctx.fresh_dir("calls"), "calls.csv")
    if rnd.command("aggregate_s", ["aggregate", "--pvalues", ctx.files["pvalues"],
                                   "--alpha", str(ALPHA), "--draws", str(draws_n),
                                   "--out", calls]):
        rnd.checks(checks.check_calls(
            calls, pv, [f"u{u:05d}" for u in range(units)],
            [f"ct{k}" for k in range(K)], ALPHA))


def round_simulate_desk(ctx, rnd, tracer):
    import checks
    reps = TINY_SIM_REPLICATES if ctx.args.tiny else SIM_REPLICATES
    for preset in SIM_PRESETS:
        out = ctx.fresh_dir(preset)
        ok = rnd.command("simulate_s", [
            "simulate", "--preset", preset, "--scale", "desk",
            "--replicates", str(reps), "--seed", str(ctx.args.seed),
            "--workers", "1", "--gls-max-iter", "2", "--out", out])
        if not ok:
            continue
        rnd.op(os.path.exists(os.path.join(out, f"plot_{preset}.csv")),
               f"check plot_{preset}.csv written")
        for name in sorted(os.listdir(out)):
            if not (name.startswith("report_") and name.endswith(".json")):
                continue
            triples, failures, overall = checks.check_report(
                os.path.join(out, name), reps)
            rnd.checks(triples)
            rnd.attempted += reps                     # one operation per replicate
            rnd.failures += [f"{name}: {f}" for f in failures]
            if name == "report_decals.json":
                rnd.coverage = overall
    for arm, (seconds, replicates) in tracer.arm_seconds().items():
        if replicates:
            rnd.times[f"replicate_s.{arm}"] = seconds / replicates


ROUNDS = {"fit_genes": round_fit_genes,
          "pipeline_samples": round_pipeline_samples,
          "simulate_desk": round_simulate_desk}


def warm_up(args):
    """The one call setup_s includes: a tiny deconvolve through the CLI."""
    warm = os.path.join(args.work, "warm")
    _, code = run_cli(["deconvolve", "--signature", os.path.join(warm, "signature.tsv"),
                       "--bulk", os.path.join(warm, "bulk.tsv"),
                       "--out", os.path.join(warm, "results")])
    if code != 0:
        raise SystemExit(f"warm-up deconvolve exited {code}")


def warm_up_workload(args):
    """Untimed first calls of the other code paths a workload takes."""
    warm = os.path.join(args.work, "warm")
    if args.workload == "pipeline_samples":
        for argv in (["sample", "--results", os.path.join(warm, "results"),
                      "--draws", "4", "--out", os.path.join(warm, "draws")],
                     ["aggregate", "--pvalues", os.path.join(warm, "pvalues.csv"),
                      "--out", os.path.join(warm, "calls.csv")]):
            if run_cli(argv)[1] != 0:
                raise SystemExit(f"warm-up {argv[0]} failed")
    elif args.workload == "simulate_desk":
        from decals.simgen import METHODS, SimConfig, coverage_experiment
        config = SimConfig(p=30, n=40, replicates=1, seed=0)
        for method in METHODS:
            coverage_experiment(config, method, workers=1,
                                method_options={"max_iter": 2}
                                if method == "gls_estimated" else None)


def median_round(rounds):
    keys = sorted({k for r in rounds for k in r.times})
    return {k: statistics.median(r.times[k] for r in rounds if k in r.times)
            for k in keys}


def run_rounds(ctx, seconds, round_fn, cycle):
    """Rounds in whole cycles; cycle lists the traced names of each round
    (tracer.install semantics). At least one cycle; another starts while it
    would end no more than half a cycle after `seconds`, so the round count
    does not hinge on noise. Returns [(Round, Tracer)]."""
    import tracer as tracing
    out = []
    start = time.perf_counter()
    while True:
        for names in cycle:
            tracer = tracing.Tracer()
            restore = tracer.install(names)
            rnd = Round()
            try:
                round_fn(ctx, rnd, tracer)
            finally:
                restore()
            rnd.times["workload_s"] = sum(
                v for k, v in rnd.times.items() if not k.startswith("replicate_s."))
            rnd.times["workload_ref_s"] = rnd.ref_s
            shutil.rmtree(ctx.rounds_dir, ignore_errors=True)
            out.append((rnd, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed * len(cycle) / len(out) > seconds:
            return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", help="trace mode: write the spans here")
    args = ap.parse_args(argv)

    # one core: the speed probes then time the core that runs decals
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    decals = load_decals(args.root)
    warm_up(args)
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        import numpy
        import scipy
        import tracer as tracing
        warm_up_workload(args)
        ctx = Context(args)
        round_fn = ROUNDS[args.workload]
        arms_only = ["simgen.coverage_experiment"]
        if args.trace:
            pairs = run_rounds(ctx, args.seconds, round_fn, (arms_only, None))
            timed = [r for r, _ in pairs[0::2]]
            traced = pairs[1::2]
            rounds = [r for r, _ in pairs]
            with open(os.path.join(args.root, "BENCHMARK.json"), encoding="utf-8") as fh:
                names = [m["name"] for m in json.load(fh)["per_layer"]]
            per_round = []
            for plain, (rnd, tracer) in zip(timed, traced):
                values = tracing.layer_metrics(tracer, names)
                values["trace.spans"] = len(tracer.spans)
                values["trace.overhead_s"] = (rnd.times["workload_s"]
                                              - plain.times["workload_s"])
                if rnd.coverage is not None:
                    values["coverage_gap"] = abs(rnd.coverage - 0.95)
                per_round.append(values)
            result["layer"] = {k: statistics.median(v[k] for v in per_round)
                               for k in per_round[0]}
            result["traced"] = median_round([r for r, _ in traced])
            if args.spans:
                with open(args.spans, "w", encoding="utf-8") as fh:
                    json.dump({"fields": ["id", "name", "start", "end", "parent"],
                               "rounds": [t.spans for _, t in traced]}, fh)
        else:
            rounds = [r for r, _ in run_rounds(ctx, args.seconds, round_fn, (arms_only,))]
            timed = rounds
        result.update({
            "rounds": [r.to_dict() for r in rounds],
            "median": median_round(timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": {"decals": decals.__version__, "numpy": numpy.__version__,
                         "scipy": scipy.__version__,
                         "python": platform.python_version()},
        })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
