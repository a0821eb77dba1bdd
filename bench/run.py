"""The decals benchmark: one seeded workload per invocation, from the repo root.

    python3 bench/run.py --workload fit_genes --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  fit_genes          decals deconvolve, K=6 cell types, p=600 genes, n=1000
  pipeline_samples   deconvolve (K=3, p=150, n=5000), sample --draws 100,
                     aggregate over 2000 units x 3 types x 100 draws
  simulate_desk      simulate --preset fig1/fig2/fig4 at desk scale
                     (p=150, n=200), 3 replicates, --workers 1
  all                the three above in turn, with one combined summary

The inputs of the first two come from gen.py and --seed; simulate_desk
passes --seed to decals simulate. Every run sets up several fresh processes
(import decals + a tiny warm-up deconvolve) for setup_s, then one workload
process, pinned to one core with one BLAS thread, times rounds of the
workload's commands for --seconds and checks every output. The bounded time,
workload_ref_s, is the median round's time in reference seconds: each
command's wall time scaled by a speed probe run around it on the same core
(child.probe), because a shared host's core speed swings by up to 2x. The
wall time itself, workload_s, and the per-command times are printed and
stored with it. --trace 1 instead traces the decals functions of every module
and reports the per-layer metrics. The last stdout line is one JSON object
with correct, attempted, failed and metrics; the exit code is 0 only when
every command and output check succeeded. Run outputs (per-run result files
and span dumps) go to bench/out/; bench/summarize.py tabulates them.

Self-tests, in a tiny mode: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEADLINE_S = 170.0            # each workload's run ends before this
SETUP_PROBES = 4              # fresh set-up processes besides the workload's own
BLAS_THREADS = 1              # one core per workload process (child.py pins it)

SHAPES = {
    "fit_genes": dict(K=6, p=600, n=1000),
    "pipeline_samples": dict(K=3, p=150, n=5000, units=2000, draws=100),
    "simulate_desk": None,
}
TINY_SHAPES = {
    "fit_genes": dict(K=6, p=60, n=60),
    "pipeline_samples": dict(K=3, p=30, n=60, units=20, draws=100),
    "simulate_desk": None,
}
WARM_SHAPE = dict(K=3, p=120, n=60, units=5, draws=10)
WORKLOAD_METRICS = {
    "fit_genes": ("deconvolve_s",),
    "pipeline_samples": ("deconvolve_s", "sample_s", "aggregate_s"),
    "simulate_desk": ("simulate_s", "replicate_s.decals",
                      "replicate_s.gls_oracle", "replicate_s.gls_estimated"),
}


def child_env():
    env = dict(os.environ)
    env.pop("DECALS_WORKERS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, deadline):
    """Run child.py to completion (killed at the deadline); its result dict."""
    result = args[args.index("--result") + 1]
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT] + args
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_workload(name, seed, seconds, trace, tiny, deadline):
    started = time.monotonic()
    work = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    shapes = TINY_SHAPES if tiny else SHAPES
    try:
        inputs = {}
        if shapes[name]:
            inputs = gen.make_inputs(os.path.join(work, "inputs"), seed, **shapes[name])
        gen.make_inputs(os.path.join(work, "warm"), 0, **WARM_SHAPE)
        base = ["--work", work]
        setups = [run_child(base + ["--result", os.path.join(work, f"setup{i}.json"),
                                    "--setup-only"], deadline)["setup_s"]
                  for i in range(SETUP_PROBES)]
        tag = f"{name}-seed{seed}-trace{trace}"
        argv = base + ["--result", os.path.join(work, "workload.json"),
                       "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
        if tiny:
            argv.append("--tiny")
        if trace:
            argv += ["--spans", os.path.join(OUT, f"spans-{tag}.json")]
        res = run_child(argv, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    attempted = sum(r["attempted"] for r in res["rounds"])
    failures = [f for r in res["rounds"] for f in r["failures"]]
    coverage = [r["coverage"] for r in res["rounds"] if r["coverage"] is not None]
    e2e = {"setup_s": statistics.median(setups),
           "workload_ref_s": res["median"].get("workload_ref_s"),
           "peak_rss_mb": res["peak_rss_mb"]}
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "rounds": len(res["rounds"]), "setup_samples": setups,
        "end_to_end": e2e,
        "commands": {k: res["median"].get(k)
                     for k in ("workload_s",) + WORKLOAD_METRICS[name]},
        "coverage_gap": abs(statistics.median(coverage) - 0.95) if coverage else None,
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "failures": failures[:50],
        "input_sha256": inputs.get("sha256", {}),
        "versions": res["versions"], "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "commit": commit(),
        "per_round": [r["times"] for r in res["rounds"]],
        "probe_s": [r["probes"] for r in res["rounds"]],
        "wall_s": time.monotonic() - started,
    }
    if trace:
        report["layer"] = res["layer"]
        report["trace_overhead"] = {
            k: res["traced"][k] - res["median"][k] for k in WORKLOAD_METRICS[name]
            if k in res["traced"] and k in res["median"]}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report, units):
    print(f"== {report['workload']} seed {report['seed']}: {report['rounds']} rounds, "
          f"inputs sha256 {report['input_sha256'] or 'from decals simulate'}")
    rows = dict(report["end_to_end"])
    rows.update(report["commands"])
    rows["coverage_gap"] = report["coverage_gap"]
    rows["failed_frac"] = report["failed_frac"]
    if report["trace"]:
        rows.update({f"traced-untraced {k}": v
                     for k, v in report["trace_overhead"].items()})
        rows.update(report["layer"])
    for key, value in rows.items():
        print(f"{key:<44} {value!r:>24} {units.get(key.split()[-1], '')}")
    for failure in report["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(SHAPES) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small shapes and one simulate replicate (self-tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "decals", "__init__.py")):
        print(f"error: no decals sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(dict.fromkeys(("workload_s", "deconvolve_s", "sample_s",
                                "aggregate_s", "simulate_s"), "s"))
    units.update({k: "s/replicate" for k in WORKLOAD_METRICS["simulate_desk"][1:]})
    units.update(coverage_gap="fraction", failed_frac="ratio")

    names = sorted(SHAPES) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args.seed, args.seconds, args.trace,
                                        args.tiny, deadline))
            print_report(reports[-1], units)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = {}
    for rep in reports:
        values = rep["layer"] if args.trace else rep["end_to_end"]
        prefix = f"{rep['workload']}." if len(reports) > 1 else ""
        for m in declared:
            metrics[prefix + m["name"]] = {"value": values.get(m["name"]),
                                           "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    complete = all(v["value"] is not None for v in metrics.values())
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
