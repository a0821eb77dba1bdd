"""Median and quartile spread of benchmark runs, per workload and metric.

    python3 bench/summarize.py [--write bench/baseline.json]

Reads the bench/out/result-*.json files that bench/run.py leaves and prints,
separately for timed and traced runs, every metric's run count, median and
(q3 - q1) / median with the quartiles from statistics.quantiles(values, n=4).
--write stores the same tables as JSON together with the machine description
of the runs.
"""

import argparse
import glob
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))


def load(trace):
    runs = {}
    for path in sorted(glob.glob(os.path.join(HERE, "out", f"result-*-trace{trace}.json"))):
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        if not rep["tiny"]:
            runs.setdefault(rep["workload"], []).append(rep)
    return runs


def table(reports, trace):
    values = {}
    for rep in reports:
        flat = dict(rep["layer"]) if trace else dict(rep["end_to_end"])
        if not trace:
            flat.update(rep["commands"])
            flat["coverage_gap"] = rep["coverage_gap"]
            flat["failed_frac"] = rep["failed_frac"]
        for k, v in flat.items():
            values.setdefault(k, []).append(v)
    out = {}
    for k, vs in values.items():
        med = statistics.median(vs)
        row = {"runs": len(vs), "median": med}
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            row["spread"] = (q3 - q1) / med
        out[k] = row
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--write", metavar="JSON")
    args = ap.parse_args()
    summary = {}
    for trace, kind in ((0, "timed"), (1, "traced")):
        for workload, reports in sorted(load(trace).items()):
            entry = summary.setdefault(kind, {})[workload] = {
                "seeds": sorted(r["seed"] for r in reports),
                "machine": {k: reports[0][k] for k in ("versions", "cpu_count",
                                                       "blas_threads", "commit")},
                "metrics": table(reports, trace)}
            print(f"== {kind} {workload}: seeds {entry['seeds']}")
            for k, row in entry["metrics"].items():
                spread = f"{row['spread']:.3f}" if "spread" in row else "-"
                print(f"  {k:<44} n={row['runs']:<3} median={row['median']!r:<24} "
                      f"spread={spread}")
    if args.write:
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
