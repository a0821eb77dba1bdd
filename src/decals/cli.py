"""Command-line interface.

Subcommands: deconvolve (signature + bulk -> proportions with uncertainty),
simulate (seeded coverage and covariance-error studies), sample (resample
proportion sets from a deconvolution run), aggregate (per-draw p-values ->
final calls). Input formats are documented in FORMATS.md. Exit codes: 0 ok,
2 input error, 3 numerical error (linear-algebra failures included).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings

import numpy as np

from . import __version__, io
from .covest import run_decals
from .deconv import align_genes, wald_intervals
from .downstream import aggregate_calls, sample_proportion_sets
from .errors import (DecalsError, DimensionMismatch, DivisibilityError,
                     GeneMismatch, InsufficientSamples, NonFinite,
                     NonPositiveMean, ParseError)
from .simgen import (SimConfig, coverage_experiment, resolve_workers,
                     v_error_study)

EXIT_OK, EXIT_INPUT, EXIT_NUMERIC = 0, 2, 3

# bad files or configuration; everything else DecalsError is numerical, and
# so is np.linalg.LinAlgError although it subclasses ValueError
_INPUT_ERRORS = (ParseError, GeneMismatch, DimensionMismatch, NonFinite,
                 DivisibilityError, InsufficientSamples, NonPositiveMean,
                 ValueError)

_SCALES = {
    "desk": {"p": 150, "n": 200, "replicates": 50},
    "paper": {"p": 300, "n": 500, "replicates": 100},
}

# preset -> coverage-experiment methods (tableS1/noise handled separately)
_PRESETS = {
    "fig1": ["decals_uncorrected", "decals"],
    "fig2": ["decals_oracle", "gls_oracle", "decals", "gls_estimated"],
    "fig4": ["ols", "decals"],
    "noise": ["decals"],
    "tableS1": [],
}

_NOISE_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _versions():
    import scipy
    return {"decals": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": ".".join(map(str, sys.version_info[:3]))}


def _check_fraction(flag: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{flag} must be in (0, 1), got {value}")


def _check_min(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def cmd_deconvolve(args) -> int:
    _check_fraction("--level", args.level)
    _check_min("--seed", args.seed, 0)
    _check_min("--max-iter", args.max_iter, 1)
    if not args.tol > 0.0:                   # NaN or <= 0 never converges
        raise ValueError(f"--tol must be > 0, got {args.tol}")
    sig = io.read_signature_tsv(args.signature)
    bulk = io.read_bulk_tsv(args.bulk)
    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always")
        Wa, Ya = align_genes(sig, bulk)
        res = run_decals(Wa, Ya, sparse=args.sparse, correct=args.correct,
                         max_iter=args.max_iter, tol=args.tol,
                         lambdas=args.scad_lambda, seed=args.seed)
    # the record holds every warning, res.warnings included
    collected = [str(w.message) for w in wrec]

    os.makedirs(args.out, exist_ok=True)
    P, V = res.proportions, res.covariances
    ids = Ya.sample_ids
    cts = sig.cell_types
    io.write_proportions_csv(os.path.join(args.out, "proportions.csv"),
                             ids, cts, P)
    io.write_covariances_json(os.path.join(args.out, "covariances.json"),
                              ids, cts, V)
    lo, hi = wald_intervals(P, np.einsum('nkk->nk', V), args.level)
    io.write_intervals_csv(os.path.join(args.out, "intervals.csv"),
                           ids, cts, P, lo, hi)
    meta = {
        "command": "deconvolve",
        "signature": args.signature,
        "bulk": args.bulk,
        "options": {"sparse": args.sparse, "correct": args.correct,
                    "max_iter": args.max_iter, "tol": args.tol,
                    "seed": args.seed, "level": args.level,
                    "scad_lambda": args.scad_lambda},
        "genes_used": len(Wa.gene_ids),
        "samples": len(ids),
        "iterations": res.iterations,
        "converged": res.converged,
        "lambdas": res.lambdas,
        "trace": res.trace,
        "warnings": collected,
        "versions": _versions(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    io.write_json(os.path.join(args.out, "run_meta.json"), meta)

    print(f"deconvolved {len(ids)} samples over {len(Wa.gene_ids)} genes "
          f"({res.iterations} iterations, "
          f"{'converged' if res.converged else 'not converged'})")
    print(f"{'cell_type':<20}{'mean':>10}{'min':>10}{'max':>10}")
    for k, ct in enumerate(cts):
        print(f"{ct:<20}{P[:, k].mean():>10.4f}"
              f"{P[:, k].min():>10.4f}{P[:, k].max():>10.4f}")
    for msg in collected:
        print(f"warning: {msg}", file=sys.stderr)
    return EXIT_OK


def _coverage_config(args, **overrides) -> SimConfig:
    base = dict(_SCALES[args.scale])
    base["seed"] = args.seed
    if args.replicates is not None:
        base["replicates"] = args.replicates
    base.update(overrides)
    return SimConfig(**base)


def _print_report(report) -> None:
    print(f"{report.method:<22}" + "".join(
        f"{c:>10.4f}" for c in report.coverage)
        + f"{report.overall_coverage:>10.4f}")
    for msg in report.failures:
        print(f"warning: {report.method}: {msg}", file=sys.stderr)


def cmd_simulate(args) -> int:
    _check_fraction("--level", args.level)
    _check_min("--seed", args.seed, 0)
    _check_min("--gls-max-iter", args.gls_max_iter, 1)
    if args.replicates is not None:
        _check_min("--replicates", args.replicates, 1)
    if args.workers is not None:
        _check_min("--workers", args.workers, 1)
    workers = resolve_workers(args.workers)
    os.makedirs(args.out, exist_ok=True)
    if args.preset == "tableS1":
        sizes = _SCALES[args.scale]
        reps = args.replicates if args.replicates is not None else 10
        table = v_error_study(n=sizes["n"], replicates=reps, seed=args.seed,
                              workers=workers)
        io.write_json(os.path.join(args.out, "verror.json"), table.to_dict())
        rows = [["p", "signature_sd", "method", "entry", "mean", "se"]]
        for r in table.rows:
            for e, (mu, se) in enumerate(zip(r.means, r.ses)):
                l, m = table.entries[e]
                rows.append([str(r.p), io.fmt_csv(r.signature_sd), r.method,
                             f"{l}{m}", io.fmt_csv(mu), io.fmt_csv(se)])
        io.write_csv_rows(os.path.join(args.out, "verror.csv"), rows)
        print(f"{'p':>5}{'sd':>6}  {'method':<8}"
              + "".join(f"{a}{b:>9}" for a, b in table.entries))
        for r in table.rows:
            print(f"{r.p:>5}{r.signature_sd:>6.1f}  {r.method:<8}"
                  + "".join(f"{v:>10.2e}" for v in r.means))
        return EXIT_OK

    plot_rows = [["preset", "method", "noise_a0", "cell_type", "coverage",
                  "mean_width", "mean_abs_error"]]
    a0_grid = _NOISE_GRID if args.preset == "noise" else (0.0,)
    print(f"{'method':<22}" + "".join(
        f"{'type ' + str(k):>10}" for k in range(3)) + f"{'overall':>10}")
    for a0 in a0_grid:
        config = _coverage_config(args, noise_a0=a0)
        for method in _PRESETS[args.preset]:
            opts = ({"max_iter": args.gls_max_iter}
                    if method == "gls_estimated" else None)
            report = coverage_experiment(config, method, level=args.level,
                                         workers=workers,
                                         method_options=opts)
            tag = method if args.preset != "noise" else f"{method}_a{a0:g}"
            io.write_json(os.path.join(args.out, f"report_{tag}.json"),
                          report.to_dict())
            io.write_coverage_csv(
                os.path.join(args.out, f"coverage_{tag}.csv"), report)
            for k in range(config.K):
                plot_rows.append([args.preset, method, io.fmt_csv(a0), str(k),
                                  io.fmt_csv(report.coverage[k]),
                                  io.fmt_csv(report.mean_width[k]),
                                  io.fmt_csv(report.mean_abs_error[k])])
            _print_report(report)
    io.write_csv_rows(os.path.join(args.out, f"plot_{args.preset}.csv"),
                      plot_rows)
    return EXIT_OK


def cmd_sample(args) -> int:
    _check_min("--seed", args.seed, 0)
    _check_min("--draws", args.draws, 1)
    ids, cell_types, P, V = io.load_estimates(args.results)
    ds = sample_proportion_sets(P, V, args.draws, seed=args.seed,
                                sample_ids=ids, cell_types=cell_types)
    manifest = io.write_draws(args.out, ds)
    print(f"wrote {args.draws} draw files and {manifest}")
    return EXIT_OK


def cmd_aggregate(args) -> int:
    _check_fraction("--alpha", args.alpha)
    if args.draws is not None:
        _check_min("--draws", args.draws, 1)
    pvals = io.read_pvalues_csv(args.pvalues)
    if args.draws is not None:
        for (unit, ct), ps in pvals.items():
            if len(ps) != args.draws:
                raise ParseError(
                    f"({unit}, {ct}) has {len(ps)} p-values, expected "
                    f"{args.draws}")
    decisions = aggregate_calls(pvals, alpha=args.alpha)
    io.write_calls_csv(args.out, decisions)
    called = sum(d.called for d in decisions)
    print(f"{len(decisions)} hypotheses, {called} called")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decals",
        description="Cell-type deconvolution with sampling uncertainty. "
                    "File formats are documented in FORMATS.md.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser(
        "deconvolve", help="estimate proportions and their uncertainty",
        description="Read a signature TSV (gene id column + one column per "
                    "cell type) and a bulk TSV (gene id column + one column "
                    "per sample), align genes by id, and write "
                    "proportions.csv, covariances.json, intervals.csv and "
                    "run_meta.json to --out.")
    d.add_argument("--signature", required=True, metavar="TSV")
    d.add_argument("--bulk", required=True, metavar="TSV")
    d.add_argument("--out", required=True, metavar="DIR")
    d.add_argument("--level", type=float, default=0.95,
                   help="confidence level for intervals.csv (default 0.95)")
    d.add_argument("--sparse", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="SCAD-threshold the gene-gene covariances (default on)")
    d.add_argument("--no-correct", dest="correct", action="store_false",
                   help="disable the finite-sample bias correction")
    d.add_argument("--max-iter", type=int, default=50)
    d.add_argument("--tol", type=float, default=1e-4)
    d.add_argument("--seed", type=int, default=0,
                   help="seed for the cross-validation fold split")
    d.add_argument("--scad-lambda", type=float, nargs="+", default=None,
                   metavar="LAM",
                   help="fixed per-type threshold levels (skips "
                        "cross-validation; one value per cell type)")
    d.set_defaults(func=cmd_deconvolve)

    s = sub.add_parser(
        "simulate", help="seeded coverage / error studies",
        description="Run a preset study and write per-method reports "
                    "(JSON + tidy CSV) and a plot-data CSV to --out.")
    s.add_argument("--preset", required=True, choices=sorted(_PRESETS),
                   help="fig1: with/without bias correction; fig2: vs "
                        "generalized least squares; fig4: vs iid-error "
                        "baseline; noise: perturbed signature sweep; "
                        "tableS1: covariance estimation error grid")
    s.add_argument("--scale", choices=sorted(_SCALES), default="desk",
                   help="desk: p=150 n=200 50 replicates; "
                        "paper: p=300 n=500 100 replicates")
    s.add_argument("--out", required=True, metavar="DIR")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--replicates", type=int, default=None,
                   help="override the scale's replicate count")
    s.add_argument("--level", type=float, default=0.95)
    s.add_argument("--workers", type=int, default=None,
                   help="replicate worker processes (default "
                        "$DECALS_WORKERS or 1)")
    s.add_argument("--gls-max-iter", type=int, default=2,
                   help="iteration cap for the estimated-GLS arm (its "
                        "fixed point does not converge; kept small for "
                        "runtime)")
    s.set_defaults(func=cmd_simulate)

    m = sub.add_parser(
        "sample", help="draw proportion sets from a deconvolution run",
        description="Read proportions.csv + covariances.json from --results, "
                    "draw M proportion sets from each sample's Gaussian "
                    "approximation projected back to the simplex, and write "
                    "one CSV per draw plus manifest.json to --out.")
    m.add_argument("--results", required=True, metavar="DIR")
    m.add_argument("--draws", required=True, type=int, metavar="M")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--out", required=True, metavar="DIR")
    m.set_defaults(func=cmd_sample)

    a = sub.add_parser(
        "aggregate", help="aggregate per-draw p-values into calls",
        description="Read a CSV with columns draw_index,unit_id,cell_type,"
                    "p_value and write calls.csv; a hypothesis is called "
                    "when its draws with p < alpha exceed the cutoff "
                    "ceil(M*alpha + 2*sqrt(M*alpha*(1-alpha))).")
    a.add_argument("--pvalues", required=True, metavar="CSV")
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--draws", type=int, default=None,
                   help="expected draw count; mismatches become input errors")
    a.add_argument("--out", required=True, metavar="CSV")
    a.set_defaults(func=cmd_aggregate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except DecalsError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
