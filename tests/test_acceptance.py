"""Acceptance suite: one test per release criterion.

Every test computes its numbers first, appends a PASS/FAIL line to the
report printed at session end, then asserts, so a failing criterion still
leaves a readable record of how far off it was.

The coverage experiments reuse one seeded desk-scale run (K=3, p=150,
n=200, 50 replicates, seed 0) shared across criteria so that method
comparisons are on identical replicate data.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import ACCEPTANCE_LINES, pg_simplex_ls, solve_equality_ls

from decals.covest import _bias_arrays, run_decals, scad_threshold
from decals.downstream import aggregate_calls, call_cutoff
from decals.qp import solve_simplex_ls
from decals.simgen import (
    SimConfig,
    coverage_experiment,
    replicate_dataset,
    replicate_rng,
    v_error_study,
)

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

_GLS_EST_REPS = 12           # estimated-GLS arm is slow; same first replicates


def _record(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] {num:02d} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _fmt_cov(c):
    return "[" + ", ".join(f"{v:.4f}" for v in c) + "]"


@pytest.fixture(scope="session")
def desk():
    """Shared desk-scale coverage runs, all on the same replicate seeds."""
    cfg = SimConfig(seed=0)
    out = {}
    t0 = time.perf_counter()
    out["decals"] = coverage_experiment(cfg, "decals")
    out["decals_seconds"] = time.perf_counter() - t0
    out["ols"] = coverage_experiment(cfg, "ols")
    out["decals_uncorrected"] = coverage_experiment(cfg, "decals_uncorrected")
    out["gls_oracle"] = coverage_experiment(cfg, "gls_oracle")
    out["gls_estimated"] = coverage_experiment(
        replace(cfg, replicates=_GLS_EST_REPS), "gls_estimated",
        method_options={"max_iter": 2})
    return out


def test_criterion_01_constrained_coverage(desk):
    cov = desk["decals"].coverage
    secs = desk["decals_seconds"]
    ok = bool(((cov >= 0.92) & (cov <= 0.98)).all() and secs <= 600.0)
    _record(1, "desk coverage, constrained estimator", ok,
            f"{_fmt_cov(cov)} in [0.92, 0.98], time <= 600s {secs <= 600.0}")


def test_criterion_02_iid_baseline_overcovers(desk):
    cov = desk["ols"].coverage
    ok = bool((cov > 0.95).all())
    _record(2, "iid-error baseline overcovers", ok,
            f"{_fmt_cov(cov)} all > 0.95")


def test_criterion_03_bias_correction_helps(desk):
    dev_c = np.abs(desk["decals"].coverage - 0.95).mean()
    dev_u = np.abs(desk["decals_uncorrected"].coverage - 0.95).mean()
    ok = bool(dev_c <= dev_u)
    _record(3, "bias correction tightens coverage", ok,
            f"mean |cov-0.95| corrected {dev_c:.4f} <= raw {dev_u:.4f}")


def test_criterion_04_gls_comparison(desk):
    cov_o = desk["gls_oracle"].coverage
    cov_e = desk["gls_estimated"].coverage
    # same replicates for the comparison arm
    cov_d = np.nanmean(desk["decals"].per_replicate[:_GLS_EST_REPS], axis=0)
    worse = np.abs(cov_e - 0.95) > np.abs(cov_d - 0.95)
    ok = bool(((cov_o >= 0.93) & (cov_o <= 0.97)).all() and worse.sum() >= 2)
    _record(4, "weighted fit: oracle works, plug-in degrades", ok,
            f"oracle {_fmt_cov(cov_o)} in [0.93, 0.97]; plug-in "
            f"{_fmt_cov(cov_e)} vs {_fmt_cov(cov_d)}: worse in "
            f"{int(worse.sum())}/3 types")


def test_criterion_05_noisy_signature_coverage():
    cfg = SimConfig(seed=0, noise_a0=0.5)
    cov = coverage_experiment(cfg, "decals").coverage
    ok = bool(((cov >= 0.90) & (cov <= 0.99)).all())
    _record(5, "coverage under signature noise 0.5", ok,
            f"{_fmt_cov(cov)} in [0.90, 0.99]")


def test_criterion_06_covariance_error_orderings():
    table = v_error_study(n=200, replicates=16, seed=0)
    rows = {(r.p, r.signature_sd, r.method): r.means for r in table.rows}
    checks = []
    for m in ("decals", "ols"):
        for sd in (1.0, 2.0):
            checks.append((rows[(300, sd, m)] < rows[(150, sd, m)]).all())
        for p in (150, 300):
            checks.append((rows[(p, 2.0, m)] < rows[(p, 1.0, m)]).all())
    for p in (150, 300):
        for sd in (1.0, 2.0):
            checks.append(
                (rows[(p, sd, "decals")] < rows[(p, sd, "ols")]).all())
    ok = bool(np.all(checks))
    _record(6, "covariance error orderings", ok,
            f"{int(np.sum(checks))}/{len(checks)} ordering blocks hold "
            "(more genes better, larger sd better, pipeline < baseline)")


def test_criterion_07_bias_terms_match_simulation():
    # Monte Carlo check of the moment-regression bias under Gaussian
    # estimation error: K=3, n=20, p=100, 1e5 draws, 3 MC sds.
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    K, n, p = 3, 20, 100
    M, chunks = 100_000, 20
    pi = rng.dirichlet([3.0, 2.0, 1.0], n)
    P1 = np.eye(K) - np.full((K, K), 1.0 / K)
    Vs = np.empty((n, K, K))
    for i in range(n):
        A = rng.normal(0.0, 1.0, (K, K))
        Vs[i] = P1 @ (A @ A.T) @ P1
    B1, B2 = _bias_arrays(pi, Vs, p)

    roots = []
    for i in range(n):
        w, Q = np.linalg.eigh(Vs[i] / p)
        roots.append(Q * np.sqrt(np.maximum(w, 0.0)))
    H_true = pi ** 2
    HtH_true = H_true.T @ H_true
    S = np.zeros((K, K))
    S2 = np.zeros((K, K))
    B2mc = np.zeros((n, K))
    B2sq = np.zeros((n, K))
    mc = M // chunks
    for _ in range(chunks):
        Zn = rng.standard_normal((n, mc, K))
        stat = np.zeros((mc, K, K))
        for i in range(n):
            Hh = (pi[i][None, :] + Zn[i] @ roots[i].T) ** 2
            stat += Hh[:, :, None] * Hh[:, None, :]
            B2mc[i] += (Hh - H_true[i]).sum(axis=0)
            B2sq[i] += ((Hh - H_true[i]) ** 2).sum(axis=0)
        d = stat - HtH_true
        S += d.sum(axis=0)
        S2 += (d ** 2).sum(axis=0)
    mean1 = S / M
    se1 = np.sqrt((S2 / M - mean1 ** 2) / M)
    z1 = float((np.abs(mean1 - B1) / se1).max())
    mean2 = B2mc / M
    se2 = np.sqrt((B2sq / M - mean2 ** 2) / M)
    z2 = float((np.abs(mean2 - B2) / se2).max())
    secs = time.perf_counter() - t0
    ok = bool(z1 <= 3.0 and z2 <= 3.0 and secs <= 60.0)
    _record(7, "bias terms match simulation", ok,
            f"max |dev|/SE: moment {z1:.2f}, mean {z2:.2f} (<= 3); "
            f"time <= 60s {secs <= 60.0}")


def test_criterion_08_solver_matches_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(2, 5))
        p = int(rng.integers(K + 2, 31))
        W = rng.normal(0.0, 1.0, (p, K))
        if rng.random() < 0.5:
            y = W @ rng.dirichlet(np.ones(K)) + rng.normal(0.0, 1.0, p)
        else:
            y = rng.normal(0.0, 2.0, p)
        ref = pg_simplex_ls(W, y)
        worst = max(worst, float(np.abs(solve_simplex_ls(W, y) - ref).max()))

    interior, worst_int = 0, 0.0
    for _ in range(80):
        W = rng.normal(0.0, 1.0, (20, 3))
        y = W @ rng.dirichlet([8.0, 8.0, 8.0]) + 0.01 * rng.normal(size=20)
        eq = solve_equality_ls(W, y)
        if eq.min() > 1e-6:
            interior += 1
            worst_int = max(worst_int, float(
                np.abs(solve_simplex_ls(W, y) - eq).max()))
    ok = bool(worst <= 1e-6 and interior >= 20 and worst_int <= 1e-8)
    # the deviations are rounding noise, whose digits move with any change
    # to the solver's arithmetic, so the line reports them against their
    # bounds
    _record(8, "active-set solver matches oracles", ok,
            f"200 instances: max dev vs projected gradient <= 1e-6 "
            f"{worst <= 1e-6}; {interior} interior cases vs equality solve "
            f"<= 1e-8 {worst_int <= 1e-8}")


def test_criterion_09_structural_invariants():
    cfg = SimConfig(seed=0)
    W, Wobs, P, Y, Sig = replicate_dataset(cfg, replicate_rng(cfg.seed, 0))
    res1 = run_decals(Wobs, Y)
    res2 = run_decals(Wobs, Y)
    sum_dev = sym_dev = eig_min = 0.0
    simplex_ok = True
    for V, pi in zip(res1.covariances, res1.proportions):
        sum_dev = max(sum_dev, float(np.abs(V.sum(axis=1)).max()))
        sym_dev = max(sym_dev, float(np.abs(V - V.T).max()))
        eig_min = min(eig_min, float(np.linalg.eigvalsh(V).min()))
        simplex_ok &= bool(pi.min() >= -1e-12 and abs(pi.sum() - 1.0) < 1e-9)
    cts_min = min(float(np.linalg.eigvalsh(Mk).min())
                  for Mk in res1.cts_covariances)
    cts_scale = max(1.0, float(np.abs(res1.cts_covariances).max()))
    det = float(np.abs(res1.proportions - res2.proportions).max())
    detv = float(np.abs(res1.covariances - res2.covariances).max())
    ok = bool(sum_dev <= 1e-6 and sym_dev <= 1e-10 and eig_min >= -1e-8
              and cts_min >= -1e-8 * cts_scale and simplex_ok
              and det == 0.0 and detv == 0.0)
    # the figures are rounding noise, whose digits move with the BLAS thread
    # count, so the line reports them against their bounds
    _record(9, "structural invariants of the fit", ok,
            f"max |V 1| <= 1e-6 {sum_dev <= 1e-6}, |V - V'| <= 1e-10 "
            f"{sym_dev <= 1e-10}, min eig >= -1e-8 {eig_min >= -1e-8}, min "
            f"cell-type-cov eig >= -1e-8 x scale {cts_min >= -1e-8 * cts_scale}"
            f", simplex {simplex_ok}, rerun dev {max(det, detv):.1e}")


def test_criterion_10_threshold_branch_values():
    lam, a = 0.1, 3.7
    got = np.array([
        scad_threshold(np.array([[1.0, 0.05], [0.05, 1.0]]), lam, a)[0, 1],
        scad_threshold(np.array([[1.0, 0.9], [0.9, 1.0]]), lam, a)[0, 1],
        scad_threshold(np.array([[1.0, 0.3], [0.3, 1.0]]), lam, a)[0, 1],
    ])
    want = np.array([0.0, 0.9, 0.2588235294117647])
    dev = float(np.abs(got - want).max())
    ok = bool(dev <= 1e-6)
    _record(10, "threshold branch values", ok,
            f"zero/keep/interpolate = {np.round(got, 7).tolist()}, "
            f"max dev {dev:.1e} <= 1e-6")


def test_criterion_11_call_aggregation_calibration():
    cut = call_cutoff(100, 0.05)
    pv = {("u_called", "t"): np.concatenate([np.full(11, 0.01),
                                             np.full(89, 0.5)]),
          ("u_not", "t"): np.concatenate([np.full(10, 0.01),
                                          np.full(90, 0.5)])}
    dec = {d.unit_id: d.called for d in aggregate_calls(pv, alpha=0.05)}
    boundary_ok = dec["u_called"] and not dec["u_not"]

    n_units, M, alpha = 10_000, 100, 0.05
    rng = np.random.default_rng(7)
    hits = (rng.uniform(size=(n_units, M)) < alpha).sum(axis=1)
    rate = float((hits > cut).mean())
    p_tail = float(stats.binom.sf(cut, M, alpha))
    se = np.sqrt(p_tail * (1.0 - p_tail) / n_units)
    z = abs(rate - p_tail) / se
    ok = bool(cut == 10 and boundary_ok and z <= 3.0)
    _record(11, "call aggregation calibration", ok,
            f"cutoff {cut} == 10, strict boundary {boundary_ok}, null call "
            f"rate {rate:.4f} vs binomial tail {p_tail:.4f} ({z:.2f} MC sds)")
