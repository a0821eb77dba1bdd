"""Checks on every output a timed command writes.

Each check returns a list of (name, ok, detail) triples; one triple is one
operation in the benchmark's attempted/failed count. The checks parse the
files themselves and recompute what they compare against from the generated
inputs, so they share no code with the package under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

SIMPLEX_TOL = 1e-12          # |row sum - 1| and negativity slack
KKT_TOL = 1e-10              # largest KKT residual over max |W'y|
COV_TOL = 1e-9               # symmetry, PSD and V.1 slack, relative to max |V|


def _rows(path, delimiter=","):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(delimiter), [ln.split(delimiter) for ln in lines[1:] if ln]


def read_matrix_csv(path):
    """(header, first-column ids, float matrix of the other columns)."""
    header, rows = _rows(path)
    cells = np.array(rows, dtype=object).reshape(len(rows), len(header))
    return header, list(cells[:, 0]), cells[:, 1:].astype(float)


def _check(name, ok, detail=""):
    return (name, bool(ok), detail)


def simplex_rows(name, X):
    X = np.asarray(X, dtype=float)
    worst_sum = float(np.abs(X.sum(axis=1) - 1.0).max())
    worst_neg = float(-min(X.min(), 0.0))
    return _check(name, worst_sum <= SIMPLEX_TOL and worst_neg == 0.0,
                  f"max |sum-1| {worst_sum:.2e}, most negative {-worst_neg:.2e}")


def kkt_ratio(W, Y, P) -> float:
    """max over samples of the simplex-LS KKT residual over max |W'y|.

    Stationarity across free coordinates, no smaller gradient on zero
    coordinates, sum-to-one and nonnegativity, as in the paper's solver."""
    G = (W @ P.T - Y).T @ W                      # (n, K) gradients
    free = P > 1e-10
    nfree = free.sum(axis=1)
    mu = np.where(nfree > 0, (G * free).sum(axis=1) / np.maximum(nfree, 1),
                  G.min(axis=1))
    res = np.abs(P.sum(axis=1) - 1.0)
    res = np.maximum(res, np.clip(-P.min(axis=1), 0.0, None))
    dev = np.where(free, np.abs(G - mu[:, None]), 0.0).max(axis=1)
    low = np.where(~free, mu[:, None] - G, 0.0).max(axis=1)
    res = np.maximum(res, np.maximum(dev, np.clip(low, 0.0, None)))
    scale = np.abs(Y.T @ W).max(axis=1)
    return float((res / scale).max())


def check_deconvolve(out_dir, truth, level=0.95):
    """Checks of proportions.csv, covariances.json and intervals.csv.

    Returns (checks, coverage) where coverage is the pooled share of
    intervals that contain the true proportions."""
    W, Y, P_true = truth["W"], truth["Y"], truth["P"]
    n, K = P_true.shape
    out = []
    header, ids, P = read_matrix_csv(os.path.join(out_dir, "proportions.csv"))
    out.append(_check("proportions.shape", P.shape == (n, K), f"{P.shape}"))
    if P.shape != (n, K):
        return out, float("nan")
    out.append(simplex_rows("proportions.simplex", P))
    ratio = kkt_ratio(W, Y, P)
    out.append(_check("proportions.kkt", ratio <= KKT_TOL, f"{ratio:.2e}"))

    with open(os.path.join(out_dir, "covariances.json"), encoding="utf-8") as fh:
        cov = json.load(fh)
    V = np.array(cov["covariances"], dtype=float)
    ok_shape = V.shape == (n, K, K) and cov["sample_ids"] == ids
    out.append(_check("covariances.shape", ok_shape, f"{V.shape}"))
    if ok_shape:
        scale = np.abs(V).max(axis=(1, 2)) + 1e-300
        asym = (np.abs(V - V.transpose(0, 2, 1)).max(axis=(1, 2)) / scale).max()
        low = (np.linalg.eigvalsh(0.5 * (V + V.transpose(0, 2, 1)))[:, 0] / scale).min()
        null = (np.abs(V.sum(axis=2)).max(axis=1) / scale).max()
        out.append(_check("covariances.symmetric", asym <= COV_TOL, f"{asym:.2e}"))
        out.append(_check("covariances.psd", low >= -COV_TOL, f"{low:.2e}"))
        out.append(_check("covariances.null_one", null <= COV_TOL, f"{null:.2e}"))

    _, rows = _rows(os.path.join(out_dir, "intervals.csv"))
    ok_rows = len(rows) == n * K and all(len(r) == 5 for r in rows)
    out.append(_check("intervals.shape", ok_rows, f"{len(rows)} rows"))
    if not ok_rows:
        return out, float("nan")
    vals = np.array([r[2:] for r in rows], dtype=float).reshape(n, K, 3)
    est, lo, hi = vals[:, :, 0], vals[:, :, 1], vals[:, :, 2]
    inside = (lo >= 0.0).all() and (hi <= 1.0).all()
    out.append(_check("intervals.unit_range", inside))
    out.append(_check("intervals.bracket", ((lo <= est) & (est <= hi)).all()
                      and np.array_equal(est, P)))
    coverage = float(((lo <= P_true) & (P_true <= hi)).mean())
    return out, coverage


def check_draws(draw_dir, proportions_dir, draws):
    """Manifest checksums, draw count, sample ids and simplex rows."""
    with open(os.path.join(draw_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    _, ids, _ = read_matrix_csv(os.path.join(proportions_dir, "proportions.csv"))
    files = manifest["files"]
    out = [_check("manifest.count", manifest["M"] == draws == len(files),
                  f"M={manifest['M']}, files={len(files)}")]
    for entry in files:
        path = os.path.join(draw_dir, entry["name"])
        with open(path, "rb") as fh:
            data = fh.read()
        out.append(_check(f"{entry['name']}.sha256",
                          hashlib.sha256(data).hexdigest() == entry["sha256"]))
        lines = data.decode("utf-8").splitlines()
        cells = np.array([ln.split(",") for ln in lines[1:]], dtype=object)
        ok_ids = cells.shape[0] == len(ids) and list(cells[:, 0]) == ids
        out.append(_check(f"{entry['name']}.sample_ids", ok_ids))
        if ok_ids:
            out.append(simplex_rows(f"{entry['name']}.simplex",
                                    cells[:, 1:].astype(float)))
    return out


def expected_calls(pvalues, unit_ids, cell_types, alpha):
    """calls.csv rows recomputed with ceil(M*a + 2*sqrt(M*a*(1-a)))."""
    M = pvalues.shape[2]
    cutoff = math.ceil(M * alpha + 2.0 * math.sqrt(M * alpha * (1.0 - alpha)))
    hits = (pvalues < alpha).sum(axis=2)
    rows = [[u, c, str(int(hits[i, k])), str(cutoff),
             "true" if hits[i, k] > cutoff else "false"]
            for i, u in enumerate(unit_ids) for k, c in enumerate(cell_types)]
    return sorted(rows, key=lambda r: (r[0], r[1]))


def check_calls(calls_path, pvalues, unit_ids, cell_types, alpha):
    header, rows = _rows(calls_path)
    want = expected_calls(pvalues, unit_ids, cell_types, alpha)
    mismatched = sum(a != b for a, b in zip(rows, want)) + abs(len(rows) - len(want))
    return [_check("calls.header", header == ["unit_id", "cell_type", "hit_count",
                                              "cutoff", "called"]),
            _check("calls.recomputed", mismatched == 0,
                   f"{mismatched} of {len(want)} rows differ")]


def check_report(path, replicates):
    """One simulate report: every replicate ran and coverage is a share.

    Returns (checks, failures, overall coverage)."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    cov = report["per_replicate"]
    ok = (len(cov) == replicates
          and all(v is None or 0.0 <= v <= 1.0 for row in cov for v in row))
    name = os.path.basename(path)
    return ([_check(f"{name}.shape", ok)], list(report["failures"]),
            report["overall_coverage"])
