"""Seeded inputs for the deconvolve and pipeline workloads (numpy only).

Proportions are Dirichlet draws. Each cell type's expression profile is its
signature column plus Gaussian noise that is correlated within blocks of
consecutive genes (one shared factor per block, a correlation that differs by
type). A bulk sample is the proportion-weighted sum of its per-type profiles.
This module never imports decals, so a change to the package cannot change
the bytes a workload measures.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

BLOCK = 10                   # genes per correlated block
NOISE_SD = 2.0               # per-gene sd of a per-type profile around its mean
SIGNAL_FRACTION = 0.1        # share of (unit, cell type) hypotheses with signal
VALUE_FMT = "%.10g"          # precision of the generated TSV values


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_matrix_tsv(path, row_ids, col_names, M) -> np.ndarray:
    """Write a gene-by-column TSV; return the values exactly as written."""
    cells = np.char.mod(VALUE_FMT, M)
    lines = ["gene\t" + "\t".join(col_names)]
    lines += [rid + "\t" + "\t".join(row) for rid, row in zip(row_ids, cells.tolist())]
    _write_text(path, "\n".join(lines) + "\n")
    return cells.astype(float)


def deconvolve_arrays(rng, K: int, p: int, n: int):
    """Signature (p, K), true proportions (n, K) and bulk (p, n)."""
    W = rng.gamma(2.0, 1.0, (p, K))
    P = rng.dirichlet(np.linspace(3.0, 1.0, K), size=n)
    blocks = np.arange(p) // BLOCK
    nblocks = int(blocks[-1]) + 1
    Y = W @ P.T
    for k in range(K):
        rho = 0.2 + 0.5 * k / max(K - 1, 1)
        shared = rng.standard_normal((n, nblocks))[:, blocks]
        own = rng.standard_normal((n, p))
        noise = NOISE_SD * (np.sqrt(rho) * shared + np.sqrt(1.0 - rho) * own)
        Y += (noise * P[:, k:k + 1]).T
    return W, P, Y


def pvalue_array(rng, units: int, K: int, draws: int) -> np.ndarray:
    """(units, K, draws) per-draw p-values: uniform for null hypotheses,
    Beta(a, 1) with a per-hypothesis a in [0.1, 1] for the signal ones."""
    pv = rng.random((units, K, draws))
    signal = rng.random((units, K)) < SIGNAL_FRACTION
    a = rng.uniform(0.1, 1.0, (units, K))
    pv[signal] = pv[signal] ** (1.0 / a[signal][:, None])
    return pv


def write_pvalues_csv(path, unit_ids, cell_types, pv) -> None:
    """Draw-major rows, as a per-draw analysis would append them."""
    units, K, draws = pv.shape
    keys = [f"{u},{c}," for u in unit_ids for c in cell_types]
    lines = ["draw_index,unit_id,cell_type,p_value"]
    for m in range(draws):
        col = pv[:, :, m].ravel().tolist()
        lines += [f"{m},{key}{v!r}" for key, v in zip(keys, col)]
    _write_text(path, "\n".join(lines) + "\n")


def make_inputs(out_dir, seed: int, K: int, p: int, n: int,
                units: int = 0, draws: int = 0) -> dict:
    """Write signature.tsv, bulk.tsv (and pvalues.csv when units > 0) plus
    truth.npz with the arrays the output checks need.

    Returns {"files": {name: path}, "sha256": {name: digest}}."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    W, P, Y = deconvolve_arrays(rng, K, p, n)
    genes = [f"g{j:05d}" for j in range(p)]
    cell_types = [f"ct{k}" for k in range(K)]
    samples = [f"s{i:05d}" for i in range(n)]
    files = {"signature": os.path.join(out_dir, "signature.tsv"),
             "bulk": os.path.join(out_dir, "bulk.tsv")}
    arrays = {"W": write_matrix_tsv(files["signature"], genes, cell_types, W),
              "Y": write_matrix_tsv(files["bulk"], genes, samples, Y),
              "P": P}
    if units:
        pv = pvalue_array(rng, units, K, draws)
        files["pvalues"] = os.path.join(out_dir, "pvalues.csv")
        unit_ids = [f"u{u:05d}" for u in range(units)]
        write_pvalues_csv(files["pvalues"], unit_ids, cell_types, pv)
        arrays["pvalues"] = pv
    np.savez(os.path.join(out_dir, "truth.npz"), **arrays)
    return {"files": files,
            "sha256": {name: sha256_file(path) for name, path in files.items()}}
