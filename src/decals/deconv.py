"""Proportion estimation, asymptotic covariance, and confidence intervals.

Estimation solves a simplex-constrained least squares per sample. The sampling
covariance of the estimator follows the sandwich form V = U D U' built from the
design Gram matrix and a subject-level residual covariance; V has null vector 1
because the sum-to-one constraint removes variation along it. `sandwich`
builds V for every sample at once at the sqrt(p) scale, so that V/p is the
covariance of the estimate itself; a fit result stores the /p scale since
that is what intervals use, and `wald_intervals` builds them for every
sample at once.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import qp
from .errors import (DimensionMismatch, GeneMismatch, NonFinite,
                     SingularDesign)

# A proportion this close to 0 sits on the boundary where the normal
# approximation for its estimate is not guaranteed.
BOUNDARY_TOL = 1e-6


@dataclass
class SignatureMatrix:
    """Mean expression of p signature genes (rows) across K cell types."""
    values: np.ndarray
    gene_ids: list[str]
    cell_types: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        p, K = self.values.shape
        if len(self.gene_ids) != p or len(self.cell_types) != K:
            raise DimensionMismatch("id lists do not match matrix shape")
        if len(set(self.gene_ids)) != p:
            raise GeneMismatch("duplicate gene ids in signature")
        if len(set(self.cell_types)) != K:
            raise GeneMismatch("duplicate cell type names")
        if not np.isfinite(self.values).all():
            raise NonFinite("signature contains NaN/Inf")


@dataclass
class BulkMatrix:
    """Observed bulk expression, p genes (rows) by n samples (columns)."""
    values: np.ndarray
    gene_ids: list[str]
    sample_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        p, n = self.values.shape
        if len(self.gene_ids) != p or len(self.sample_ids) != n:
            raise DimensionMismatch("id lists do not match matrix shape")
        if len(set(self.gene_ids)) != p:
            raise GeneMismatch("duplicate gene ids in bulk matrix")
        if len(set(self.sample_ids)) != n:
            dup = next(s for s, c in Counter(self.sample_ids).items() if c > 1)
            raise GeneMismatch(f"duplicate sample id {dup!r} in bulk matrix")
        if not np.isfinite(self.values).all():
            raise NonFinite("bulk matrix contains NaN/Inf")


def _values(x):
    return np.asarray(getattr(x, "values", x), dtype=float)


def align_genes(W: SignatureMatrix, Y: BulkMatrix):
    """Match genes by id and reorder the bulk rows to signature order.

    Genes present on only one side are dropped (count reported via a warning).
    Raises GeneMismatch when no genes are shared.
    """
    bulk_index = {g: j for j, g in enumerate(Y.gene_ids)}
    keep_sig = [i for i, g in enumerate(W.gene_ids) if g in bulk_index]
    if not keep_sig:
        first = Y.gene_ids[0] if Y.gene_ids else "<empty>"
        raise GeneMismatch(f"no shared gene ids; first bulk id was {first!r}")
    keep_bulk = [bulk_index[W.gene_ids[i]] for i in keep_sig]
    dropped = len(W.gene_ids) + len(Y.gene_ids) - 2 * len(keep_sig)
    if dropped:
        warnings.warn(f"dropped {dropped} unmatched gene rows during alignment")
    Wa = SignatureMatrix(W.values[keep_sig], [W.gene_ids[i] for i in keep_sig],
                         list(W.cell_types))
    Ya = BulkMatrix(Y.values[keep_bulk], [Y.gene_ids[j] for j in keep_bulk],
                    list(Y.sample_ids))
    return Wa, Ya


def estimate_proportions(W, Y) -> np.ndarray:
    """Simplex-constrained least-squares proportions, shape (n, K): row i is
    sample i's estimate. One solver call factors W'W once for all samples;
    an error about one sample names it."""
    Wv, Yv = _values(W), _values(Y)
    if Wv.shape[0] != Yv.shape[0]:
        raise GeneMismatch(
            f"gene dimension mismatch: signature {Wv.shape[0]} vs bulk {Yv.shape[0]}")
    ids = getattr(Y, "sample_ids", range(Yv.shape[1]))
    names = [f"sample {sid}" for sid in ids]
    return qp.solve_simplex_ls(Wv, Yv, names=names)


def constraint_projector(W) -> tuple[np.ndarray, np.ndarray]:
    """Return (U, Omega_inv) for the sandwich covariance.

    Omega = W'W/p; U = I - Omega^{-1} 1 (1' Omega^{-1} 1)^{-1} 1' projects out
    the direction the sum-to-one constraint fixes.
    """
    Wv = _values(W)
    p, K = Wv.shape
    Om = Wv.T @ Wv / p
    qp.check_pd(Om, 1e-10, SingularDesign, "W'W numerically singular")
    Omi = np.linalg.inv(Om)
    ones = np.ones(K)
    s = Omi @ ones
    U = np.eye(K) - np.outer(s, ones) / (ones @ s)
    return U, Omi


def sandwich(W, S, H) -> np.ndarray:
    """Sandwich covariances V_i of sqrt(p) * (estimate - truth), shape (n, K, K).

    V_i = U D_i U' with D_i = sum_k H_ik Omega^{-1} (W' S_k W / p) Omega^{-1}
    for error covariances S (m, p, p) and weights H (n, m); with S the
    per-type covariances and H the squared proportions, sum_k H_ik S_k is
    sample i's subject covariance. Symmetric, PSD, and V_i 1 = 0. Divide by
    p for the covariance of the estimate."""
    Wv = _values(W)
    p = Wv.shape[0]
    U, Omi = constraint_projector(Wv)
    G = np.stack([Wv.T @ Sk @ Wv / p for Sk in S])
    A = np.einsum('ab,kbc,cd->kad', Omi, G, Omi)
    V = np.einsum('ab,nbc,dc->nad', U, np.einsum('nk,kab->nab', H, A), U)
    return 0.5 * (V + V.transpose(0, 2, 1))


def wald_intervals(P, var, level: float):
    """Wald intervals estimate +- z * sd, truncated to [0, 1].

    P and var (per-coordinate variances, negatives read as 0) share any
    shape; returns (lower, upper) of that shape."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0,1), got {level}")
    z = ndtri(0.5 * (1.0 + level))
    half = z * np.sqrt(np.clip(var, 0.0, None))
    return np.clip(P - half, 0.0, 1.0), np.clip(P + half, 0.0, 1.0)
