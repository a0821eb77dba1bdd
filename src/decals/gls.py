"""Constrained generalized least squares: whitened fits, their covariance, and
the iterative variant that re-estimates subject covariances between passes.
Both the one-sample covariance and the iterative variant use one batched
covariance kernel.

This is a comparison arm. The iterative variant feeds the raw (uncorrected,
unthresholded) covariance estimates back into the whitening step; those raw
estimates are routinely indefinite at moderate sample sizes, the eigenvalue
floor then inflates the inverse, and the reported uncertainty collapses. That
failure mode is in scope: the module exists to quantify how much worse the
whitened estimator behaves when its weight matrix must be estimated.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import qp
from .covest import (CtsCovarianceSet, DecalsResult, cts_covariance_raw_all,
                     subject_covariance)
from .deconv import (estimate_proportions, _package_estimates, _sample_ids,
                     _values)
from .errors import NonConvergenceWarning, NonFinite, SingularDesign, SingularSigma

# Eigenvalues below this fraction of the largest are floored before inversion.
_EIG_FLOOR = 1e-10


def _floored_eig(Sigma):
    S = _values(Sigma)
    S = 0.5 * (S + S.T)
    if not np.isfinite(S).all():
        raise NonFinite("subject covariance contains NaN/Inf")
    w, Q = np.linalg.eigh(S)
    if w[-1] <= 0.0:
        raise SingularSigma("subject covariance has no positive eigenvalue")
    return np.maximum(w, _EIG_FLOOR * w[-1]), Q


def solve_gls(W, y, Sigma_i) -> np.ndarray:
    """Simplex-constrained fit of the whitened problem.

    Whitening uses the symmetric inverse square root of Sigma_i with
    eigenvalues floored at 1e-10 of the largest, which keeps near-singular
    and even indefinite inputs runnable (their negative part is floored)."""
    w, Q = _floored_eig(Sigma_i)
    rw = 1.0 / np.sqrt(w)
    Wv = _values(W)
    y = np.asarray(y, dtype=float)
    Ww = rw[:, None] * (Q.T @ Wv)
    yw = rw * (Q.T @ y)
    return qp.solve_simplex_ls(Ww, yw)


def _whitened_gram(Wv, w, Q) -> np.ndarray:
    """A = W' Sigma^{-1} W for floored eigenpairs w (m, p), Q (m, p, p)."""
    QtW = Q.transpose(0, 2, 1) @ Wv
    return QtW.transpose(0, 2, 1) @ (QtW / w[:, :, None])


def _gls_cov(A, p) -> np.ndarray:
    """p * (A^{-1} - A^{-1} 1 (1' A^{-1} 1)^{-1} 1' A^{-1}) per (K, K) slice."""
    Ai = np.linalg.inv(A)
    s = Ai @ np.ones(A.shape[-1])
    V = p * (Ai - s[:, :, None] * s[:, None, :] / s.sum(axis=1)[:, None, None])
    return 0.5 * (V + V.transpose(0, 2, 1))


def gls_covariance(W, Sigma_i) -> np.ndarray:
    """Covariance (times p) of the whitened constrained estimator.

    p * (A^{-1} - A^{-1} 1 (1' A^{-1} 1)^{-1} 1' A^{-1}) with A = W' Sigma^{-1} W;
    same scale as the sandwich covariance, so /p gives the estimate covariance.
    """
    w, Q = _floored_eig(Sigma_i)
    Wv = _values(W)
    A = _whitened_gram(Wv, w[None], Q[None])
    qp.check_pd(A[0], 1e-12, SingularDesign,
                "whitened design W' Sigma^{-1} W is singular")
    return _gls_cov(A, Wv.shape[0])[0]


def _chunks(n, p):
    # keep the (chunk, p, p) eigendecomposition workspace around a quarter GB
    size = max(1, int(2 ** 27 / (p * p * 8)))
    return [np.arange(n)[i:i + size] for i in range(0, n, size)]


def run_gls_iterative(W, Y, *, max_iter: int = 50, tol: float = 1e-4
                      ) -> DecalsResult:
    """Alternate whitened fits and raw covariance re-estimation.

    Pass t fits proportions with the previous pass's subject covariances
    (identity on the first pass, so pass one reproduces the plain constrained
    fit), then re-estimates per-type covariances from the new residuals and
    rebuilds per-sample covariances V. Stops when V stabilizes in relative
    sup-norm or at max_iter (warning; last iterate returned)."""
    Wv, Yv = _values(W), _values(Y)
    p, K = Wv.shape
    n = Yv.shape[1]
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    run_warnings: list[str] = []

    V = np.empty((n, K, K))
    eig = None                               # floored eigh of each Sigma_i
    Vprev = None
    converged = False
    iterations = 0
    Sk = np.zeros((K, p, p))
    for t in range(max_iter):
        iterations = t + 1
        if eig is None:
            est = estimate_proportions(Wv, Yv)
        else:
            for idx, (w, Q) in zip(_chunks(n, p), eig):
                rw = 1.0 / np.sqrt(w)        # (m, p)
                QtW = Q.transpose(0, 2, 1) @ Wv
                Ww = rw[:, :, None] * QtW
                yw = rw * np.einsum('mqp,qm->mp', Q, Yv[:, idx])
                G = Ww.transpose(0, 2, 1) @ Ww
                a = np.einsum('mpk,mp->mk', Ww, yw)
                for j, i in enumerate(idx):
                    est[i] = qp.solve_simplex_normal(G[j], a[j])
        Z = Yv - Wv @ est.T
        H = est ** 2
        Sk = cts_covariance_raw_all(H, Z)
        eig = []
        for idx in _chunks(n, p):
            w, Q = np.linalg.eigh(subject_covariance(est[idx], Sk))
            top = w[:, -1]
            if (top <= 0.0).any():
                raise SingularSigma("estimated subject covariance has no "
                                    "positive eigenvalue")
            w = np.maximum(w, _EIG_FLOOR * top[:, None])
            eig.append((w, Q))
            V[idx] = _gls_cov(_whitened_gram(Wv, w, Q), p)
        if Vprev is not None:
            delta = (np.abs(V - Vprev).max(axis=(1, 2))
                     / (1.0 + np.abs(Vprev).max(axis=(1, 2)))).max()
            if delta < tol:
                converged = True
                break
        Vprev = V.copy()
    if not converged and max_iter > 1:
        msg = f"no convergence after {iterations} iterations"
        run_warnings.append(msg)
        warnings.warn(msg, NonConvergenceWarning)

    estimates = _package_estimates(est, V / p, _sample_ids(Y, n))
    cell_types = list(getattr(W, "cell_types", [str(k) for k in range(K)]))
    return DecalsResult(estimates, CtsCovarianceSet(Sk, cell_types),
                        iterations, converged, None, run_warnings)
