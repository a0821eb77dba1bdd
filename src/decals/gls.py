"""Constrained generalized least squares: whitened fits, their covariance, and
the iterative variant that re-estimates subject covariances between passes.

`solve_gls` and `gls_covariance` take one sample (y (p,), Sigma (p, p)) or a
stack (Y (p, n), Sigma (n, p, p)) and whiten it in chunks of a few MB. A chunk
is whitened by Cholesky factors Sigma_i = L_i L_i' when every Sigma_i - tau_i I,
tau_i = 1e-10 ||Sigma_i||_inf, also has a Cholesky factor: since the max
absolute row sum bounds the largest eigenvalue, that proves the smallest
eigenvalue lies above 1e-10 of the largest, so the eigenvalue floor below
could not act. Any other chunk is whitened by the symmetric inverse square
root with eigenvalues floored at 1e-10 of the largest, which keeps
near-singular and even indefinite inputs runnable. Both give the same
whitened problem wherever the floor is inactive.

This is a comparison arm. The iterative variant feeds the raw (uncorrected,
unthresholded) covariance estimates back into the whitening step; those raw
estimates are routinely indefinite at moderate sample sizes, so it always
takes the floored eigendecomposition; the floor then inflates the inverse,
and the reported uncertainty collapses. That failure mode is in scope: the
module exists to quantify how much worse the whitened estimator behaves when
its weight matrix must be estimated.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from . import qp
from .covest import DecalsResult, cts_covariance_raw_all, subject_covariance
from .deconv import estimate_proportions, _values
from .errors import (DimensionMismatch, NonConvergenceWarning, NonFinite,
                     SingularDesign, SingularSigma)

# Eigenvalues below this fraction of the largest are floored before inversion.
_EIG_FLOOR = 1e-10
# Bytes of (chunk, p, p) factors whitened at a time by solve_gls/gls_covariance.
_WHITEN_BYTES = 2 ** 22


def _chunks(n, p, nbytes=2 ** 27):
    # keep the (chunk, p, p) workspace around nbytes (default a quarter GB
    # for an eigendecomposition's input and eigenvectors)
    size = max(1, int(nbytes / (p * p * 8)))
    return [np.arange(n)[i:i + size] for i in range(0, n, size)]


def _floored_eig(S):
    """Eigenpairs (w, Q) of a stack of symmetric matrices S (m, p, p), each
    matrix's eigenvalues floored at 1e-10 of its largest."""
    w, Q = np.linalg.eigh(S)
    top = w[:, -1]
    if (top <= 0.0).any():
        raise SingularSigma("subject covariance has no positive eigenvalue")
    return np.maximum(w, _EIG_FLOOR * top[:, None]), Q


def _whiten(Wv, S, Y=None):
    """Per chunk of samples, (idx, X): W (m, p, K), or [W | y_i]
    (m, p, K + 1) when Y is given, premultiplied by each sample's whitening
    matrix (module docstring)."""
    p, K = Wv.shape
    eye = np.eye(p)
    for idx in _chunks(len(S), p, _WHITEN_BYTES):
        X = np.broadcast_to(Wv, (len(idx), p, K))
        if Y is not None:
            X = np.concatenate([X, Y[:, idx].T[:, :, None]], axis=2)
        Sc = 0.5 * (S[idx] + S[idx].transpose(0, 2, 1))
        if not np.isfinite(Sc).all():
            raise NonFinite("subject covariance contains NaN/Inf")
        # scipy's cholesky, not numpy's: alternating calls into numpy's and
        # scipy's separate OpenBLAS thread pools made each wait on the other
        # (about 3x slower on a 2-vCPU VM with 2 BLAS threads)
        try:
            L = cholesky(Sc, lower=True, check_finite=False)
            tau = _EIG_FLOOR * np.abs(Sc).sum(axis=2).max(axis=1)
            cholesky(Sc - tau[:, None, None] * eye, check_finite=False)
        except np.linalg.LinAlgError:
            w, Q = _floored_eig(Sc)
            yield idx, (1.0 / np.sqrt(w))[:, :, None] * (Q.transpose(0, 2, 1) @ X)
        else:
            yield idx, solve_triangular(L, X, lower=True, check_finite=False)


def _sigma_stack(Wv, Sigma):
    """Sigma as an (n, p, p) stack, and whether it was one (p, p) matrix."""
    S = _values(Sigma)
    p = Wv.shape[0]
    if S.ndim not in (2, 3) or S.shape[-2:] != (p, p):
        raise DimensionMismatch(
            f"subject covariance {S.shape} does not match p={p}")
    return S.reshape(-1, p, p), S.ndim == 2


def solve_gls(W, y, Sigma) -> np.ndarray:
    """Simplex-constrained fit of the whitened problem.

    y (p,) with Sigma (p, p) gives one fit (K,); Y (p, n) with Sigma
    (n, p, p) gives each sample's fit, (n, K). Whitening as in the module
    docstring."""
    Wv = _values(W)
    S, single = _sigma_stack(Wv, Sigma)
    Y = np.asarray(y, dtype=float)
    p, K = Wv.shape
    if Y.shape != ((p,) if single else (p, len(S))):
        raise DimensionMismatch(f"responses {Y.shape} do not match "
                                f"{len(S)} subject covariances of size {p}")
    out = np.empty((len(S), K))
    for idx, X in _whiten(Wv, S, Y.reshape(p, -1)):
        for j, i in enumerate(idx):
            out[i] = qp.solve_simplex_ls(X[j, :, :K], X[j, :, K])
    return out[0] if single else out


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


def gls_covariance(W, Sigma) -> np.ndarray:
    """Covariance (times p) of the whitened constrained estimator.

    p * (A^{-1} - A^{-1} 1 (1' A^{-1} 1)^{-1} 1' A^{-1}) with A = W' Sigma^{-1} W;
    same scale as the sandwich covariance, so /p gives the estimate covariance.
    Sigma (p, p) gives one (K, K) covariance, Sigma (n, p, p) a stack
    (n, K, K).
    """
    Wv = _values(W)
    S, single = _sigma_stack(Wv, Sigma)
    p, K = Wv.shape
    A = np.empty((len(S), K, K))
    for idx, X in _whiten(Wv, S):
        A[idx] = X.transpose(0, 2, 1) @ X
    qp.check_pd(A[0] if single else A, 1e-12, SingularDesign,
                "whitened design W' Sigma^{-1} W is singular")
    V = _gls_cov(A, p)
    return V[0] if single else V


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
    if not tol > 0.0:                        # NaN or <= 0 never converges
        raise ValueError(f"tol must be > 0, got {tol}")
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
            w, Q = _floored_eig(subject_covariance(est[idx], Sk))
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

    return DecalsResult(est, V / p, Sk, iterations, converged, None,
                        run_warnings)
