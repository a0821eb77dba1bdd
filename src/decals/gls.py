"""Constrained generalized least squares: whitened fits, their covariance, and
the iterative variant that re-estimates subject covariances between passes.

`solve_gls` and `gls_covariance` take one sample (y (p,), Sigma (p, p)) or a
stack (Y (p, n), Sigma (n, p, p)) and whiten it in chunks of about a MB. Each
chunk passes a gate first: every Sigma_i - tau_i I, tau_i = 1e-10
||Sigma_i||_inf, must have a Cholesky factor. Since the max absolute row sum
bounds the largest eigenvalue, that proves the smallest eigenvalue lies above
1e-10 of the largest, so the eigenvalue floor below could not act. Only then
is each Sigma_i = L_i L_i' factored and the chunk whitened by the L_i^{-1}.
Any other chunk is whitened by the symmetric inverse square root with
eigenvalues floored at 1e-10 of the largest, which keeps near-singular and
even indefinite inputs runnable. Both give the same whitened problem wherever
the floor is inactive. The fit then solves every sample's whitened normal
equations in one stacked call of `qp.solve_simplex_normal`.

This is a comparison arm. The iterative variant feeds the raw (uncorrected,
unthresholded) covariance estimates back into the whitening step; those raw
estimates are routinely indefinite at moderate sample sizes, so it always
takes the floored eigendecomposition, and each pass's fit reuses the
W' Sigma_i^{-1} W that the previous pass's covariance step formed. The floor
inflates the inverse, and the reported uncertainty collapses. That failure
mode is in scope: the module exists to quantify how much worse the whitened
estimator behaves when its weight matrix must be estimated.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from . import qp
from .covest import DecalsResult, cts_covariance_raw_all, subject_covariance
from .deconv import estimate_proportions, _values
from .errors import (DimensionMismatch, NonConvergenceWarning, NonFinite,
                     SingularDesign, SingularSigma)

# Eigenvalues below this fraction of the largest are floored before inversion.
_EIG_FLOOR = 1e-10
# Bytes of (chunk, p, p) factors whitened at a time by solve_gls/gls_covariance.
# A chunk's few buffers of this size should stay in cache: on desk replicates
# (p=150, one core, one BLAS thread) the gls_oracle arm took 146-158 ms at
# 256 KiB to 2 MiB and 213 ms at 4 MiB.
_WHITEN_BYTES = 2 ** 20


def _chunks(n, p, nbytes=2 ** 27):
    # keep the (chunk, p, p) workspace around nbytes (default a quarter GB
    # for an eigendecomposition's input and eigenvectors)
    size = max(1, int(nbytes / (p * p * 8)))
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def _floored_eig(S, first=0):
    """Eigenpairs (w, Q) of a stack of symmetric matrices S (m, p, p), each
    matrix's eigenvalues floored at 1e-10 of its largest. An error names the
    failing matrix by its index in the stack plus `first`."""
    w, Q = np.linalg.eigh(S)
    top = w[:, -1]
    bad = top <= 0.0
    if bad.any():
        raise SingularSigma(f"matrix {first + int(np.argmax(bad))}: subject "
                            "covariance has no positive eigenvalue")
    return np.maximum(w, _EIG_FLOOR * top[:, None]), Q


def _cholesky_each(S) -> bool:
    """Factor each symmetric S[i] of a C-ordered stack in place; False at the
    first matrix that has no Cholesky factor. LAPACK factors the
    Fortran-ordered S[i].T, equal to S[i], so the lower factor L_i lands in
    the lower triangle of S[i].T. On any other layout LAPACK would factor a
    copy and leave S as it was."""
    if not S.flags.c_contiguous:
        raise ValueError("_cholesky_each factors C-ordered stacks only")
    for Si in S:
        if dpotrf(Si.T, lower=1, clean=0, overwrite_a=1)[1]:
            return False
    return True


def _whiten(Wv, S, Y=None):
    """Per chunk of samples, (sl, X): the slice sl of the stack and W
    (m, p, K), or [W | y_i] (m, p, K + 1) when Y is given, premultiplied by
    each sample's whitening matrix (module docstring)."""
    p, K = Wv.shape
    c = K if Y is None else K + 1
    for sl in _chunks(len(S), p, _WHITEN_BYTES):
        m = sl.stop - sl.start
        # each X[i] is Fortran-ordered, so LAPACK solves it in place
        X = np.empty((m, c, p)).transpose(0, 2, 1)
        X[:, :, :K] = Wv
        if Y is not None:
            X[:, :, K] = Y[:, sl].T
        # C-ordered whatever the layout of S, so that each Sc[i].T is
        # Fortran-ordered and factored in place
        Sc = np.add(S[sl], S[sl].transpose(0, 2, 1), order="C")
        Sc *= 0.5
        bad = ~np.isfinite(Sc).all(axis=(1, 2))
        if bad.any():
            raise NonFinite(f"matrix {sl.start + int(np.argmax(bad))}: "
                            "subject covariance contains NaN/Inf")
        # LAPACK one matrix at a time (scipy batches cholesky and
        # solve_triangular over a stack only from 1.15 on), all of it from
        # scipy's: numpy and scipy each bundle an OpenBLAS with its own thread
        # pool, and alternating between the two made each wait on the other.
        # With 2 BLAS threads on 2 vCPUs the arm is still about 1.3x slower
        # than with 1: OpenBLAS threads a p=150 dpotrf at a loss.
        tau = _EIG_FLOOR * np.abs(Sc).sum(axis=2).max(axis=1)
        gate = Sc.copy()
        gate.reshape(m, -1)[:, ::p + 1] -= tau[:, None]
        if _cholesky_each(gate) and _cholesky_each(Sc):
            for Li, Xi in zip(Sc, X):
                dtrtrs(Li.T, Xi, lower=1, overwrite_b=1)
            yield sl, X
            continue
        # the gate failed, or a failed factorization overwrote part of Sc
        Sc = 0.5 * (S[sl] + S[sl].transpose(0, 2, 1))
        w, Q = _floored_eig(Sc, sl.start)
        yield sl, (1.0 / np.sqrt(w))[:, :, None] * (Q.transpose(0, 2, 1) @ X)


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
    A = np.empty((len(S), K, K))
    a = np.empty((len(S), K))
    for sl, X in _whiten(Wv, S, Y.reshape(p, -1)):
        M = X.transpose(0, 2, 1) @ X
        A[sl], a[sl] = M[:, :K, :K], M[:, :K, K]
    return (qp.solve_simplex_normal(A[0], a[0]) if single
            else qp.solve_simplex_normal(A, a))


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
    for sl, X in _whiten(Wv, S):
        A[sl] = X.transpose(0, 2, 1) @ X
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
    A = np.empty((n, K, K))                  # last pass's W' Sigma_i^{-1} W
    fit = None                               # per chunk: sl, Q, W' Sigma^{-1} Q
    Vprev = None
    converged = False
    iterations = 0
    Sk = np.zeros((K, p, p))
    for t in range(max_iter):
        iterations = t + 1
        if fit is None:
            est = estimate_proportions(Wv, Yv)
        else:
            a = np.empty((n, K))
            for sl, Q, B in fit:
                Qty = Q.transpose(0, 2, 1) @ Yv[:, sl].T[:, :, None]
                a[sl] = np.einsum('mkp,mp->mk', B, Qty[:, :, 0])
            est = qp.solve_simplex_normal(A, a)
        Z = Yv - Wv @ est.T
        H = est ** 2
        Sk = cts_covariance_raw_all(H, Z)
        fit = []
        for sl in _chunks(n, p):
            w, Q = _floored_eig(subject_covariance(est[sl], Sk), sl.start)
            QtW = Q.transpose(0, 2, 1) @ Wv
            QtWw = QtW / w[:, :, None]
            A[sl] = QtW.transpose(0, 2, 1) @ QtWw
            V[sl] = _gls_cov(A[sl], p)
            fit.append((sl, Q, QtWw.transpose(0, 2, 1)))
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
