"""Constrained generalized least squares: whitened fits, their covariance, and
the iterative variant that re-estimates subject covariances between passes.

`solve_gls` and `gls_covariance` take one sample (y (p,), Sigma (p, p)) or a
stack (Y (p, n), Sigma (n, p, p)) and whiten it in chunks of about a MB. The
stack is an array or a `covest.SubjectCovariances`, which keeps the model's
Sigma_i = sum_k pi_ik^2 Sigma^(k) in its per-type form and forms one chunk's
matrices at a time, so no (n, p, p) array is held. Each matrix then meets
its own gate, `qp._is_pd`: Sigma_i - tau_i I, tau_i = g ||Sigma_i||_inf
with g = `qp._PD_GATE` = 1e-10, must have a Cholesky factor. The max
absolute row sum bounds the largest eigenvalue, so that proves the smallest
lies above g times the largest, and the eigenvalue floor below, at the same
g, could not act. Only then is Sigma_i = L_i L_i' factored and the sample
whitened by L_i^{-1}. Any other Sigma_i is whitened by the symmetric
inverse square root with eigenvalues floored at g times the largest, which
keeps near-singular and even indefinite inputs runnable:
diag(max(w, g max w))^{-1/2} Z' U', from
the tridiagonal form Sigma_i = U T U', T = Z diag(w) Z', without forming the
eigenvectors U Z (Golub & Van Loan, Matrix Computations, 8.3). Both give the
same whitened problem wherever the floor is inactive, and since no matrix's
path depends on its neighbours, a stacked call gives each sample the bytes
of its one-sample call. The fit then solves every sample's whitened normal
equations in one stacked call of `qp.solve_simplex_normal`.

This is a comparison arm. The iterative variant feeds the raw (uncorrected,
unthresholded) covariance estimates back into the same whitening, as a
SubjectCovariances, and keeps only the whitened normal equations for the
next pass's fit; those raw estimates are routinely indefinite at moderate
sample sizes, so most matrices take the floor. The floor inflates the
inverse, and the reported uncertainty collapses. That failure mode is in
scope: the module exists to quantify how much worse the whitened estimator
behaves when its weight matrix must be estimated.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import lapack
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import (dormqr, dpotrf, dsbevd, dsytrd, dsytrd_lwork,
                                 dtrtrs)

from . import qp
from .covest import DecalsResult, SubjectCovariances, cts_covariance_raw_all
from .deconv import estimate_proportions, _values
from .errors import (DimensionMismatch, NonConvergenceWarning, NonFinite,
                     SingularDesign, SingularSigma)

# Bytes of (chunk, p, p) subject covariances whitened at a time. A chunk is
# the only stack whitening holds, and its buffers stay in cache: on desk
# replicates (p=150, one core, one BLAS thread) the gls_oracle arm took
# 146-158 ms at 256 KiB to 2 MiB and 213 ms at 4 MiB.
_WHITEN_BYTES = 2 ** 20


def _lapack(out, name, index):
    """The outputs of a LAPACK wrapper, less its info, which must be zero."""
    *values, info = out
    if info:
        raise LinAlgError(f"matrix {index}: LAPACK {name} returned {info}")
    return values


def _dstevd_band(d, e):
    """dstevd's (w, Z, info) from dsbevd, which runs the same divide and
    conquer on T stored as a band of width one, to the same bytes."""
    return dsbevd(np.array([d, np.append(e, 0.0)[:len(d)]]), lower=1)


# dstevd is wrapped only by scipy releases newer than the allowed 1.10
dstevd = getattr(lapack, "dstevd", _dstevd_band)


def _floor_whiten(Sc, Xi, i):
    """Premultiply the Fortran-ordered Xi (p, c) in place by the floored
    inverse square root of the symmetric, C-ordered Sc, which it overwrites,
    without forming its eigenvectors Q = U Z: Sc = U T U' (dsytrd), T = Z
    diag(w) Z' (dstevd), and Xi becomes diag(max(w, g max w))^{-1/2} Z'
    U' Xi, with g = qp._PD_GATE. An error names Sc as matrix i."""
    p = len(Sc)
    c, d, e, tau = _lapack(dsytrd(Sc.T, lower=1, overwrite_a=1,
                                  lwork=int(dsytrd_lwork(p, lower=1)[0])),
                           "dsytrd", i)
    if p > 1:                 # U = H_1 ... H_{p-1} acts on rows 2..p only
        Xi[1:] = _lapack(dormqr("L", "T", c[1:, :-1], tau, Xi[1:],
                                Xi.shape[1]), "dormqr", i)[0]
    w, Z = _lapack(dstevd(d, e if p > 1 else np.zeros(1)), "dstevd", i)
    if w[-1] <= 0.0:
        raise SingularSigma(f"matrix {i}: subject covariance has no "
                            "positive eigenvalue")
    r = 1.0 / np.sqrt(np.maximum(w, qp._PD_GATE * w[-1]))
    Xi[:] = r[:, None] * dgemm(1.0, Z, Xi, trans_a=1)


def _design(Wv, Yc, m):
    """m copies of W (p, K), or of [W | y_i] given the responses Yc (p, m),
    each Fortran-ordered so that LAPACK works on it in place."""
    p, K = Wv.shape
    X = np.empty((m, K + (Yc is not None), p)).transpose(0, 2, 1)
    X[:, :, :K] = Wv
    if Yc is not None:
        X[:, :, K] = Yc.T
    return X


def _whiten_chunk(Wv, S, Yc, first):
    """`_design(Wv, Yc, m)` premultiplied by the whitening matrix of each of
    the m subject covariances S[i], on the path its own gate picks (module
    docstring). Errors name S[i] as matrix first + i."""
    bad = ~np.isfinite(S).all(axis=(1, 2))
    if bad.any():
        raise NonFinite(f"matrix {first + int(np.argmax(bad))}: "
                        "subject covariance contains NaN/Inf")
    # LAPACK and BLAS one matrix at a time (scipy batches stacks only from
    # 1.15 on), all of it scipy's: numpy and scipy each bundle an OpenBLAS
    # with its own thread pool, and alternating made each wait on the other.
    X = _design(Wv, Yc, len(S))
    for i, (Si, Xi) in enumerate(zip(S, X), first):
        # C-ordered, so LAPACK works in place on Sc.T, which equals Sc
        Sc = 0.5 * np.add(Si, Si.T, order="C")
        if qp._is_pd(Sc):
            if not dpotrf(Sc.T, lower=1, clean=0, overwrite_a=1)[1]:
                dtrtrs(Sc.T, Xi, lower=1, overwrite_b=1)
                continue
            # the factor failed part way and wrote over Sc: form it again
            Sc = 0.5 * np.add(Si, Si.T, order="C")
        _floor_whiten(Sc, Xi, i)
    return X


def _normal_equations(Wv, S, Y=None):
    """The whitened normal equations of the n = len(S) samples: A =
    W' Sigma_i^{-1} W (n, K, K) and, when Y (p, n) is given, a =
    W' Sigma_i^{-1} y_i (n, K), one chunk at a time; S[sl] gives the
    samples sl's covariances."""
    p, K = Wv.shape
    n = len(S)
    A = np.empty((n, K, K))
    a = np.empty((n, K))
    size = max(1, _WHITEN_BYTES // (p * p * 8))
    for start in range(0, n, size):
        sl = slice(start, min(start + size, n))
        X = _whiten_chunk(Wv, S[sl], None if Y is None else Y[:, sl], start)
        M = X.transpose(0, 2, 1) @ X
        A[sl] = M[:, :K, :K]
        if Y is not None:
            a[sl] = M[:, :K, K]
    return A, a


def _sigma_stack(Wv, Sigma):
    """Sigma as an (n, p, p) stack, and whether it was one (p, p) matrix. A
    SubjectCovariances stays as it is: np.asarray would form all of it."""
    streamed = isinstance(Sigma, SubjectCovariances)
    S = Sigma if streamed else _values(Sigma)
    p = Wv.shape[0]
    if len(S.shape) not in (2, 3) or S.shape[-2:] != (p, p):
        raise DimensionMismatch(
            f"subject covariance {S.shape} does not match p={p}")
    return (S if streamed else S.reshape(-1, p, p)), len(S.shape) == 2


def solve_gls(W, y, Sigma) -> np.ndarray:
    """Simplex-constrained fit of the whitened problem.

    y (p,) with Sigma (p, p) gives one fit (K,); Y (p, n) with Sigma
    (n, p, p), an array or a SubjectCovariances, gives each sample's fit,
    (n, K). Whitening as in the module docstring."""
    Wv = _values(W)
    S, single = _sigma_stack(Wv, Sigma)
    Y = np.asarray(y, dtype=float)
    p = Wv.shape[0]
    if Y.shape != ((p,) if single else (p, len(S))):
        raise DimensionMismatch(f"responses {Y.shape} do not match "
                                f"{len(S)} subject covariances of size {p}")
    A, a = _normal_equations(Wv, S, Y.reshape(p, -1))
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
    Sigma (p, p) gives one (K, K) covariance, Sigma (n, p, p), an array or
    a SubjectCovariances, a stack (n, K, K).
    """
    Wv = _values(W)
    S, single = _sigma_stack(Wv, Sigma)
    A = _normal_equations(Wv, S)[0]
    qp.check_pd(A[0] if single else A, 1e-12, SingularDesign,
                "whitened design W' Sigma^{-1} W is singular")
    V = _gls_cov(A, Wv.shape[0])
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
    p = Wv.shape[0]
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0.0:                        # NaN or <= 0 never converges
        raise ValueError(f"tol must be > 0, got {tol}")
    run_warnings: list[str] = []

    A = a = None  # last pass's W' Sigma_i^{-1} W, W' Sigma_i^{-1} y_i
    Vprev = None
    converged = False
    iterations = 0
    for t in range(max_iter):
        iterations = t + 1
        est = (estimate_proportions(Wv, Yv) if A is None
               else qp.solve_simplex_normal(A, a))
        Sk = cts_covariance_raw_all(est ** 2, Yv - Wv @ est.T)
        A, a = _normal_equations(Wv, SubjectCovariances(est, Sk), Yv)
        V = _gls_cov(A, p)
        if Vprev is not None:
            delta = (np.abs(V - Vprev).max(axis=(1, 2))
                     / (1.0 + np.abs(Vprev).max(axis=(1, 2)))).max()
            if delta < tol:
                converged = True
                break
        Vprev = V
    if not converged and max_iter > 1:
        msg = f"no convergence after {iterations} iterations"
        run_warnings.append(msg)
        warnings.warn(msg, NonConvergenceWarning)

    return DecalsResult(est, V / p, Sk, iterations, converged, None,
                        run_warnings)
