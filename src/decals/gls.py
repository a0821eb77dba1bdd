"""Constrained generalized least squares: whitened fits, their covariance, and
the feasible variant that whitens by covariances estimated from residuals.

`solve_gls` and `gls_covariance` take one sample (y (p,), Sigma (p, p)) or a
stack (Y (p, n), Sigma (n, p, p)) and whiten it in chunks of about a MB. The
stack is an array or a `covest.SubjectCovariances`, which keeps the model's
Sigma_i = sum_k pi_ik^2 Sigma^(k) in its per-type form and forms one chunk's
matrices at a time, so no (n, p, p) array is held. Each Sigma_i must be
positive definite. It has to pass the gate `qp._is_pd` (Sigma_i - tau_i I,
tau_i = 1e-10 ||Sigma_i||_inf, has a Cholesky factor) or be proven to pass
it from its per-type form, sparing the gate's factor; then Sigma_i = L_i
L_i' is factored and the sample whitened by L_i^{-1}. Any other Sigma_i
raises SingularSigma, naming it by its index in the stack. No matrix's path
depends on its neighbours, so a stacked call gives each sample the bytes of
its one-sample call. The fit then solves every sample's whitened normal
equations in one stacked call of `qp.solve_simplex_normal`.

This is a comparison arm. The feasible variant plugs estimated weights into
the same whitening: from a fit's residuals it estimates the per-type
covariances by the raw (uncorrected, unthresholded) moment regression,
projects each onto the PSD cone (`qp.nearest_psd`), adds a ridge of 1e-6
times its mean diagonal, and whitens the next fit, and that fit's covariance,
by them as a SubjectCovariances. The raw estimates are routinely indefinite
at moderate sample sizes; projection and ridge make the plug-in Sigma_i
positive definite, not accurate, and the reported uncertainty still
collapses. That failure mode is in scope: the module exists to quantify how
much worse the whitened estimator behaves when its weight matrix must be
estimated.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from . import qp
from .covest import DecalsResult, SubjectCovariances, cts_covariance_raw_all
from .deconv import estimate_proportions, _values
from .errors import (DimensionMismatch, NonFinite, SingularDesign,
                     SingularSigma)

# Bytes of (chunk, p, p) subject covariances whitened at a time. A chunk is
# the only stack whitening holds, and its buffers stay in cache: on desk
# replicates (p=150, one core, one BLAS thread) the gls_oracle arm took
# 65-70 ms at 512 KiB to 2 MiB, 71-72 ms at 256 KiB and 71-89 ms at 4 MiB.
_WHITEN_BYTES = 2 ** 20
# Ridge added to each projected per-type plug-in, relative to its mean
# diagonal. Without it, 10 of 12 desk replicates (p=150, n=200, seed 0, 2
# fits) met a plug-in Sigma_i that failed the gate; with it all 12 ran, at
# coverage [0.214, 0.225, 0.369] and MAE [0.103, 0.105, 0.092] per type.
_PLUGIN_RIDGE = 1e-6


def _design(Wv, Yc, m):
    """m copies of W (p, K), or of [W | y_i] given the responses Yc (p, m),
    each Fortran-ordered so that LAPACK works on it in place."""
    p, K = Wv.shape
    X = np.empty((m, K + (Yc is not None), p)).transpose(0, 2, 1)
    X[:, :, :K] = Wv
    if Yc is not None:
        X[:, :, K] = Yc.T
    return X


def _proven(S) -> np.ndarray:
    """Which samples of S provably pass the gate qp._is_pd, unasked: those
    of a SubjectCovariances with finite, exactly symmetric C_k (so einsum
    forms exactly symmetric Sigma_i) whose weights w = pi**2 sit only on
    types whose C_k - s_k I factors, s_k = (2 _PD_GATE + 11 p^2 eps) nu_k,
    nu_k = ||C_k||_inf. Cholesky's backward error is below 3 p^2 eps nu_k,
    so lambda_min(C_k) >= mu_k = (2 _PD_GATE + 8 p^2 eps) nu_k. By Weyl,
    lambda_min(fl(Sigma_i) - tau_i I) >= sum_k w_k mu_k - K eps N - tau_i >
    4 p^2 eps N, N = sum_k w_k nu_k (K eps N bounds einsum's rounding, tau_i
    <= _PD_GATE N), so Cholesky runs to completion (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thms 10.3, 10.7; Demmel)."""
    if not (isinstance(S, SubjectCovariances) and np.isfinite(S.cts).all()
            and np.array_equal(S.cts, S.cts.swapaxes(1, 2))):
        return np.zeros(len(S), dtype=bool)
    w, p = S.proportions ** 2, S.shape[1]
    s = 2 * qp._PD_GATE + 11 * p * p * 2.0 ** -52
    bad = [dpotrf(c - s * np.abs(c).sum(axis=1).max() * np.eye(p))[1] != 0
           for c in S.cts]
    return (w.sum(axis=1) > 0) & (w[:, bad] == 0).all(axis=1)


def _whiten_chunk(Wv, S, Yc, first, proven):
    """`_design(Wv, Yc, m)` premultiplied by L_i^{-1}, Sigma_i = L_i L_i',
    for each of the m subject covariances S[i] (module docstring), of which a
    proven one is factored in place. Errors name S[i] as matrix first + i."""
    bad = ~np.isfinite(S).all(axis=(1, 2))
    if bad.any():
        raise NonFinite(f"matrix {first + int(np.argmax(bad))}: "
                        "subject covariance contains NaN/Inf")
    # LAPACK and BLAS one matrix at a time (scipy batches stacks only from
    # 1.15 on), all of it scipy's: numpy and scipy each bundle an OpenBLAS
    # with its own thread pool, and alternating made each wait on the other.
    X = _design(Wv, Yc, len(S))
    for i, (Si, Xi, ok) in enumerate(zip(S, X, proven), first):
        # Sc.T equals Sc; LAPACK factors a C-ordered Sc in place
        Sc = Si if ok else 0.5 * np.add(Si, Si.T, order="C")
        L, info = (dpotrf(Sc.T, lower=1, clean=0, overwrite_a=1)
                   if ok or qp._is_pd(Sc) else (None, 1))
        if info:
            raise SingularSigma(f"matrix {i}: subject covariance is not "
                                "positive definite")
        dtrtrs(L, Xi, lower=1, overwrite_b=1)
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
    proven = _proven(S)
    for start in range(0, n, size):
        sl = slice(start, min(start + size, n))
        X = _whiten_chunk(Wv, S[sl], None if Y is None else Y[:, sl], start,
                          proven[sl])
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


def _check_gls_options(max_iter: int) -> None:
    """run_gls_iterative's check of its option."""
    if max_iter < 2:
        raise ValueError(f"max_iter must be at least 2, got {max_iter}")


def run_gls_iterative(W, Y, *, max_iter: int = 2) -> DecalsResult:
    """Feasible GLS in max_iter fits.

    Fit 1 is the plain constrained fit (`estimate_proportions`). Each later
    fit is whitened by a plug-in from the previous fit's residuals (raw
    moments, PSD-projected, plus a ridge of _PLUGIN_RIDGE times the mean
    diagonal). The returned estimate, its covariance and cts_covariances all
    belong to the last plug-in. max_iter=2 is the two-step feasible GLS
    (Carroll, Wu & Ruppert, JASA 83:1045, 1988). No convergence test runs:
    iterations is max_iter and converged is False."""
    Wv, Yv = _values(W), _values(Y)
    p = Wv.shape[0]
    _check_gls_options(max_iter)
    est = estimate_proportions(Wv, Yv)
    for _ in range(max_iter - 1):
        Sk = np.stack([qp.nearest_psd(S) for S in
                       cts_covariance_raw_all(est ** 2, Yv - Wv @ est.T)])
        for S in Sk:
            S.flat[::p + 1] += _PLUGIN_RIDGE * np.trace(S) / p
        A, a = _normal_equations(Wv, SubjectCovariances(est, Sk), Yv)
        est = qp.solve_simplex_normal(A, a)
    return DecalsResult(est, _gls_cov(A, p) / p, Sk, max_iter, False)
