"""Constrained generalized least squares: whitened fits, their covariance, and
the feasible variant that whitens by covariances estimated from residuals.

`solve_gls` and `gls_covariance` take the n subject covariances in the form
`deconv.sandwich` takes: Sigma_i = sum_k H_ik S_k, with S (m, p, p) and
weights H (n, m) >= 0, in the model the per-type covariances and squared
proportions. S is symmetrized once per type, so each Sigma_i is formed
exactly symmetric, a chunk of about a MB at a time; no (n, p, p) array is
held. Each Sigma_i must pass the gate `qp._is_pd` (Sigma_i - tau_i I, tau_i
= 1e-10 ||Sigma_i||_inf, has a Cholesky factor) or be proven to pass it from
the per-type form, sparing the gate's factor; then Sigma_i = L_i L_i' is
factored in place and the sample whitened by L_i^{-1}. Any other Sigma_i
raises SingularSigma, naming it as matrix i. No matrix's path depends on its
neighbours, so each sample gets the bytes of its one-sample call, H[i:i+1].
The fit solves every sample's whitened normal equations in one stacked call
of `qp.solve_simplex_normal`.

This is a comparison arm. The feasible variant plugs estimated weights into
the same whitening: from a fit's residuals it estimates the per-type
covariances by the raw (uncorrected, unthresholded) moment regression,
projects each onto the PSD cone (`qp.nearest_psd`), adds a ridge of 1e-6
times its mean diagonal, and whitens the next fit, and that fit's covariance,
by them. The raw estimates are routinely indefinite at moderate sample
sizes; projection and ridge make the plug-in Sigma_i positive definite, not
accurate, and the reported uncertainty still collapses. That failure mode is
in scope: the module exists to quantify how much worse the whitened
estimator behaves when its weight matrix must be estimated.
"""

from __future__ import annotations

import numpy as np

from . import qp
from .covest import DecalsResult, cts_covariance_raw_all
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


def _subject(Wv, S, H):
    """S (m, p, p), symmetrized per type unless exactly symmetric, and H
    (n, m), as float arrays; refuses shapes that do not fit W, a non-finite S
    and a negative or non-finite weight, naming its sample."""
    S, H = np.asarray(S, dtype=float), np.asarray(H, dtype=float)
    p = Wv.shape[0]
    if S.ndim != 3 or S.shape[1:] != (p, p) or H.shape[1:] != (len(S),):
        raise DimensionMismatch(
            f"covariances S {S.shape} and weights H {H.shape} do not match "
            f"p={p}; need (m, {p}, {p}) and (n, m)")
    bad = ~np.isfinite(S).all(axis=(1, 2))
    if bad.any():
        raise NonFinite(f"covariance {int(np.argmax(bad))} of S contains "
                        "NaN/Inf")
    bad = ~((H >= 0.0) & (H < np.inf)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"sample {i}: weights must be finite and >= 0, "
                         f"got {H[i].tolist()}")
    if not np.array_equal(S, S.swapaxes(1, 2)):
        S = 0.5 * (S + S.swapaxes(1, 2))
    return S, H


def _proven(S, H) -> np.ndarray:
    """Which samples provably pass the gate qp._is_pd, unasked, for S and H
    from _subject (finite, S exactly symmetric, w = H_i >= 0): those whose
    weights sit only on types whose S_k - s_k I factors, s_k = (2 _PD_GATE + 11
    p^2 eps) nu_k, nu_k = ||S_k||_inf. Cholesky's backward error is below 3 p^2
    eps nu_k, so lambda_min(S_k) >= mu_k = (2 _PD_GATE + 8 p^2 eps) nu_k. By
    Weyl, lambda_min(fl(Sigma_i) - tau_i I) >= sum_k w_k mu_k - m eps N - tau_i
    > 4 p^2 eps N, N = sum_k w_k nu_k (m eps N bounds einsum's rounding, tau_i
    <= _PD_GATE N), so Cholesky runs to completion (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thms 10.3, 10.7; Demmel)."""
    from scipy.linalg.lapack import dpotrf
    p = S.shape[1]
    s = 2 * qp._PD_GATE + 11 * p * p * 2.0 ** -52
    bad = [dpotrf(c - s * np.abs(c).sum(axis=1).max() * np.eye(p))[1] != 0
           for c in S]
    return (H.sum(axis=1) > 0) & (H[:, bad] == 0).all(axis=1)


def _whiten_chunk(Wv, S, Yc, first, proven):
    """`_design(Wv, Yc, m)` premultiplied by L_i^{-1}, Sigma_i = L_i L_i',
    for each of the m exactly symmetric subject covariances S[i], factored
    in place (module docstring). Errors name S[i] as matrix first + i."""
    # LAPACK and BLAS one matrix at a time (scipy batches stacks only from
    # 1.15 on), all of it scipy's: numpy and scipy each bundle an OpenBLAS
    # with its own thread pool, and alternating made each wait on the other.
    from scipy.linalg.lapack import dpotrf, dtrtrs
    X = _design(Wv, Yc, len(S))
    for i, (Si, Xi, ok) in enumerate(zip(S, X, proven), first):
        # Si.T equals Si, Fortran-ordered: LAPACK factors it in place
        L, info = (dpotrf(Si.T, lower=1, clean=0, overwrite_a=1)
                   if ok or qp._is_pd(Si) else (None, 1))
        if info:
            raise SingularSigma(f"matrix {i}: subject covariance is not "
                                "positive definite")
        dtrtrs(L, Xi, lower=1, overwrite_b=1)
    return X


def _normal_equations(Wv, S, H, Y=None):
    """The whitened normal equations of the n = len(H) samples: A =
    W' Sigma_i^{-1} W (n, K, K) and, when Y (p, n) is given, a =
    W' Sigma_i^{-1} y_i (n, K), Sigma_i = sum_k H_ik S_k formed one chunk
    at a time from the checked (S, H) of _subject."""
    p, K = Wv.shape
    n = len(H)
    A = np.empty((n, K, K))
    a = np.empty((n, K))
    size = max(1, _WHITEN_BYTES // (p * p * 8))
    proven = _proven(S, H)
    for start in range(0, n, size):
        sl = slice(start, min(start + size, n))
        X = _whiten_chunk(Wv, np.einsum('...k,kpq->...pq', H[sl], S),
                          None if Y is None else Y[:, sl], start, proven[sl])
        M = X.transpose(0, 2, 1) @ X
        A[sl] = M[:, :K, :K]
        if Y is not None:
            a[sl] = M[:, :K, K]
    return A, a


def solve_gls(W, Y, S, H) -> np.ndarray:
    """Simplex-constrained fit of each sample's whitened problem, (n, K),
    for responses Y (p, n) and Sigma_i = sum_k H_ik S_k, S (m, p, p), H
    (n, m). Whitening as in the module docstring."""
    Wv = _values(W)
    S, H = _subject(Wv, S, H)
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (Wv.shape[0], len(H)):
        raise DimensionMismatch(f"responses {Y.shape} do not match {len(H)} "
                                f"samples of {Wv.shape[0]} genes")
    return qp.solve_simplex_normal(*_normal_equations(Wv, S, H, Y))


def _gls_cov(A, p) -> np.ndarray:
    """p * (A^{-1} - A^{-1} 1 (1' A^{-1} 1)^{-1} 1' A^{-1}) per (K, K) slice."""
    Ai = np.linalg.inv(A)
    s = Ai @ np.ones(A.shape[-1])
    V = p * (Ai - s[:, :, None] * s[:, None, :] / s.sum(axis=1)[:, None, None])
    return 0.5 * (V + V.transpose(0, 2, 1))


def gls_covariance(W, S, H) -> np.ndarray:
    """Covariances (times p) of the whitened constrained estimator, (n, K, K).

    p * (A^{-1} - A^{-1} 1 (1' A^{-1} 1)^{-1} 1' A^{-1}) with A =
    W' Sigma_i^{-1} W, Sigma_i = sum_k H_ik S_k as in solve_gls; same scale
    as the sandwich covariance, so /p gives the estimate covariance."""
    Wv = _values(W)
    A = _normal_equations(Wv, *_subject(Wv, S, H))[0]
    qp.check_pd(A, 1e-12, SingularDesign,
                "whitened design W' Sigma^{-1} W is singular")
    return _gls_cov(A, Wv.shape[0])


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
        A, a = _normal_equations(Wv, *_subject(Wv, Sk, est ** 2), Yv)
        est = qp.solve_simplex_normal(A, a)
    return DecalsResult(est, _gls_cov(A, p) / p, Sk, max_iter, False)
