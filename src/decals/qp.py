"""Quadratic-programming kernel: simplex-constrained least squares plus a
Frobenius-nearest PSD projection, and check_pd, the relative-eigenvalue
singularity check every module applies with its own floor and exception.

The simplex solver is a dual active-set method (Goldfarb-Idnani): start at the
unconstrained minimizer, impose the sum-to-one equality first, then add violated
nonnegativity constraints one at a time, taking the dual-feasible step length at
each move. The design dimension K is small, so per-step systems are solved
directly against one Cholesky factorization of W'W. `solve_simplex_ls` takes
a matrix of responses too: it checks and factors W'W once and runs the active
set per column, so fitting n samples costs one K x K factorization, not n.

The PSD projection clips negative eigenvalues at zero. The thresholded
covariances it receives are often positive definite already, and otherwise
have few negative eigenvalues next to p positive ones. So, for large p, a
Cholesky factorization first proves the common PD case for a fraction of an
eigendecomposition's cost. Only when that fails are the nonpositive
eigenpairs, and only those, computed and subtracted. Small matrices take
one full eigendecomposition: there the partial solve does not pay.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky, eigh

from .errors import DimensionMismatch, MaxIterations, NonFinite, SingularDesign

# Relative eigenvalue threshold below which W'W counts as singular.
_COND_FLOOR = 1e-10
# Negative dust on returned proportions is clamped to zero up to this slack.
_CLAMP = 1e-12
# Size from which nearest_psd computes only the nonpositive eigenpairs. Timed
# on one core, that partial solve costs no more than a full eigh at p >= 500
# when up to 22% of the eigenvalues are negative (the median share in
# paper-scale fits, p=300), and loses below: at p=300 it took 14.7 ms to
# eigh's 10.7 ms. Wide and tall fits (p=600, 1200) show at most 13%.
_PARTIAL_EIG_MIN_P = 500


def _as_problem(W, y, ndims=(1,)):
    W = np.asarray(W, dtype=float)
    y = np.asarray(y, dtype=float)
    if W.ndim != 2 or y.ndim not in ndims or W.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"design {W.shape} and response {y.shape} are incompatible")
    p, K = W.shape
    if p < K or K < 2:
        raise DimensionMismatch(f"need p >= K >= 2, got p={p}, K={K}")
    if not np.isfinite(W).all() or (y.ndim == 1 and not np.isfinite(y).all()):
        raise NonFinite("design or response contains NaN/Inf")
    return W, y


def check_pd(M, floor: float, exc, msg: str) -> None:
    """Raise exc(msg) unless symmetric M is numerically positive definite.

    M counts as singular when its smallest eigenvalue is at most `floor`
    times its largest, or its largest is not positive. The message gets the
    eigenvalue range appended. A stack M (n, K, K) is checked with one
    batched eigvalsh; the first failing matrix raises, and the message names
    its index."""
    w = np.linalg.eigvalsh(M)
    bad = (w[..., 0] <= floor * w[..., -1]) | (w[..., -1] <= 0.0)
    if not bad.any():
        return
    if bad.ndim:                             # a stack: name its first failure
        i = int(np.argmax(bad))
        w, msg = w[i], f"matrix {i}: {msg}"
    raise exc(f"{msg} (eig range [{w[0]:.3e}, {w[-1]:.3e}])")


def _gram(W):
    G = W.T @ W
    check_pd(G, _COND_FLOOR, SingularDesign, "W'W numerically singular")
    return G


def solve_simplex_ls(W, y, *, names=None) -> np.ndarray:
    """Minimize ||y - W pi||^2 over the probability simplex.

    Returns the unique minimizer with every entry >= 0 and sum exactly 1.
    Raises MaxIterations if the active-set loop exceeds 50*(K+1) changes.

    A 2-D y (p, n) returns the (n, K) minimizers of its columns, each equal
    to its one-column solve: W'W is checked and factored once, W'y_i is
    formed per column. Every response is checked before any is solved. An
    error about one column is prefixed with its entry of `names` (default
    "column i").
    """
    W, y = _as_problem(W, y, ndims=(1, 2))
    if y.ndim == 1:
        return _gi_simplex(cho_factor(_gram(W)), W.T @ y)

    def name(i):
        return names[i] if names is not None else f"column {i}"

    bad = ~np.isfinite(y).all(axis=0)
    if bad.any():
        raise NonFinite(f"{name(int(np.argmax(bad)))}: design or response "
                        "contains NaN/Inf")
    c = cho_factor(_gram(W))
    out = np.empty((y.shape[1], W.shape[1]))
    for i in range(y.shape[1]):
        try:
            out[i] = _gi_simplex(c, W.T @ y[:, i])
        except MaxIterations as err:
            raise MaxIterations(f"{name(i)}: {err}") from None
    return out


def solve_simplex_normal(G, a) -> np.ndarray:
    """Simplex-constrained minimizer of 0.5 x'Gx - a'x for positive definite G.

    Normal-equation form of solve_simplex_ls: equivalent to it on any design
    with W'W = G and W'y = a. Useful when the design itself is never formed.
    """
    G = np.asarray(G, dtype=float)
    a = np.asarray(a, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or a.shape != (G.shape[0],):
        raise DimensionMismatch(f"incompatible shapes {G.shape} and {a.shape}")
    if not (np.isfinite(G).all() and np.isfinite(a).all()):
        raise NonFinite("normal equations contain NaN/Inf")
    check_pd(0.5 * (G + G.T), _COND_FLOOR, SingularDesign,
             "moment matrix numerically singular")
    return _gi_simplex(cho_factor(G), a)


def _gi_simplex(c, a) -> np.ndarray:
    """Active-set solve for a finite `a` against c, a cho_factor of the
    positive definite G; the solves skip scipy's finiteness checks."""
    K = len(a)

    pi = cho_solve(c, a, check_finite=False)     # unconstrained start
    ones = np.ones(K)

    # active constraint normals; index 0 is the equality, k>=1 pins pi[k-1] at 0
    act: list[int] = []
    u = np.zeros(0)

    def normal(idx):
        if idx == 0:
            return ones
        e = np.zeros(K)
        e[idx - 1] = 1.0
        return e

    def step_dirs(nplus, N):
        z0 = cho_solve(c, nplus, check_finite=False)
        if N.shape[1] == 0:
            return z0, np.zeros(0)
        GiN = cho_solve(c, N, check_finite=False)
        r = np.linalg.solve(N.T @ GiN, N.T @ z0)
        return z0 - GiN @ r, r

    cap = 50 * (K + 1)
    changes = 0

    def take_in(idx, bval):
        # add constraint idx (target n'pi = bval) keeping dual feasibility
        nonlocal pi, act, u, changes
        uplus = 0.0
        while True:
            changes += 1
            if changes > cap:
                raise MaxIterations("active-set change cap exceeded")
            nplus = normal(idx)
            N = np.column_stack([normal(j) for j in act]) if act else np.zeros((K, 0))
            z, r = step_dirs(nplus, N)
            viol = bval - nplus @ pi
            # dual blocking step (equality constraint never leaves)
            t1 = np.inf
            drop = -1
            for pos, j in enumerate(act):
                if j != 0 and r[pos] > 1e-13:
                    tj = u[pos] / r[pos]
                    if tj < t1:
                        t1, drop = tj, pos
            denom = nplus @ z
            t2 = viol / denom if denom > 1e-13 * max(1.0, abs(viol)) else np.inf
            t = min(t1, t2)
            if not np.isfinite(t):
                raise MaxIterations("no feasible step; constraints degenerate")
            pi = pi + t * z
            if len(u):
                u = u - t * r
            uplus += t
            if t2 <= t1:
                act.append(idx)
                u = np.append(u, uplus)
                return
            # blocked: drop the binding constraint and retry the same candidate
            act.pop(drop)
            u = np.delete(u, drop)

    take_in(0, 1.0)                          # equality first
    while True:
        k = int(np.argmin(pi))
        if pi[k] >= -1e-11:
            break
        take_in(k + 1, 0.0)

    pi = np.where(pi < 0.0, np.where(pi >= -_CLAMP, 0.0, pi), pi)
    pi = np.maximum(pi, 0.0)                 # residual dust after the loop exit test
    return pi / pi.sum()


def nearest_psd(S) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix to S.

    Symmetrizes, then clips negative eigenvalues at zero (the projection onto
    the PSD cone for the Frobenius norm). Idempotent. Below _PARTIAL_EIG_MIN_P
    rows this takes a full eigendecomposition. From there on, a matrix that
    passes the Cholesky test of _is_pd is returned as it is, and any other
    has only its nonpositive eigenpairs (w_, Q_) computed and gets
    S - Q_ diag(w_) Q_', which is the same projection up to rounding.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] == 0:
        raise DimensionMismatch(
            f"expected a non-empty square matrix, got shape {S.shape}")
    if not np.isfinite(S).all():
        raise NonFinite("matrix contains NaN/Inf")
    S = 0.5 * (S + S.T)
    if len(S) < _PARTIAL_EIG_MIN_P:
        w, Q = np.linalg.eigh(S)
        if w[0] >= 0.0:
            return S
        out = (Q * np.maximum(w, 0.0)) @ Q.T
    elif _is_pd(S):
        return S
    else:
        w, Q = eigh(S, subset_by_value=(-np.inf, 0.0), driver="evr",
                    check_finite=False)
        if w.size == 0:
            return S
        out = S - (Q * w) @ Q.T
    return 0.5 * (out + out.T)


def _is_pd(S) -> bool:
    """Whether S - tau I, tau = 1e-10 ||S||_inf, has a Cholesky factor.

    The max absolute row sum bounds every eigenvalue, so success proves the
    smallest eigenvalue of S exceeds tau >= 0, with a margin far above the
    rounding of an eigendecomposition."""
    tau = 1e-10 * np.abs(S).sum(axis=1).max()
    try:
        cholesky(S - tau * np.eye(len(S)), check_finite=False)
    except np.linalg.LinAlgError:
        return False
    return True
